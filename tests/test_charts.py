"""Normal-crossings chart assembly and the univariate class descent."""

from fractions import Fraction

import pytest

from igusa.charts import (
    CharacterSpec,
    ChartCell,
    candidate_poles_filtered,
    integrate_univariate,
    zeta_from_charts,
)
from igusa.context import PadicContext
from igusa.counting import verify_zeta_against_counts
from igusa.poly import MultiPoly, parse_poly
from igusa.qpoly import QPoly
from igusa.zeta import ZetaRational, one_var_integral, series_coeffs


def _same(z1, z2, k=10):
    return z1.p == z2.p and series_coeffs(z1, k) == series_coeffs(z2, k)


def test_single_cell_monomial():
    # one chart covering Z_p, f = x^3
    ctx = PadicContext(2, 1)
    cell = ChartCell(k=1, monomials=((3, 1),), box=(0,))
    z = zeta_from_charts([cell], ctx)
    assert _same(z, one_var_integral(2, 0, 3, 1))
    ok, _, _ = verify_zeta_against_counts(z, parse_poly("x^3"), 6)
    assert ok


def test_two_coordinate_cell():
    # f = x1*x2 on Z_p^2 as a single k=2 cell: product structure
    ctx = PadicContext(3, 2)
    cell = ChartCell(k=2, monomials=((1, 1), (1, 1)), box=(0, 0))
    z = zeta_from_charts([cell], ctx)
    expected = one_var_integral(3, 0, 1, 1) * one_var_integral(3, 0, 1, 1)
    assert _same(z, expected)
    # one weighted and one unweighted coordinate on the box P^2 x P^1, with
    # |eta| = p^-1: the weighted measure times p^-1 p^-1
    cell = ChartCell(k=1, monomials=((2, 3),), box=(2, 1), ord_eta=1)
    with pytest.warns(UserWarning):
        z = zeta_from_charts([cell], ctx)
    expected = one_var_integral(3, 2, 2, 3) * ZetaRational(3, QPoly.const(Fraction(1, 9)))
    assert z.to_json() == expected.reduced().to_json()


def test_unit_cell():
    # no vanishing coordinates: pure measure times |eps|^s
    ctx = PadicContext(5, 2)
    cell = ChartCell(k=0, monomials=(), box=(1, 1), ord_eps=3)
    # a lone cell is not a partition of Z_p^2, which is warned about
    with pytest.warns(UserWarning):
        z = zeta_from_charts([cell], ctx)
    assert z.numerator == QPoly.monomial(Fraction(1, 25), 3)
    assert not z.denominator


def test_empty_cells_error():
    with pytest.raises(ValueError):
        zeta_from_charts([], PadicContext(3, 1))
    with pytest.raises(ValueError, match="dimension n = 2"):
        zeta_from_charts([ChartCell(k=0, monomials=(), box=(0,))], PadicContext(3, 2))


def test_cell_json_round_trip():
    cell = ChartCell.from_json(
        {"k": 1, "monomials": [[2, 1]], "box": [1], "ord_eps": 0, "ord_eta": 2}
    )
    assert cell.k == 1
    assert cell.monomials == ((2, 1),)
    assert cell.ord_eta == 2


def test_integrate_univariate_base_case():
    ctx = PadicContext(5, 1)
    z = integrate_univariate(parse_poly("u"), 0, ctx)
    assert _same(z, one_var_integral(5, 0, 1, 1))


def test_integrate_univariate_no_roots():
    # u^2+1 has no zero mod 3, so |u^2+1| = 1 on all of Z_3
    ctx = PadicContext(3, 1)
    z = integrate_univariate(parse_poly("u^2+1"), 0, ctx)
    assert z.numerator == QPoly.const(Fraction(1))
    assert not z.denominator


def test_integrate_univariate_two_simple_roots():
    # |u(u+1)|^s over Z_5: classes u=0 and u=-1 each contribute a linear
    # integral, the other three classes have measure 3/5 with value 1
    ctx = PadicContext(5, 1)
    z = integrate_univariate(parse_poly("u*(u+1)", vars=("u",)), 0, ctx)
    expected = (
        ZetaRational(5, QPoly.const(Fraction(3, 5)), {})
        + one_var_integral(5, 1, 1, 1)
        + one_var_integral(5, 1, 1, 1)
    )
    assert _same(z, expected)


def test_integrate_univariate_counting_oracle():
    # expanding the integral reproduces the solution counts of h
    for text, p in (("u*(u+1)", 3), ("u^2-2", 7), ("u*(u^2+1)", 5)):
        ctx = PadicContext(p, 1)
        h = parse_poly(text, vars=("u",))
        z = integrate_univariate(h, 0, ctx)
        ok, predicted, actual = verify_zeta_against_counts(z, h, 4)
        assert ok, (text, p, predicted, actual)


def test_integrate_univariate_rejects_repeated_roots():
    ctx = PadicContext(3, 1)
    with pytest.raises(ValueError):
        integrate_univariate(parse_poly("u^2", vars=("u",)), 0, ctx)


def test_integrate_univariate_rejects_two_variables():
    with pytest.raises(ValueError, match="not univariate"):
        integrate_univariate(parse_poly("u+w"), 0, PadicContext(3, 1))


def test_integrate_univariate_rejects_non_integer_coefficients():
    # |u/2|^s is 2^s |u|^s over Z_2, not the integral of |u|^s
    for p in (2, 3):
        with pytest.raises(ValueError):
            integrate_univariate(MultiPoly(("u",), {(1,): Fraction(1, 2)}), 0, PadicContext(p, 1))


def test_candidate_filter_trivial_character():
    cps = candidate_poles_filtered([(2, 2), (3, 3), (6, 5)])
    assert {c.real_part for c in cps} == {Fraction(-1), Fraction(-5, 6)}


def test_candidate_filter_order_two():
    cps = candidate_poles_filtered([(2, 1)], CharacterSpec(order=2))
    assert [c.real_part for c in cps] == [Fraction(-1, 2)]


def test_candidate_filter_drops_nondivisible():
    assert candidate_poles_filtered([(3, 2)], CharacterSpec(order=2)) == []
