"""The divisibility law for solution counts M_i."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from igusa.context import PadicContext
from igusa.counting import count_naive, poincare_truncation
from igusa.divisibility import (
    check_divisibility,
    constructive_shift,
    divisibility_property_check,
    min_shift,
    smallest_real_pole,
)
from igusa.families import zeta_sum_squares, zeta_xy_zi
from igusa.integrate2d import zeta_two_var
from igusa.poly import parse_poly
from igusa.qpoly import QPoly
from igusa.zeta import (
    PoincareSeries,
    ZetaRational,
    eval_at_one,
    one_var_integral,
    poincare_from_zeta,
    series_coeffs,
)


def test_smallest_real_pole_xy_z2():
    z = zeta_xy_zi(PadicContext(3, 3), 2)
    assert smallest_real_pole(z) == Fraction(-3, 2)


def test_smallest_real_pole_linear():
    assert smallest_real_pole(one_var_integral(5, 0, 1, 1)) == Fraction(-1)


def test_smallest_real_pole_of_a_polynomial_raises():
    # (1 - t/3) / (1 - t/3) reduces to 1, which has no candidate pole
    with pytest.raises(ValueError, match="no poles"):
        smallest_real_pole(ZetaRational(3, QPoly([1, Fraction(-1, 3)]), {(1, 1): 1}))


def test_smallest_real_pole_inert_circle():
    z, _ = zeta_sum_squares(PadicContext(3, 2))
    assert smallest_real_pole(z) == Fraction(-1)


def test_check_divisibility_xy_z2():
    for p in (2, 3):
        M = poincare_truncation(parse_poly("x*y+z^2"), p, 6)
        a = min_shift(M, Fraction(-3, 2))
        report = check_divisibility(M, Fraction(-3, 2), a)
        assert report.ok
        assert report.violations == []


def test_check_divisibility_flat_counts():
    # f = x, n = 1, l = -1: n + l = 0, any a >= 0 passes
    M = PoincareSeries(3, 1, [1] * 6)
    assert check_divisibility(M, Fraction(-1), 0).ok


def test_check_divisibility_detects_wrong_l():
    M = poincare_truncation(parse_poly("x*y+z^2"), 2, 6)
    report = check_divisibility(M, Fraction(-1), 0)
    assert not report.ok
    assert report.violations


def test_min_shift_is_minimal():
    for p in (2, 3):
        M = poincare_truncation(parse_poly("x*y+z^2"), p, 6)
        a = min_shift(M, Fraction(-3, 2))
        assert check_divisibility(M, Fraction(-3, 2), a).ok
        if a > 0:
            assert not check_divisibility(M, Fraction(-3, 2), a - 1).ok


def test_min_shift_monomial_counts():
    # f = x^3 over Z_2: M_i = 2^(i - ceil(i/3)), l = -1/3
    m = 3
    M = PoincareSeries(2, 1, [2 ** (i - -(-i // m)) for i in range(10)])
    a = min_shift(M, Fraction(-1, m))
    assert a in (0, 1)
    assert check_divisibility(M, Fraction(-1, m), a).ok


def test_min_shift_single_entry():
    M = PoincareSeries(5, 2, [1])
    assert min_shift(M, Fraction(-1)) == 0


def test_min_shift_counter_agreement():
    f = parse_poly("x*y+z^3")
    M_h = poincare_truncation(f, 2, 6)
    M_n = PoincareSeries(2, 3, [count_naive(f, 2, i) for i in range(7)])
    l = Fraction(-4, 3)
    assert M_h.counts() == M_n.counts()
    assert min_shift(M_h, l) == min_shift(M_n, l)


def test_property_geometric_factor():
    # 1/(1 - p^-3 t^2): 3*2 - 3 = 3 >= 2*(3/2)
    for p in (2, 3):
        coeffs = series_coeffs(
            ZetaRational(p, QPoly.const(Fraction(1)), {(2, 3): 1}), 10
        )
        assert divisibility_property_check(coeffs, 3, Fraction(-3, 2), p, 10)


def test_property_constant():
    assert divisibility_property_check([Fraction(1)], 3, Fraction(-3, 2), 2, 0)


def test_property_product_closure():
    for p in (2, 3):
        prod = series_coeffs(
            ZetaRational(p, QPoly.const(Fraction(1)), {(2, 3): 1, (4, 6): 1}), 10
        )
        assert divisibility_property_check(prod, 3, Fraction(-3, 2), p, 10)


def test_property_below_threshold_fails():
    # the factor (1,2) has real part -2 < -3/2 and breaks the property
    prod = series_coeffs(
        ZetaRational(2, QPoly.const(Fraction(1)), {(2, 3): 1, (1, 2): 1}), 10
    )
    assert not divisibility_property_check(prod, 3, Fraction(-3, 2), 2, 10)


def test_constructive_shift_xy_z2():
    for p in (2, 3):
        z = zeta_xy_zi(PadicContext(p, 3), 2)
        a, C = constructive_shift(z, 3, Fraction(-3, 2))
        M = poincare_truncation(parse_poly("x*y+z^2"), p, 6)
        assert check_divisibility(M, Fraction(-3, 2), a).ok


def test_report_json():
    f = parse_poly("x*y+z^2")
    M = poincare_truncation(f, 2, 4)
    report = check_divisibility(M, Fraction(-3, 2), 1)
    data = report.to_json()
    assert data["l"] == "-3/2"
    assert data["checked_up_to"] == 4


@cache
def _plane_zeta(f: str, p: int) -> ZetaRational:
    return zeta_two_var(parse_poly(f), PadicContext(p, 2))


def _binomial(p: int, N: int, nu: int) -> QPoly:
    return QPoly([1] + [0] * (N - 1) + [Fraction(-1, p**nu)])


@st.composite
def _zetas(draw):
    """(Z, n): the zeta of a plane curve, or a product of `one_var_integral`
    factors, one variable each; Z(1) = 1 unless a factor has j > 0 or nu > 1.
    Some are left unreduced by a binomial over itself, so that a factor
    below the threshold can divide P's numerator."""
    p = draw(st.sampled_from((2, 3, 5)))
    if draw(st.booleans()):
        f = draw(st.sampled_from(["y^2-x^3", "x*y", "x^2+y^2", "y^2-x^5", "x*y*(x+y)", "x^2+y^3"]))
        z, n = _plane_zeta(f, p), 2
    else:
        factors = draw(st.lists(st.tuples(st.sampled_from([(0, 1), (0, 1), (0, 2), (1, 1)]),
                                          st.integers(1, 4)), min_size=1, max_size=3))
        z, n = ZetaRational(p, QPoly.const(1)), len(factors)
        for (j, nu), N in factors:
            z = z * one_var_integral(p, j, N, nu)
    if extra := draw(st.sampled_from([None, (1, 3), (2, 5), (1, 1), (2, 3)])):
        z = z * ZetaRational(p, _binomial(p, *extra), {extra: 1})
    return z, n


@settings(max_examples=200)
@given(_zetas(), st.integers(0, 8), st.data())
def test_one_poincare_series(case, k, data):
    z, n = case
    p = z.p
    poles = [s0 for s0, _ in z.candidate_poles()] or [Fraction(-1)]
    l = data.draw(st.sampled_from(poles))
    if eval_at_one(z) != 1:
        with pytest.raises(ValueError):
            poincare_from_zeta(z, n, k)
        with pytest.raises(ArithmeticError):
            constructive_shift(z, n, l)
        return
    # M_i = p^(n i) [t^i] (1 - t Z) / (1 - t): partial sums of 1 - t Z
    zc = series_coeffs(z, k)
    assert poincare_from_zeta(z, n, k).counts() == [(1 - sum(zc[:i])) * p ** (n * i)
                                                     for i in range(k + 1)]
    # P's numerator (D - t N) / (1 - t) by long division, and C times the
    # factors below the threshold l
    top, rem = (z.denominator_poly() - z.numerator.shift(1)).divmod(QPoly([1, -1]))
    assert rem.is_zero()
    below = QPoly.const(1)
    for N, nu in z.denominator.elements():
        if Fraction(-nu, N) < l:
            below = below * _binomial(p, N, nu)
    try:
        _, C = constructive_shift(z, n, l)
    except ArithmeticError:
        assert not top.divmod(below)[1].is_zero()
    else:
        assert C * below == top
