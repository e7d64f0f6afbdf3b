"""Sparse polynomial parsing, tangent cones, blowup substitutions."""

import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from igusa import resolve
from igusa.cli import run
from igusa.poly import (
    MultiPoly,
    blowup_chart_a,
    format_poly,
    is_squarefree,
    parse_poly,
    poly_variables,
    tangent_cone_factors,
)


def test_parse_basic():
    f = parse_poly("x^2+y^2")
    assert f.vars == ("x", "y")
    assert f.terms == {(2, 0): Fraction(1), (0, 2): Fraction(1)}


def test_parse_three_vars():
    f = parse_poly("x*y+z^3")
    assert f.vars == ("x", "y", "z")
    assert f.terms == {(1, 1, 0): Fraction(1), (0, 0, 3): Fraction(1)}


def test_parse_negative():
    f = parse_poly("y^2-x^3", vars=("x", "y"))
    assert f.terms == {(0, 2): Fraction(1), (3, 0): Fraction(-1)}


def test_parse_round_trip():
    for text in ("x^2+y^2", "y^2-x^3", "x*y*(x+y)+x^4", "x*y+z^2", "x^2+7*y^5"):
        f = parse_poly(text)
        again = parse_poly(format_poly(f), vars=f.vars)
        assert again.terms == f.terms


def test_parse_syntax_error():
    with pytest.raises(ValueError):
        parse_poly("x^^2")
    with pytest.raises(ValueError):
        parse_poly("x + ")


@pytest.mark.parametrize("text, vars, message", [
    ("x$y", None, "bad character at '$y'"),
    ("x^-2", None, "negative exponent"),
    ("(x+y", None, "unbalanced parenthesis"),
    ("x+z", ("x", "y"), "unknown variable 'z'"),
    ("x+)", None, "unexpected token ')'"),
    ("  ", None, "empty expression"),
    ("x)", None, "trailing tokens near ')'"),
])
def test_parse_errors(text, vars, message, capsys):
    with pytest.raises(ValueError) as err:
        parse_poly(text, vars=vars)
    assert str(err.value) == message
    if vars is None:  # the CLI takes the variables from the text, so each is known
        assert run(["count", "-f", text, "--p", "3", "-i", "1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_juxtaposition_multiplies():
    for text, product in (("3x", "3*x"), ("x y", "x*y"), ("2(x+1)", "2*(x+1)"),
                          ("2x^2y", "2*x^2*y"), ("(x+1)(y-1)", "(x+1)*(y-1)"), ("-3x y^2", "-3*x*y^2")):
        assert parse_poly(text, vars=("x", "y")) == parse_poly(product, vars=("x", "y"))


def test_unary_minus_binds_more_loosely_than_power():
    for text, expected in (("x*-y^2", "-x*y^2"), ("2*-x^2", "-2*x^2"), ("3*-2^2", "-12"),
                           ("-y^2", "-y^2"), ("x--y^2", "y^2 + x"), ("(-y)^2", "y^2")):
        assert format_poly(parse_poly(text, vars=("x", "y"))) == expected


_leaf_text = st.one_of(st.integers(0, 12).map(str), st.sampled_from(["x", "y"]))


def _compound_text(sub):
    # a power's base is a leaf or parenthesised: Python's ** chains, ^ does not
    base = st.one_of(_leaf_text, sub.map("({})".format))
    return st.one_of(
        st.tuples(sub, st.sampled_from(["+", "-", "*"]), sub).map("".join),
        sub.map("-{}".format),
        sub.map("({})".format),
        st.tuples(base, st.integers(0, 3)).map(lambda bk: f"{bk[0]}^{bk[1]}"),
    )


@settings(max_examples=500)
@given(st.recursive(_leaf_text, _compound_text, max_leaves=8),
       st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
def test_parse_follows_python_precedence(text, point):
    expected = eval(text.replace("^", "**"), {"__builtins__": {}}, dict(zip("xy", point)))
    assert parse_poly(text, vars=("x", "y")).eval_int(point) == expected


@pytest.mark.parametrize("text", ["(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x"],
                         ids=["parentheses", "unary-minus"])
def test_deep_nesting_is_a_value_error(text):
    with pytest.raises(ValueError, match="nested too deeply"):
        parse_poly(text)


def test_power_by_repeated_squaring():
    f = parse_poly("x+2*y-1")
    acc = MultiPoly.const(f.vars, 1)
    for k in range(10):
        assert f**k == acc
        acc = acc * f
    start = time.perf_counter()
    g = parse_poly("x^1000000+y")
    assert time.perf_counter() - start < 1
    assert g.terms == {(1000000, 0): 1, (0, 1): 1}


def test_variable_order_first_appearance():
    assert poly_variables("z^2 + x*y") == ("z", "x", "y")


def test_multiplicity_at_origin():
    assert parse_poly("y^2-x^3").multiplicity_at_origin() == 2
    assert parse_poly("x^2+3*y^5").multiplicity_at_origin() == 2
    assert parse_poly("3", vars=("x",)).multiplicity_at_origin() == 0
    with pytest.raises(ValueError):
        MultiPoly(("x", "y")).multiplicity_at_origin()


def test_tangent_cone_double_line():
    # lowest part of y^2 - x^3 is y^2: the y-axis direction with multiplicity 2
    xmult, ymult, factors = tangent_cone_factors(parse_poly("y^2-x^3"), "x", "y")
    assert (xmult, ymult, factors) == (0, 2, [])


def test_tangent_cone_irrational():
    # x^2 + y^2 has no rational direction: one squarefree quadratic factor
    xmult, ymult, factors = tangent_cone_factors(parse_poly("x^2+y^2"), "x", "y")
    assert (xmult, ymult) == (0, 0)
    assert factors == [([Fraction(1), Fraction(0), Fraction(1)], 1)]


def test_tangent_cone_three_lines():
    # lowest part x*y*(x+y): directions 0, infinity and -1, all simple
    xmult, ymult, factors = tangent_cone_factors(
        parse_poly("x*y*(x+y)+x^4"), "x", "y"
    )
    assert (xmult, ymult) == (1, 1)
    assert factors == [([Fraction(1), Fraction(1)], 1)]


def test_blowup_chart_a_cusp():
    f = parse_poly("y^2-x^3", vars=("x", "y"))
    strict, mu = blowup_chart_a(f, "x", "y")
    assert mu == 2
    assert strict.terms == parse_poly("y^2-x", vars=("x", "y")).terms


def test_blowup_chart_a_axes():
    # x*y pulls back to u^2*v: the full exceptional power is the
    # multiplicity at the origin, here 2
    strict, mu = blowup_chart_a(parse_poly("x*y"), "x", "y")
    assert mu == 2
    assert strict.terms == parse_poly("y", vars=("x", "y")).terms


def test_blowup_chart_b_circle():
    strict, mu = blowup_chart_a(parse_poly("x^2+y^2"), "y", "x")
    assert mu == 2
    assert strict.terms == parse_poly("x^2+1", vars=("x", "y")).terms


def test_blowup_chart_a_translated_center():
    # center tau0 = -1 for the direction y = -x
    strict, mu = blowup_chart_a(
        parse_poly("x*y*(x+y)+x^4"), "x", "y", tau0=-1
    )
    assert mu == 3
    assert strict.eval_int((0, 0)) == 0


def test_arithmetic_and_derivative():
    f = parse_poly("x^2+y^2")
    g = parse_poly("x*y", vars=("x", "y"))
    assert max(sum(e) for e in (f * g).terms) == 4
    assert f.derivative("x").terms == {(1, 0): Fraction(2)}
    assert (f - f).is_zero()


def test_coefficients_are_integers():
    f = MultiPoly(("x",), {(1,): Fraction(4, 2), (0,): 3})
    assert f.terms == {(1,): 2, (0,): 3}
    assert all(type(c) is int for c in f.terms.values())
    with pytest.raises(ValueError, match="integer coefficients required"):
        MultiPoly(("x",), {(1,): Fraction(1, 2)})


@pytest.mark.parametrize(
    "text, expected",
    [("x^2*y+x*y^2", True), ("u^2+1", True), ("3", True), ("y^2", False),
     ("(x+y)^2*(x-y)", False), ("(2*y-x)^3+x^7*y^2", True)],
)
def test_is_squarefree(text, expected):
    assert is_squarefree(parse_poly(text)) is expected


def test_squarefree_test_takes_at_most_two_variables():
    with pytest.raises(ValueError):
        is_squarefree(parse_poly("x*y+z^2"))


def test_eval_int():
    f = parse_poly("x*y+z^2")
    assert f.eval_int((2, 3, 1)) == 7


def _value(f, point):
    """f at a point with rational coordinates, term by term."""
    total = Fraction(0)
    for e, c in f.terms.items():
        term = c
        for x, k in zip(point, e):
            term *= Fraction(x) ** k
        total += term
    return total


_exponents = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda e: sum(e) <= 6)
_rationals = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 5))


@settings(max_examples=300)
@given(
    terms=st.dictionaries(_exponents, st.integers(-9, 9).filter(bool), min_size=1, max_size=6),
    c=st.integers(-5, 5),
    s=st.integers(-5, 5).filter(bool),
    tau0=st.integers(-7, 7),
    int_point=st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    point=st.tuples(_rationals, _rationals),
)
def test_affine_substitution_and_charts(terms, c, s, tau0, int_point, point):
    f = MultiPoly(("x", "y"), terms)
    # x -> c + s x
    i, j = int_point
    assert _value(f.subs({"x": (c, s)}), int_point) == _value(f, (c + s * i, j))
    u, v = point
    # u^mu chart_a(f, tau0)(u, v) = f(u, u (v + tau0))
    ga, mu = blowup_chart_a(f, "x", "y", tau0)
    assert u**mu * _value(ga, point) == _value(f, (u, u * (v + tau0)))
    # v^mu chart_a(f, y, x)(u, v) = f(u v, v)
    gb, mu_b = blowup_chart_a(f, "y", "x")
    assert mu_b == mu
    assert v**mu * _value(gb, point) == _value(f, (u * v, v))


# -- the integer squarefree test and cone factors against sympy ---------------


def _ref_tangent_cone_factors(f, xname, yname):
    """sympy's factorization of the dehomogenised tangent cone, the
    reference for `tangent_cone_factors`."""
    cone = f.lowest_form()
    xi = f.vars.index(xname)
    yi = f.vars.index(yname)
    xmult = min(e[xi] for e in cone.terms)
    ymult = min(e[yi] for e in cone.terms)
    cone_tau = sympy.Poly.from_dict({(e[yi] - ymult,): c for e, c in cone.terms.items()}, sympy.Symbol("tau"))
    _, flist = sympy.factor_list(cone_tau)
    factors = [([int(c) for c in reversed(fac.all_coeffs())], int(mult)) for fac, mult in flist]
    return xmult, ymult, factors


def _ref_is_squarefree(f):
    """sympy's square-free decomposition, the reference for `is_squarefree`."""
    gens = sympy.symbols(list(f.vars))
    _, factors = sympy.Poly.from_dict(f.terms, *gens).sqf_list()
    return all(k == 1 for _, k in factors)


_small_terms = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.sampled_from([-3, -2, -1, 1, 2, 3]),
    min_size=1, max_size=4,
)
_factor_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.sampled_from([-3, -2, -1, 1, 2, 3]),
    min_size=2, max_size=3,
)
_bivariate = st.one_of(
    st.builds(lambda t: MultiPoly(("x", "y"), t), _small_terms),
    st.builds(lambda g, h: MultiPoly(("x", "y"), g) ** 2 * MultiPoly(("x", "y"), h),
              _factor_terms, _factor_terms),
)


@settings(max_examples=400)
@given(_bivariate)
def test_squarefree_and_cone_factors_match_sympy(f):
    assert is_squarefree(f) is _ref_is_squarefree(f)
    for names in (("x", "y"), ("y", "x")):
        assert tangent_cone_factors(f, *names) == _ref_tangent_cone_factors(f, *names)


@pytest.mark.parametrize("text, fallback", [
    ("y^2-x^3", False),
    ("x*y*(x+y)+x^4", False),
    ("(2*y-x)^2*(3*y+x)^3*(y^2+x^2)+y^9", False),
    ("(y^2-2*x^2)^2+x^5", False),  # Yun part (tau^2 - 2, 2)
    ("(y^2+x^2)^2*(y^2+3*x^2)+x^7", False),  # Yun parts of degree 2
    ("(y^2+x^2)*(y^2+2*x^2)+x^5", True),  # a squarefree quartic is left
    ("100003*y^2-x^2+x^3", True),  # lc beyond trial division
    ("12345678901234567891*y^3-2*x^3+x^4", True),  # a 20-digit coefficient
])
def test_cone_fallback_only_where_needed(text, fallback, monkeypatch):
    calls = []
    factor_list = sympy.factor_list
    monkeypatch.setattr(sympy, "factor_list", lambda *a: calls.append(a) or factor_list(*a))
    f = parse_poly(text, vars=("x", "y"))
    start = time.perf_counter()
    got = tangent_cone_factors(f, "x", "y")
    assert time.perf_counter() - start < 1
    assert len(calls) == fallback
    monkeypatch.undo()
    assert got == _ref_tangent_cone_factors(f, "x", "y")


def _random_germs(rng, count):
    """Squarefree f singular at the origin: 2-4 terms, exponents <= 4,
    coefficients +-1..3."""
    exps = [(i, j) for i in range(5) for j in range(5) if i + j >= 2]
    out = []
    while len(out) < count:
        terms = {e: rng.choice([-3, -2, -1, 1, 2, 3]) for e in rng.sample(exps, rng.randint(2, 4))}
        f = MultiPoly(("x", "y"), terms)
        if _ref_is_squarefree(f):
            out.append(f)
    return out


def _outcome(f):
    try:
        return resolve.resolve_germ(f)
    except (ValueError, ArithmeticError) as e:
        return type(e), str(e)


def test_resolve_matches_sympy_helpers(monkeypatch):
    from test_acceptance import CORPUS_2VAR

    germs = [parse_poly(t, vars=("x", "y")) for t in CORPUS_2VAR] + _random_germs(random.Random(18), 500)
    got = [_outcome(f) for f in germs]
    monkeypatch.setattr(resolve, "is_squarefree", _ref_is_squarefree)
    monkeypatch.setattr(resolve, "tangent_cone_factors", _ref_tangent_cone_factors)
    assert [_outcome(f) for f in germs] == got
