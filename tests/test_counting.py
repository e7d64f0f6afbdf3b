"""Brute-force and Hensel-descent solution counting mod p^i."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from igusa import counting
from igusa.counting import (
    _eval_mod,
    count_hensel,
    count_naive,
    poincare_truncation,
    verify_zeta_against_counts,
)
from igusa.context import PadicContext
from igusa.families import zeta_xy_zi
from igusa.poly import MultiPoly, parse_poly
from igusa.zeta import one_var_integral, poincare_from_zeta


def test_naive_linear():
    assert count_naive(parse_poly("x"), 3, 2) == 1


def test_naive_two_lines():
    # -1 is a square mod 5: the zero set of x^2+y^2 mod 5 is two lines
    assert count_naive(parse_poly("x^2+y^2"), 5, 1) == 9


def test_naive_hyperbola():
    assert count_naive(parse_poly("x*y"), 3, 2) == 21


def test_naive_budget():
    with pytest.raises(ValueError, match=r"exceeds budget 100000000$"):
        count_naive(parse_poly("x*y+z^2"), 101, 5)


def test_hensel_three_vars():
    f = parse_poly("x*y+z^2")
    assert count_hensel(f, 3, 3) == count_naive(f, 3, 3)


def test_hensel_deep_linear():
    assert count_hensel(parse_poly("x"), 2, 10) == 1


def test_hensel_no_simple_zeros():
    f = parse_poly("x^2+y^2")
    assert count_hensel(f, 7, 2) == count_naive(f, 7, 2)


def test_hensel_matches_naive_corpus():
    corpus = ["y^2-x^3", "x^2+y^3", "x*y*(x+y)+x^4", "x^2+y^2", "x*y+z^2"]
    for text in corpus:
        f = parse_poly(text)
        for p in (2, 3, 5):
            for i in (1, 2, 3):
                assert count_hensel(f, p, i) == count_naive(f, p, i), (text, p, i)


def test_poincare_truncation_circle():
    M = poincare_truncation(parse_poly("x^2+y^2"), 3, 2)
    assert M.counts() == [1, 1, 9]


def test_poincare_truncation_unit():
    M = poincare_truncation(parse_poly("1", vars=("x",)), 5, 3)
    assert M.counts() == [1, 0, 0, 0]


def test_verify_success_xy_z2():
    ctx = PadicContext(3, 3)
    z = zeta_xy_zi(ctx, 2)
    ok, predicted, actual = verify_zeta_against_counts(z, parse_poly("x*y+z^2"), 3)
    assert ok
    assert predicted == actual


def test_verify_success_linear():
    z = one_var_integral(3, 0, 1, 1)
    ok, predicted, actual = verify_zeta_against_counts(z, parse_poly("x"), 5)
    assert ok
    assert actual == [1] * 6


def test_verify_detects_wrong_pairing():
    ctx = PadicContext(3, 3)
    z = zeta_xy_zi(ctx, 2)
    # the counts of x*y+z^3 first deviate from the i=2 formula at level 3
    ok, predicted, actual = verify_zeta_against_counts(z, parse_poly("x*y+z^3"), 3)
    assert not ok
    assert predicted != actual


def test_verify_xy_z2_to_p7():
    z = zeta_xy_zi(PadicContext(3, 3), 2)
    ok, predicted, actual = verify_zeta_against_counts(z, parse_poly("x*y+z^2"), 7)
    assert ok
    assert len(actual) == 8


# naive points per (p, i) in the property test: every pair but p = 5, i = 3
# in three variables
_PROPERTY_BUDGET = 2 * 10**5


@st.composite
def _small_polys(draw, min_vars=2, max_vars=3):
    """Integer polynomials in min_vars to max_vars variables with up to 4
    terms of exponents <= 3; half are g^2 h, so non-reduced ones are drawn
    too."""
    names = ("x", "y", "z")[: draw(st.integers(min_vars, max_vars))]
    exps = st.tuples(*[st.integers(0, 3)] * len(names))
    terms = st.dictionaries(exps, st.integers(-6, 6).filter(bool), min_size=1, max_size=4)
    f = MultiPoly(names, draw(terms))
    if draw(st.booleans()):
        f = f * f * MultiPoly(names, draw(terms))
    return f


@settings(max_examples=120)
@given(_small_polys())
def test_hensel_matches_naive_on_random_polynomials(f):
    for p in (2, 3, 5):
        levels = [i for i in range(4) if p ** (f.nvars * i) <= _PROPERTY_BUDGET]
        naive = [count_naive(f, p, i) for i in levels]
        assert [count_hensel(f, p, i) for i in levels] == naive, (f, p)


_M = 2**31 - 1


# The int64 bound: four coefficients -1 (m - 1 once reduced) at coordinates
# m - 1 and m - 2 make c*x products near 2^62, whose unreduced sum wraps past
# 2^63.  Drawn examples do not reach it.  m = 2^31 alone cannot show the
# wraparound, since 2^64 = 0 mod 2^31, hence m = 2^31 - 1.
@settings(max_examples=200)
@example(f=parse_poly("-x-y-z-x*y"), rows=[(_M - 1, _M - 2, _M - 1), (_M - 2, _M - 1, _M - 2)],
         m=_M, big_m=2**31)
@example(f=parse_poly("-x*y-y*z-z*x-x^2"), rows=[(2**31 - 1, 2**31 - 2, 2**31 - 1)],
         m=2**31, big_m=2**64 - 1)
@given(
    f=_small_polys(),
    rows=st.lists(st.tuples(*[st.integers(-(10**6), 10**6)] * 3), min_size=1, max_size=8),
    m=st.integers(1, 2**31),
    big_m=st.integers(2**31, 10**30),
)
def test_eval_mod_matches_eval_int(f, rows, m, big_m):
    pts = [row[: f.nvars] for row in rows]
    for modulus, dtype in ((m, np.int64), (big_m, object)):
        values = _eval_mod(f, np.array(pts, dtype=dtype).T, modulus)
        got = np.broadcast_to(values, len(pts))
        assert [int(v) for v in got] == [f.eval_int(pt) % modulus for pt in pts]


def _lift_every_digit_vector(f, p, imax):
    """M_0..M_imax by lifting every zero mod p^(j-1) by every digit vector
    times p^(j-1) and testing each lift mod p^j: no smooth rule, no
    Taylor shortcut."""
    n = f.nvars
    digits = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64)
    counts, zeros = [1], np.zeros((1, n), dtype=np.int64)
    for j in range(1, imax + 1):
        lifts = (zeros[:, None] + digits * p ** (j - 1)).reshape(-1, n)
        values = np.broadcast_to(_eval_mod(f, lifts.T, p**j), len(lifts))
        zeros = lifts[values == 0]
        counts.append(len(zeros))
    return counts


@st.composite
def _deep_cases(draw, nvars=(2, 3), primes=(2, 3)):
    """(f, p): a small polynomial, the constant p, or f free of its last
    variable."""
    f, p = draw(_small_polys(*nvars)), draw(st.sampled_from(primes))
    kind = draw(st.sampled_from(["poly", "constant", "free"]))
    if kind == "constant":
        f = MultiPoly(f.vars, {(0,) * f.nvars: p})
    elif kind == "free":
        f = MultiPoly(f.vars, {e[:-1] + (0,): c for e, c in f.terms.items()})
    return f, p


@settings(max_examples=150)
@given(_deep_cases())
def test_hensel_matches_lifting_every_digit_vector(case):
    # levels count_naive cannot afford: k up to 6 in 2 variables, 4 in 3;
    # k >= 4 puts the last level on Taylor's formula
    f, p = case
    k = 6 if f.nvars == 2 else 4
    assert poincare_truncation(f, p, k).counts() == _lift_every_digit_vector(f, p, k), (f, p)


@settings(max_examples=100)
@given(st.one_of(_deep_cases(nvars=(1, 1), primes=(2, 3, 5)), _deep_cases(nvars=(2, 2), primes=(5,))))
def test_hensel_matches_lifting_every_digit_vector_in_one_variable_and_at_p5(case):
    f, p = case
    k = 8 if f.nvars == 1 else 4
    assert poincare_truncation(f, p, k).counts() == _lift_every_digit_vector(f, p, k), (f, p)


def test_hensel_square_object_dtype():
    # p^33 > 2^31 puts the pass on object arrays; x^2 = 0 mod 2^i iff
    # v(x) >= ceil(i/2), so M_i = 2^floor(i/2)
    counts = poincare_truncation(parse_poly("x^2"), 2, 33).counts()
    assert counts == [2 ** (i // 2) for i in range(34)]


def test_hensel_memory_stays_blocked():
    # p^n = 101^3 digit vectors: level 1 and the lifts of (0, 0, 0) at level
    # 3 stay in _BLOCK-row blocks, and the 31^2 survivors of level 3 at
    # p = 31 are not lifted at the last level (64 MB and 734 MB when every
    # level was lifted as one array)
    f = parse_poly("x*y+z^2")
    for p, k in ((101, 2), (101, 3), (31, 4)):
        tracemalloc.start()
        try:
            poincare_truncation(f, p, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10**6, (p, k)


@pytest.mark.parametrize("p", [31, 101])
def test_hensel_large_p_matches_zeta(p):
    # the last level of p^3 lifts per survivor is counted, not enumerated
    predicted = poincare_from_zeta(zeta_xy_zi(PadicContext(p, 3), 2), 3, 4).counts()
    assert poincare_truncation(parse_poly("x*y+z^2"), p, 4).counts() == predicted


def test_hensel_budget(monkeypatch):
    # at p = 3, x*y+z^2 has 1, 9 and 99 survivors at levels 2, 3 and 4, so
    # level 5 would test 99 * 27 = 2673 lifts
    f = parse_poly("x*y+z^2")
    monkeypatch.setattr(counting, "NAIVE_BUDGET", 1000)
    with pytest.raises(ValueError, match=r"^level 5: 2673 lifts exceed budget 1000$"):
        poincare_truncation(f, 3, 6)
    # a last level counted by Taylor's formula builds no lifts
    assert poincare_truncation(f, 3, 5).counts() == [1, 9, 99, 891, 8505, 76545]


def test_hensel_budget_at_level_1(monkeypatch):
    # level 1 enumerates all p^n digit vectors: refused before any is built
    monkeypatch.setattr(counting, "NAIVE_BUDGET", 26)
    with pytest.raises(ValueError, match=r"^level 1: 27 lifts exceed budget 26$"):
        poincare_truncation(parse_poly("x*y+z^2"), 3, 2)
    # f = 3 (x*y+z^2): levels 0 and 1 are closed form, the pass on g refuses level 2
    with pytest.raises(ValueError, match=r"^level 2: 27 lifts exceed budget 26$"):
        poincare_truncation(parse_poly("3*x*y+3*z^2"), 3, 2)
    assert poincare_truncation(parse_poly("3*x*y+3*z^2"), 3, 1).counts() == [1, 27]


def test_hensel_refuses_one_level_ahead():
    # every zero of x^2 mod 101 is singular and a zero mod 101^2, so level 2
    # keeps 101^2 survivors and level 3 would test 101^2 * 101^3 lifts
    f = parse_poly("x^2+0*y+0*z")
    assert poincare_truncation(f, 101, 2).counts() == [1, 10201, 10510100501]
    with pytest.raises(ValueError, match=r"^level 3: 10510100501 lifts exceed budget 100000000$"):
        poincare_truncation(f, 101, 3)


def test_hensel_refuses_before_building_the_level_below(monkeypatch):
    # at p = 7, k = 8, x*y+z^2 would test 2254037191 lifts at level 7; the
    # survivors of level 6 are counted by Taylor's formula from those of
    # level 5, so level 6 (its zeros mod 7^6) is never built
    moduli, zeros = [], counting._zeros
    monkeypatch.setattr(counting, "_zeros", lambda f, pts, m: moduli.append(m) or zeros(f, pts, m))
    with pytest.raises(ValueError, match=r"^level 7: 2254037191 lifts exceed budget 100000000$"):
        poincare_truncation(parse_poly("x*y+z^2"), 7, 8)
    assert max(moduli) == 7**5


def test_hensel_divides_out_the_content():
    # f = p^w g: levels up to w count every point, the rest p^(n w) times
    # g's counts.  A constant 2^30 kept 8^8 rows of survivors (899 MB)
    f = MultiPoly(("x", "y", "z"), {(0, 0, 0): 2**30})
    tracemalloc.start()
    try:
        counts = poincare_truncation(f, 2, 10).counts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [8**i for i in range(11)]
    assert peak < 8 * 10**6
    assert poincare_truncation(MultiPoly(("x", "y"), {(0, 0): 12}), 2, 5).counts() == [1, 4, 16, 0, 0, 0]


@settings(max_examples=100)
@given(_deep_cases(), st.integers(0, 2))
def test_hensel_with_content_matches_lifting_every_digit_vector(case, w):
    f, p = case
    f = MultiPoly(f.vars, {e: c * p**w for e, c in f.terms.items()})
    k = 6 if f.nvars == 2 else 4
    assert poincare_truncation(f, p, k).counts() == _lift_every_digit_vector(f, p, k), (f, p, w)


def test_hensel_refusal_names_the_level_of_f(monkeypatch):
    # 9 (x*y+z^2) at p = 3 refuses g's level 5 as f's level 7
    monkeypatch.setattr(counting, "NAIVE_BUDGET", 1000)
    with pytest.raises(ValueError, match=r"^level 7: 2673 lifts exceed budget 1000$"):
        poincare_truncation(parse_poly("9*x*y+9*z^2"), 3, 8)


def test_digit_blocks_are_read_only():
    with pytest.raises(ValueError):
        counting._digit_block(3, 3, 0)[0, 0] = 1
