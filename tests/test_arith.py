"""Exact rational-function arithmetic, radical scalars, Laurent data."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from igusa.context import vp
from igusa.qpoly import QPoly
from igusa.radical import RadicalScalar, ResidueValue
from igusa.zeta import (
    ZetaRational,
    divide_binomial,
    eval_at_one,
    laurent_at,
    one_var_integral,
    poincare_from_zeta,
    series_coeffs,
    times_binomials,
)
from igusa.poly import parse_poly
from igusa.counting import count_naive


def test_qpoly_divmod():
    # (t^2 - 1) = (t - 1)(t + 1)
    a = QPoly([Fraction(-1), Fraction(0), Fraction(1)])
    b = QPoly([Fraction(-1), Fraction(1)])
    q, r = a.divmod(b)
    assert r.is_zero()
    assert q == QPoly([Fraction(1), Fraction(1)])


def test_negative_shift_raises():
    with pytest.raises(ValueError):
        QPoly([1, 2]).shift(-1)
    with pytest.raises(ValueError):
        ZetaRational(3, QPoly([0, 1])).shift(-3)


def _binomial(p, N, nu):
    """1 - p^(-nu) t^N, expanded."""
    return QPoly([1] + [0] * (N - 1) + [Fraction(-1, p**nu)])


@st.composite
def _binomial_cases(draw):
    """(p, N, nu, numerator); the numerator's denominators include
    non-powers of p such as p^a - 1, and half the numerators are
    multiples of the factor."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    N = draw(st.integers(1, 4))
    nu = draw(st.integers(1, 4))
    dens = st.sampled_from([1, p, p**2, p - 1, p**2 - 1, p**3 - 1, p * (p - 1)])
    coeffs = draw(st.lists(st.builds(Fraction, st.integers(-20, 20), dens), max_size=11))
    num = QPoly(coeffs)
    if draw(st.booleans()):
        num = num * _binomial(p, N, nu)
    return p, N, nu, num


@settings(max_examples=400)
@given(_binomial_cases())
def test_binomial_kernels_match_qpoly(case):
    p, N, nu, num = case
    f = _binomial(p, N, nu)
    cs, d = num.to_ints()
    assert QPoly.from_ints(cs, d) == num
    assert QPoly.from_ints(*times_binomials(cs, d, p, {(N, nu): 2})) == num * f * f
    q, r = num.divmod(f)
    quot = divide_binomial(cs, p, N, nu)
    assert (quot is not None) == r.is_zero()
    if quot is not None:
        assert QPoly.from_ints(quot, d) == q


def test_radical_scalar_root_identity():
    # w represents p^(1/M): w^M must reduce to p
    w = RadicalScalar(5, 6, [0, 1])
    w3 = w * w * w
    assert (w3 * w3).as_rational() == 5


def test_radical_scalar_inverse():
    x = RadicalScalar(3, 4, [2, 1, 0, Fraction(-1, 7)])
    one = x * x.inverse()
    assert one.as_rational() == 1


def test_radical_scalar_sign():
    # 3^(1/2) - 2 < 0 < 3^(1/2) - 1
    assert RadicalScalar(3, 2, [-2, 1]).sign() == -1
    assert RadicalScalar(3, 2, [-1, 1]).sign() == 1
    assert RadicalScalar(3, 2, []).sign() == 0
    # convergents of 2^(1/2) within 2^-41 of it, closer than the first 32-bit
    # interval resolves: a bound that takes the wrong root power fails here
    assert RadicalScalar(2, 2, [Fraction(1607521, 1136689), -1]).sign() == -1
    assert RadicalScalar(2, 2, [Fraction(3880899, 2744210), -1]).sign() == 1


def test_radical_scalar_rejects_too_many_coefficients():
    # trailing zeros count: the coefficient list is a_0, ..., a_{M-1}
    with pytest.raises(ValueError):
        RadicalScalar(3, 2, [1, 1, 0])


def test_radical_scalar_hash_agrees_with_eq():
    a = RadicalScalar(3, 2, [1, 1])
    assert a == a.lifted(4)
    assert hash(a) == hash(a.lifted(4))
    assert len({a, a.lifted(6)}) == 1
    assert hash(RadicalScalar(3, 4, [Fraction(5, 2)])) == hash(Fraction(5, 2))


def _fraction_product(p, M, xs, ys):
    """xs * ys in Q[w]/(w^M - p) by a double loop over Fractions."""
    out = [Fraction(0)] * M
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if i + j >= M:
                out[i + j - M] += x * y * p
            else:
                out[i + j] += x * y
    return out


def _assert_lowest_terms(q):
    assert q.den > 0
    assert gcd(q.den, *q.nums) == 1
    assert not q.nums or q.nums[-1] != 0


_FRACTIONS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def _radical_triples(draw):
    """(p, M, three coefficient lists of at most M Fractions each)."""
    p = draw(st.sampled_from([2, 3, 5]))
    M = draw(st.integers(1, 8))
    return p, M, [draw(st.lists(_FRACTIONS, max_size=M)) for _ in range(3)]


@settings(max_examples=300)
@given(_radical_triples(), st.integers(1, 3), _FRACTIONS,
       st.integers(-6, 6).filter(bool))
def test_radical_kernel_properties(case, k, c, m):
    p, M, (xs, ys, zs) = case
    a, b, e = (RadicalScalar(p, M, cs) for cs in (xs, ys, zs))
    assert a * b == RadicalScalar(p, M, _fraction_product(p, M, xs, ys))
    assert (a * b) * e == a * (b * e)
    assert a * (b + e) == a * b + a * e
    if not a.is_zero():
        assert a * a.inverse() == 1
        _assert_lowest_terms(a.inverse().poly)
    lifted = a.lifted(k * M)
    assert lifted == a and hash(lifted) == hash(a)
    nums, den = a.poly.to_ints()
    results = [a * b, a + b, -a, a * c, lifted]
    for q in [r.poly for r in results] + [
        a.poly + b.poly, a.poly * b.poly, a.poly.scale(c), a.poly.shift(k),
        QPoly.from_ints([m * x for x in nums] + [0] * k, m * den),
    ]:
        _assert_lowest_terms(q)
    assert QPoly.from_ints([m * x for x in nums] + [0] * k, m * den) == a.poly


def _sign(x):
    return (x > 0) - (x < 0)


@settings(max_examples=300)
@given(_radical_triples(), st.builds(Fraction, st.integers(1, 40), st.integers(1, 12)))
def test_radical_sign_properties(case, c):
    p, M, (xs, ys, _) = case
    a, b = RadicalScalar(p, M, xs), RadicalScalar(p, M, ys)
    assert (-a).sign() == -a.sign()
    assert (a * b).sign() == a.sign() * b.sign()
    if M == 1:
        assert a.sign() == _sign(sum(xs, Fraction(0)))
    # w = p^(1/M) > 0 and c > 0, so w - c has the sign of w^M - c^M
    assert (RadicalScalar.p_power(p, Fraction(1, M)) - c).sign() == _sign(p - c**M)


def test_one_var_integral_j0():
    z = one_var_integral(5, 0, 1, 1)
    assert z.numerator == QPoly.const(Fraction(4, 5))
    assert dict(z.denominator) == {(1, 1): 1}


def test_one_var_integral_j2():
    z = one_var_integral(3, 2, 1, 1)
    # (2/3) * (t^2/9) / (1 - t/3)
    assert z.numerator == QPoly.monomial(Fraction(2, 27), 2)
    assert dict(z.denominator) == {(1, 1): 1}


def test_one_var_integral_cube_counts():
    # f = x^3 on Z_2: M_i = 2^(i - ceil(i/3)), checked against enumeration
    z = one_var_integral(2, 0, 3, 1)
    counts = poincare_from_zeta(z, 1, 6).counts()
    f = parse_poly("x^3")
    for i in range(1, 7):
        expected = 2 ** (i - -(-i // 3))
        assert counts[i] == expected
        assert count_naive(f, 2, i) == expected


def test_laurent_single_factor():
    for p in (2, 3, 5, 7):
        z = one_var_integral(p, 0, 1, 1)
        le = laurent_at(z, Fraction(-1))
        assert le.pole_order == 1
        b1 = le.b(1)
        assert b1.logpow == 1
        assert b1.value.as_rational() == Fraction(p - 1, p)
        # (1 - 1/p) / (1 - e^(-U)) = (1 - 1/p) (1/U + 1/2 + ...), also when
        # the expansion stops at U^0
        assert laurent_at(z, Fraction(-1), extra=0).b(0).value == Fraction(p - 1, 2 * p)


def test_laurent_regular_point():
    z = one_var_integral(5, 0, 1, 1)
    le = laurent_at(z, Fraction(-1, 2))
    assert le.pole_order == 0
    assert le.b(1).is_zero()


def test_laurent_double_pole_product():
    p = 5
    z = one_var_integral(p, 0, 1, 1) * one_var_integral(p, 0, 1, 1)
    le = laurent_at(z, Fraction(-1))
    assert le.pole_order == 2
    assert le.b(2).value.as_rational() == Fraction((p - 1) ** 2, p * p)
    assert le.b(2).logpow == 2


def test_eval_at_one_single_factor():
    assert eval_at_one(one_var_integral(7, 0, 1, 1)) == 1


def test_eval_at_one_constant():
    z = ZetaRational(3, QPoly.const(Fraction(1, 2)), {})
    assert eval_at_one(z) == Fraction(1, 2)


def test_poincare_linear():
    z = one_var_integral(3, 0, 1, 1)
    assert poincare_from_zeta(z, 1, 2).counts() == [1, 1, 1]


def test_poincare_unit_constant():
    z = ZetaRational(5, QPoly.const(Fraction(1)), {})
    assert poincare_from_zeta(z, 2, 3).counts() == [1, 0, 0, 0]


def test_poincare_rejects_value_not_one():
    z = ZetaRational(3, QPoly.const(Fraction(1, 2)), {})
    with pytest.raises(ValueError):
        poincare_from_zeta(z, 1, 3)


def test_poincare_rejects_non_integer_counts():
    z = one_var_integral(3, 0, 1, 1)
    with pytest.raises(ValueError):
        poincare_from_zeta(z, 0, 3)


def test_zeta_mul_add_series_consistency():
    p = 3
    a = one_var_integral(p, 0, 2, 3)
    b = one_var_integral(p, 1, 1, 1)
    s = a + b
    prod = a * b
    k = 8
    sa, sb = series_coeffs(a, k), series_coeffs(b, k)
    ss, sp = series_coeffs(s, k), series_coeffs(prod, k)
    for i in range(k + 1):
        assert ss[i] == sa[i] + sb[i]
        assert sp[i] == sum(sa[j] * sb[i - j] for j in range(i + 1))


def test_zeta_json_round_trip():
    z = one_var_integral(3, 1, 2, 3) + one_var_integral(3, 0, 1, 1)
    data = z.to_json()
    back = ZetaRational.from_json(data)
    assert back.p == z.p
    assert back.numerator == z.numerator
    assert dict(back.denominator) == dict(z.denominator)
    assert isinstance(data["numerator"][0][0], str)


def test_residue_value_json():
    rv = ResidueValue(RadicalScalar(2, 2, [Fraction(1, 3)]), 1)
    data = rv.to_json()
    assert data["M"] == 2
    assert data["logpow"] == 1


def test_reduced_cancels_whole_factors():
    p = 5
    z = one_var_integral(p, 0, 2, 2)
    # multiply numerator and denominator by the same factor
    bloated = ZetaRational(
        p,
        z.numerator * QPoly([Fraction(1), Fraction(0), Fraction(0, 1)])
        - z.numerator * QPoly.monomial(Fraction(1, p), 1),
        dict(z.denominator) | {(1, 1): 1},
    )
    red = bloated.reduced()
    assert dict(red.denominator) == {(2, 2): 1}
    assert series_coeffs(red, 6) == series_coeffs(z, 6)


def test_vp():
    assert vp(1, 3) == 0
    assert vp(18, 3) == 2
    assert vp(-24, 2) == 3
    assert vp(Fraction(5, 4), 2) == -2
    assert vp(Fraction(-9, 10), 3) == 2
    with pytest.raises(ValueError):
        vp(0, 5)
    with pytest.raises(ValueError):
        vp(Fraction(0), 5)
