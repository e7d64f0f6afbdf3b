"""Exact rational-function arithmetic, radical scalars, Laurent data."""

import itertools
import json
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd
from random import Random

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from igusa.context import PadicContext, vp
from igusa.families import residue_x2_ayl_odd
from igusa.qpoly import QPoly, prs
from igusa.radical import RadicalScalar, ResidueValue, _root_bounds, over_binomial
from igusa.zeta import (
    ZetaRational,
    divide_binomial,
    eval_at_one,
    laurent_at,
    one_var_integral,
    poincare_from_zeta,
    series_coeffs,
    times_binomials,
    zeta_sum,
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


_INT_LISTS = st.lists(st.integers(-6, 6), max_size=5)


@settings(max_examples=300)
@given(_INT_LISTS, _INT_LISTS, _INT_LISTS, st.integers(1, 6), st.integers(1, 6))
def test_prs_gives_the_primitive_gcd_and_a_cofactor(a, b, c, da, db):
    # the common factor c makes most gcds nonconstant; da, db are denominators
    A = QPoly.from_ints(a, da) * QPoly.from_ints(c, 1)
    B = QPoly.from_ints(b, db) * QPoly.from_ints(c, 1)
    assume(not (A.is_zero() and B.is_zero()))
    g, s = prs(A, B)
    t = sympy.Symbol("t")
    ref = sympy.Poly(sympy.gcd(sympy.Poly(A.nums[::-1], t), sympy.Poly(B.nums[::-1], t)), t)
    assert g.den == 1 and list(g.nums) == [int(x) for x in ref.primitive()[1].all_coeffs()[::-1]]
    r = s * B - g
    assert r.is_zero() if A.is_zero() else r.divmod(A)[1].is_zero()


def test_negative_shift_raises():
    with pytest.raises(ValueError):
        QPoly([1, 2]).shift(-1)


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
    # four terms at M = 66: primitive remainders keep this fast
    cs = [0] * 66
    cs[0], cs[17], cs[40], cs[65] = Fraction(59, 37), Fraction(-43, 29), Fraction(31, 40), Fraction(-53, 11)
    x = RadicalScalar(5, 66, cs)
    assert x * x.inverse() == 1
    # p = 4 is not prime: w^2 - 4 = (w - 2)(w + 2) and w^4 - 4 = (w^2 - 2)(w^2 + 2),
    # so 2 - w, 2 + w and (w^2 - 2)(1 + w) have no inverse
    for cs in ([2, -1], [2, 1], [-2, -2, 1, 1]):
        with pytest.raises(ArithmeticError):
            RadicalScalar(4, len(cs), cs).inverse()


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


@settings(max_examples=300)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 70), st.data())
def test_radical_binomial_inverse(p, M, data):
    """The inverse of w^k (a + b w^r): k = 0 is a + b w^r, a = 0 a monomial,
    r = 0 a rational times w^k; M up to 70 as in the residues."""
    k = data.draw(st.integers(0, M - 1))
    r = data.draw(st.integers(0, M - 1 - k))
    a, b = data.draw(_FRACTIONS), data.draw(_FRACTIONS)
    cs = [Fraction(0)] * M
    cs[k] += a
    cs[k + r] += b
    x = RadicalScalar(p, M, cs)
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    inv = x.inverse()
    assert x * inv == 1 and inv * x == 1
    _assert_lowest_terms(inv.poly)
    assert inv.inverse() == x


@settings(max_examples=300)
@given(_radical_triples(), st.integers(0, 8), st.one_of(st.integers(-30, 30), _FRACTIONS))
def test_kernel_fast_paths_match_the_fraction_paths(case, k, c):
    """monomial, scale and rational + - on RadicalScalar read r's numerator
    and denominator; each agrees with the path through Fraction(r), or through
    a rational RadicalScalar lifted to M."""
    p, M, (xs, _, _) = case
    a = RadicalScalar(p, M, xs)
    for r in (c, 0, -3, Fraction(-2, 7)):
        assert QPoly.monomial(r, k).to_ints() == QPoly([0] * k + [r]).to_ints()
        f = Fraction(r)
        old = QPoly.from_ints([x * f.numerator for x in a.poly.nums], a.poly.den * f.denominator)
        assert a.poly.scale(r).to_ints() == old.to_ints()
        want = a + RadicalScalar.from_rational(p, r)
        minus = a + RadicalScalar.from_rational(p, -r)
        for got, ref in ((a + r, want), (r + a, want), (a - r, minus)):
            assert (got.M, got.poly.to_ints()) == (ref.M, ref.poly.to_ints())


def _bisection_root_bounds(p, M, bits):
    """_root_bounds by bisection on [0, p 2^bits]: about bits M-th powers."""
    target = p << (bits * M)
    lo, hi = 0, p << bits
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**M <= target:
            lo = mid
        else:
            hi = mid - 1
    return (lo, lo) if lo**M == target else (lo, lo + 1)


_PRIMES_TO_101 = [q for q in range(2, 102) if all(q % d for d in range(2, q))]


def test_root_bounds_match_bisection():
    """Every prime p <= 101 and M <= 80 at 32 bits, where sign starts, and at
    every precision sign refines to (64, ..., 4096 bits) where bisection's
    numbers stay below 2560 bits (M * bits <= 2560); M = 1 at every
    precision, where the root is exact and the bounds meet."""
    for bits in (32 << i for i in range(8)):
        for p in _PRIMES_TO_101:
            for M in range(1, 81):
                if M * bits <= 2560 or M == 1:
                    assert _root_bounds(p, M, bits) == _bisection_root_bounds(p, M, bits)
            assert _root_bounds(p, 1, bits) == (p << bits, p << bits)


@pytest.mark.parametrize("p, M", [(2, 80), (7, 66), (101, 80)])
def test_root_bounds_at_4096_bits(p, M):
    # bisection would take 4096 powers of 4096-bit numbers: check the two
    # inequalities that define its answer instead
    lo, hi = _root_bounds(p, M, 4096)
    assert hi == lo + 1 and lo**M <= p << (4096 * M) < hi**M


def test_sign_of_a_66_term_residue():
    """x^2 + a y^33 at p = 7: M = 66 and all 66 coefficients nonzero; the
    residue is positive, as a 60-digit evaluation at 7^(1/66) agrees."""
    for a in (1, -3):
        value = residue_x2_ayl_odd(PadicContext(7, 2), a, 16).value
        nums, den = value.poly.to_ints()
        assert value.M == 66 and len(nums) == 66 and all(nums)
        with localcontext() as ctx:
            ctx.prec = 60
            w = Decimal(7) ** (Decimal(1) / 66)
            approx = sum(Decimal(c) * w**i for i, c in enumerate(nums)) / den
        assert value.sign() == 1 and approx > 0


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
    w = RadicalScalar(p, M, [0, 1]) if M > 1 else RadicalScalar.from_rational(p, p)
    assert (w - c).sign() == _sign(p - c**M)


@settings(max_examples=300)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 24), st.integers(0, 23), st.integers(-3, 3),
       st.integers(-9, 9).filter(bool), st.integers(-9, 9), st.integers(0, 2**32))
@example(3, 12, 0, -2, 1, 1, 0)  # r = 0 with e < 0, and A = B
@example(3, 12, 6, 1, 2, -3, 0)  # gcd(r, M) = 6: six cycles s -> s + r
@example(2, 12, 8, -1, 5, 1, 0)  # four cycles, e < 0
@example(5, 12, 9, 2, -4, 7, 0)  # three cycles
def test_over_binomial_divides(p, M, r, e, a, b, seed):
    """(A - B w^r) Y / D == x for a random vector x, with A = 1, B = p^e
    (e >= 0) or A = p^-e, B = 1 (e < 0), as the Laurent path uses them, and
    with A = a, B = b."""
    r, rng = r % M, Random(seed)
    x = [rng.randint(-50, 50) for _ in range(M)]
    for A, B in ((1, p**e) if e >= 0 else (p**-e, 1), (a, b)):
        Y, D = over_binomial(p, M, r, A, B, x)
        binomial = [Fraction(0)] * M
        binomial[0] += A
        binomial[r] -= B
        if D:
            assert RadicalScalar(p, M, binomial) * RadicalScalar(p, M, QPoly.from_ints(Y, D)) == RadicalScalar(p, M, x)
        else:  # w^r is irrational for 0 < r < M, so A - B w^r = 0 needs r = 0
            assert (r, A) == (0, B)


def _reference_sign(x):
    """RadicalScalar.sign as it was before Horner's rule: each term a_i r^i
    bounded on its own, scaled by 2^(bits deg); (sign, bits it took)."""
    nums = x.poly.nums
    deg = len(nums) - 1
    bits = 32
    while True:
        lo, hi = _root_bounds(x.p, x.M, bits)
        tot_lo = tot_hi = 0
        pw_lo = pw_hi = 1
        for i, c in enumerate(nums):
            if c:
                sh = bits * (deg - i)
                lo_i, hi_i = c * pw_lo << sh, c * pw_hi << sh
                tot_lo += min(lo_i, hi_i)
                tot_hi += max(lo_i, hi_i)
            pw_lo, pw_hi = pw_lo * lo, pw_hi * hi
        if tot_lo > 0 or tot_hi < 0:
            return (1 if tot_lo > 0 else -1), bits
        bits *= 2


def _floor_root(n, M):
    """The integer part of n^(1/M), by bisection."""
    lo, hi = 0, 1 << (n.bit_length() // M + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid**M <= n else (lo, mid - 1)
    return lo


def test_sign_matches_the_term_bound_reference():
    """Horner's rule gives the reference's sign on random values, and on
    w^k - c with c within 10^-D of p^(k/M) from below and from above,
    D = 3..12, which take the reference past 32 bits."""
    rng = Random(31)
    refined = 0
    for _ in range(400):
        p, M = rng.choice([2, 3, 5, 7]), rng.randint(1, 12)
        x = RadicalScalar(p, M, [Fraction(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(rng.randint(0, M))])
        assert x.sign() == (_reference_sign(x)[0] if not x.is_zero() else 0)
    for p in (2, 3, 5, 7):
        for M in range(2, 9):
            for k in range(1, M):
                for D in (3, 6, 9, 12):
                    c = _floor_root(p**k * 10 ** (D * M), M)  # 10^D p^(k/M) is irrational
                    for num, want in ((c, 1), (c + 1, -1)):
                        x = RadicalScalar(p, M, [0] * k + [1]) - Fraction(num, 10**D)
                        sign, bits = _reference_sign(x)
                        assert x.sign() == sign == want
                        refined += bits > 32
    assert refined > 100


def test_one_var_integral_j0():
    z = one_var_integral(5, 0, 1, 1)
    assert z.numerator == QPoly.const(Fraction(4, 5))
    assert dict(z.denominator) == {(1, 1): 1}


def test_one_var_integral_j2():
    z = one_var_integral(3, 2, 1, 1)
    # (2/3) * (t^2/9) / (1 - t/3)
    assert z.numerator == QPoly.monomial(Fraction(2, 27), 2)
    assert dict(z.denominator) == {(1, 1): 1}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_one_var_integral_n0_is_the_series_limit(p):
    # N = 0: the constant sum_{k >= j} (1 - 1/p) p^(-k nu); each partial
    # sum to k = K leaves the tail c p^(-(K + 1 - j) nu)
    for j, nu in itertools.product([0, 1, 2], [1, 2]):
        z = one_var_integral(p, j, 0, nu)
        assert not z.denominator and z.numerator.degree == 0
        c = z.numerator.coeffs[0]
        partial = Fraction(0)
        for k in range(j, j + 6):
            partial += Fraction(p - 1, p) * Fraction(1, p ** (k * nu))
            assert c - partial == c * Fraction(1, p ** ((k + 1 - j) * nu))
    for N, nu in ((-1, 1), (1, 0), (0, 0)):
        with pytest.raises(ValueError):
            one_var_integral(p, 0, N, nu)


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
    with pytest.raises(ZeroDivisionError):  # 1 - p^0 t vanishes at t = 1
        eval_at_one(ZetaRational(7, QPoly.const(1), {(1, 0): 1}))


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


def test_mixed_primes_raise():
    a, b = one_var_integral(3, 0, 1, 1), one_var_integral(5, 0, 1, 1)
    with pytest.raises(ValueError, match="mixed primes"):
        a + b
    with pytest.raises(ValueError, match="mixed primes"):
        a * b


@pytest.mark.parametrize("p, n, message", [(1, 2, "not prime"), (9, 2, "not prime"), (3, 0, "must be >= 1")])
def test_padic_context_rejects(p, n, message):
    with pytest.raises(ValueError, match=message):
        PadicContext(p, n)


def test_zeta_json_round_trip():
    z = one_var_integral(3, 1, 2, 3) + one_var_integral(3, 0, 1, 1)
    data = z.to_json()
    back = ZetaRational.from_json(data)
    assert back.p == z.p
    assert back.numerator == z.numerator
    assert dict(back.denominator) == dict(z.denominator)
    assert isinstance(data["numerator"][0][0], str)


def test_zeta_json_reads_integer_pairs():
    """A negative denominator flips the sign; coefficients need not share one."""
    data = {"p": 3, "numerator": [["1", "-2"], ["-6", "-4"], ["0", "7"], ["5", "3"]],
            "denominator": [{"N": 1, "nu": 1}]}
    z = ZetaRational.from_json(data)
    assert z.numerator.coeffs == (Fraction(-1, 2), Fraction(3, 2), 0, Fraction(5, 3))
    assert z.to_json()["numerator"] == [["-1", "2"], ["3", "2"], ["0", "1"], ["5", "3"]]
    assert ZetaRational.from_json(z.to_json()).to_json() == z.to_json()
    with pytest.raises(ZeroDivisionError):
        ZetaRational.from_json({**data, "numerator": [["1", "2"], ["1", "0"]]})


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
    # a zero numerator cancels every factor
    zero = ZetaRational(p, QPoly(), {(2, 2): 2, (1, 1): 1}).reduced()
    assert zero.is_zero() and not zero.denominator


def test_reduced_ignores_factor_insertion_order():
    # 1 - t^2/4 = (1 - t/2)(1 + t/2): the factor (2, 2) cancels it whole
    # whichever of (1, 1) and (2, 2) entered the denominator first
    num = QPoly([1, 0, Fraction(-1, 4)])
    want = ZetaRational(2, QPoly.const(1), {(1, 1): 1}).to_json()
    for den in ({(1, 1): 1, (2, 2): 1}, {(2, 2): 1, (1, 1): 1}):
        assert ZetaRational(2, num, den).reduced().to_json() == want


def _sum(p, terms):
    """zeta_sum of ZetaRationals, each as its (cs, d, den) triple."""
    return zeta_sum(p, [(*z.numerator.to_ints(), z.denominator) for z in terms])


@st.composite
def _zeta_terms(draw):
    """Products of one_var_integral factors at p = 2 or 3, some times one
    binomial 1 - p^(-nu) t^N shared by the whole sum."""
    p = draw(st.sampled_from([2, 3]))
    shared = ZetaRational(p, _binomial(p, draw(st.integers(1, 4)), draw(st.integers(1, 4))))
    terms = []
    for factors, times_shared in draw(st.lists(st.tuples(
            st.lists(st.tuples(st.integers(0, 2), st.integers(1, 4), st.integers(1, 4)),
                     min_size=1, max_size=3), st.booleans()), min_size=1, max_size=4)):
        term = shared if times_shared else ZetaRational(p, QPoly.const(1))
        for j, N, nu in factors:
            term = term * one_var_integral(p, j, N, nu)
        terms.append(term)
    return p, terms


_TRIPLE = st.tuples(
    st.lists(st.integers(-30, 30), max_size=5),
    st.integers(1, 60),
    st.dictionaries(st.tuples(st.integers(1, 3), st.integers(1, 3)), st.integers(1, 3), max_size=3),
)


@settings(max_examples=300)
@given(st.sampled_from([2, 3, 5]), st.lists(_TRIPLE, min_size=1, max_size=5),
       st.randoms(use_true_random=False))
@example(2, [([1, 2], 3, {}), ([0, 1], 1, {(1, 1): 2}), ([5], 4, {(1, 1): 1, (2, 1): 3})], Random(0))
def test_zeta_sum_of_integer_triples(p, terms, rnd):
    # the one integer sum against Fractions, term by term, at t with |t| < 1
    # (no factor 1 - p^(-nu) t^N vanishes there); in any order; and `+`
    total = zeta_sum(p, terms)
    for t in (Fraction(0), Fraction(1, 7), Fraction(-2, 5), Fraction(3, 4)):
        want = Fraction(0)
        for cs, d, den in terms:
            value = Fraction(sum(c * t**i for i, c in enumerate(cs)), d)
            for (N, nu), m in den.items():
                value /= (1 - t**N / p**nu) ** m
            want += value
        got = Fraction(sum(c * t**i for i, c in enumerate(total.numerator.nums)), total.numerator.den)
        for (N, nu), m in total.denominator.items():
            got /= (1 - t**N / p**nu) ** m
        assert got == want
    want = json.dumps(total.to_json())
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    assert json.dumps(zeta_sum(p, shuffled).to_json()) == want
    pairwise = ZetaRational(p, QPoly())
    for cs, d, den in shuffled:
        pairwise = pairwise + ZetaRational(p, QPoly.from_ints(cs, d), den)
    assert json.dumps(pairwise.to_json()) == want


@settings(max_examples=300)
@given(_zeta_terms(), st.randoms(use_true_random=False))
def test_reduced_json_ignores_summation_order(case, rnd):
    p, terms = case
    total = _sum(p, terms)
    want = json.dumps(total.reduced().to_json())
    rnd.shuffle(terms)
    pairwise = terms[0]
    for z in terms[1:]:
        pairwise = pairwise + z
    factors = list(total.denominator.items())
    rnd.shuffle(factors)
    for z in (_sum(p, terms), pairwise, ZetaRational(p, total.numerator, dict(factors))):
        assert json.dumps(z.reduced().to_json()) == want


@settings(max_examples=200)
@given(_zeta_terms(), st.builds(Fraction, st.integers(-9, 0), st.integers(1, 6)))
def test_multiplicity_counts_candidate_poles(case, s0):
    # the integer count of factors with -nu/N = s0, and candidate_poles
    # built from it, against one Fraction per factor
    z = _sum(*case)
    ref = Counter()
    for (N, nu), m in z.denominator.items():
        ref[Fraction(-nu, N)] += m
    assert z.candidate_poles() == sorted(ref.items())
    for s in [s0, *ref]:
        assert z.multiplicity(s) == ref[s]


@settings(max_examples=200)
@given(_zeta_terms(), st.integers(1, 4), st.integers(0, 3))
def test_substitute_moves_each_series_term(case, N0, nu0):
    # Z(p^(-nu0) t^N0): the coefficient of t^i moves to t^(N0 i) times
    # p^(-nu0 i), and each factor (N, nu) becomes (N N0, nu + nu0 N)
    p, terms = case
    z = _sum(p, terms)
    sub = z.substitute(N0, nu0)
    K = 6
    want = [Fraction(0)] * (N0 * K + 1)
    for i, c in enumerate(series_coeffs(z, K)):
        want[N0 * i] = c * Fraction(1, p ** (nu0 * i))
    assert series_coeffs(sub, N0 * K) == want
    assert dict(sub.denominator) == {(N * N0, nu + nu0 * N): m for (N, nu), m in z.denominator.items()}


@settings(max_examples=100)
@given(_zeta_terms(), st.integers(1, 3), st.integers(0, 2))
def test_operations_leave_their_operands_unchanged(case, N0, nu0):
    # the descent shares each one_var_integral value across calls, which is
    # safe only while no operation mutates an operand
    p, terms = case
    total = _sum(p, terms)
    operands = [*terms, total, total * terms[0], one_var_integral(p, 1, 0, 1)]
    before = [json.dumps(z.to_json()) for z in operands]
    for a, b in itertools.product(operands, repeat=2):
        a + b, a * b
    _sum(p, operands)
    for z in operands:
        z.substitute(N0, nu0), z.reduced()
        eval_at_one(z), series_coeffs(z, 6)
        for s0, _ in z.candidate_poles():
            laurent_at(z, s0), z.is_real_pole(s0)
    assert [json.dumps(z.to_json()) for z in operands] == before


def test_substitute_pins_the_factor_map():
    z = ZetaRational(3, QPoly([1, 2]), {(1, 1): 2, (2, 3): 1})
    sub = z.substitute(3, 2)
    assert dict(sub.denominator) == {(3, 3): 2, (6, 7): 1}
    assert sub.numerator == QPoly([1, 0, 0, Fraction(2, 9)])
    assert ZetaRational(3, QPoly()).substitute(2, 1).is_zero()


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
