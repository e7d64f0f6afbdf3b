"""Laurent data: ring-homomorphism property of `laurent_at` and pinned JSON."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from igusa.context import PadicContext
from igusa.families import zeta_x2_ayl, zeta_xy_zi
from igusa.qpoly import QPoly
from igusa.radical import RadicalScalar
from igusa.zeta import ZetaRational, laurent_at, one_var_integral, u_expansion

# a zeta is a sum of products of one_var_integral(p, j, N, nu) terms
_FACTOR = st.tuples(st.integers(0, 2), st.integers(1, 4), st.integers(1, 4))
_SPEC = st.lists(st.lists(_FACTOR, min_size=1, max_size=2), min_size=1, max_size=2)


def _build(p, spec):
    z = ZetaRational(p, QPoly())
    for factors in spec:
        term = ZetaRational(p, QPoly.const(1))
        for j, N, nu in factors:
            term = term * one_var_integral(p, j, N, nu)
        z = z + term
    return z


def _coeff(exp, e):
    """The coefficient of U^e in a LaurentExpansion."""
    i = e + exp.pole_order
    if 0 <= i < len(exp.ucoeffs):
        return exp.ucoeffs[i]
    return RadicalScalar.from_rational(exp.p, 0)


@settings(max_examples=100)
@given(st.sampled_from([2, 3, 5]), _SPEC, _SPEC, st.integers(0, 2))
# coincident radii 1/1 and 2/2, and a double factor
@example(2, [[(0, 1, 1)]], [[(0, 2, 2)], [(1, 1, 1), (0, 1, 1)]], 0)
def test_laurent_at_is_a_ring_homomorphism(p, spec1, spec2, extra):
    z1, z2 = _build(p, spec1), _build(p, spec2)
    for s0, m in (z1 * z2).candidate_poles():
        # m bounds the pole order of z1 and of z2, so their expansions to
        # U^(extra + m) determine every product coefficient up to U^extra
        l1, l2 = laurent_at(z1, s0, extra + m), laurent_at(z2, s0, extra + m)
        lp = laurent_at(z1 * z2, s0, extra)
        assert lp.pole_order == l1.pole_order + l2.pole_order
        ls = laurent_at(z1 + z2, s0, extra)
        for e in range(-m, extra + 1):
            cauchy = sum(
                (_coeff(l1, i) * _coeff(l2, e - i)
                 for i in range(-l1.pole_order, e + l2.pole_order + 1)),
                RadicalScalar.from_rational(p, 0),
            )
            assert _coeff(lp, e) == cauchy
            assert _coeff(ls, e) == _coeff(l1, e) + _coeff(l2, e)


def _p_power(p, r):
    """Exact p^r = p^q w^rem in Q[w]/(w^M - p), M the denominator of r."""
    q, rem = divmod(r.numerator, r.denominator)
    return RadicalScalar(p, r.denominator, QPoly.monomial(Fraction(p) ** q, rem))


def _u_reference(poly, p, s0, K):
    """u_expansion term by term: sum_i c_i p^(-i s0) (-i)^k / k! as
    RadicalScalars, each term at its own radical degree, summed with lifting."""
    terms = [(_p_power(p, -i * s0) * c, -i)
             for i, c in enumerate(poly.coeffs) if c]
    zero = RadicalScalar.from_rational(p, 0)
    return [sum((w * Fraction(r**k, factorial(k)) for w, r in terms), zero)
            for k in range(K + 1)]


@st.composite
def _sparse_polys(draw):
    """Polynomials whose nonzero terms sit at multiples of a stride, so the
    radical degree of the expansion is often a proper divisor of s0's
    denominator; the empty list is the zero polynomial."""
    stride = draw(st.integers(1, 4))
    cs = draw(st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
                       max_size=6))
    out = [Fraction(0)] * (stride * len(cs))
    out[::stride] = cs
    return QPoly(out)


@settings(max_examples=300)
@given(st.sampled_from([2, 3, 5]), _sparse_polys(),
       st.builds(Fraction, st.integers(-8, 8), st.integers(1, 8)), st.integers(0, 3))
@example(3, QPoly(), Fraction(-1, 2), 2)
def test_u_expansion_matches_per_term_reference(p, poly, s0, K):
    out = u_expansion(poly, p, s0, K)
    M = lcm(1, *(_p_power(p, -i * s0).M
                 for i, c in enumerate(poly.coeffs) if c))
    assert len(out) == K + 1
    for got, want in zip(out, _u_reference(poly, p, s0, K)):
        assert got.M == want.M == M
        assert got.poly == want.poly


@settings(max_examples=100)
@given(st.sampled_from([2, 3, 5]), _SPEC, st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2))
def test_laurent_data_ignore_a_common_binomial(p, spec, N, nu, extra):
    """Multiplying numerator and denominator by 1 - p^(-nu) t^N leaves Z,
    unreduced, with the same pole orders, Laurent data and real poles."""
    z = _build(p, spec)
    binomial = QPoly([1] + [0] * (N - 1) + [Fraction(-1, p**nu)])
    bloated = ZetaRational(p, z.numerator * binomial, z.denominator + Counter({(N, nu): 1}))
    assert bloated == z
    for s0, _ in bloated.candidate_poles():
        a, b = laurent_at(z, s0, extra), laurent_at(bloated, s0, extra)
        assert a.pole_order == b.pole_order
        assert all(a.b(k) == b.b(k) for k in range(-extra, a.pole_order + 1))
        assert z.is_real_pole(s0) == bloated.is_real_pole(s0) == (a.pole_order > 0)


def _laurent_digest(z):
    """SHA-256 of pole order, every b(k).to_json() at extra = 4, and
    is_real_pole, at each candidate pole of z."""
    recs = []
    for s0, _ in z.candidate_poles():
        e = laurent_at(z, s0, extra=4)
        recs.append([str(s0), e.pole_order,
                     [e.b(k).to_json() for k in range(e.pole_order + 1)],
                     z.is_real_pole(s0)])
    return hashlib.sha256(json.dumps(recs, sort_keys=True).encode()).hexdigest()


LAURENT_DIGESTS = {
    ("xyzi", 2, 2): "586e7294dd7b2fab06bff193b0703f657aa24871d599658752e084af9e64fbd4",
    ("xyzi", 2, 3): "51de49e2420b09bbb5ba4b2db8340a15aaec68992090a184d56da5b010604c07",
    ("xyzi", 2, 4): "0d6e49e84815072492b95081410d31255599b3feedd9099855037d501049455d",
    ("xyzi", 2, 5): "59cde90c629fedeb7e2fff8cc5f3f9d730adcc92aa68ff54aeef3bac453d7f45",
    ("xyzi", 2, 6): "09b5097cf053790a37e6c757f4bf05afb72d68165a7aa256be59e96630500f0a",
    ("xyzi", 2, 7): "631b027102f9cb7ab0bedb92de5887a8b2708bb1aa17e3eff2a70804368360f3",
    ("xyzi", 2, 8): "e6933fb593810fd27f54d6156a4479a2799b2e2300f147d78bc3cf7522b57607",
    ("xyzi", 3, 2): "428848e1d41de863fc5f356d52eeded610a5aa5f45b57ff447942866046e3549",
    ("xyzi", 3, 3): "60cb240c3a4207028a58e35f416191273b8c87075c6595c0fec7ff6379385db8",
    ("xyzi", 3, 4): "07ad57d71c8793b3c1402eef9845e796804964e35f8589ba98a9d5814b413ac6",
    ("xyzi", 3, 5): "34c9a81d5f4e88f619fd3ff97ca8e134cc3b3d6feef0b31f9ee30bb49f216e5d",
    ("xyzi", 3, 6): "d3e60df41d445eb5db036fe57a0c63198b3ebbeed86559a5221d30d668e70d09",
    ("xyzi", 3, 7): "f2e38825ec76404c28222b290a5f188f6f2cefd3b472487b595d793351ed4e17",
    ("xyzi", 3, 8): "68ee35e0f998b8771caf9cb4638b63bb186b50009e2a42fda3c19854aaec3ec6",
    ("x2ayl", 3, 3): "c87e7bec3dba5f8497d97d2bda1a3e6e085d1d43a6017344220d9f4cae4b4242",
    ("x2ayl", 3, 4): "2ab70323982df8d7502e6cbd02fd20ba4ef97af9218bbdb26b6724a4af14cf67",
    ("x2ayl", 3, 5): "5e1c37cbf6b1da801bbedb180cec6f5da6df5bcd63586643ed076db023cc3867",
}


@pytest.mark.parametrize("family, p, k", sorted(LAURENT_DIGESTS))
def test_laurent_json_golden(family, p, k):
    if family == "xyzi":
        z = zeta_xy_zi(PadicContext(p, 3), k)
    else:
        z = zeta_x2_ayl(PadicContext(p, 2), 1, k)[2]
    assert _laurent_digest(z) == LAURENT_DIGESTS[family, p, k]


def _random_spec(rng):
    """1-3 products of 1-3 `one_var_integral` keys (j, N, nu)."""
    return [[(rng.randint(0, 2), rng.randint(1, 5), rng.randint(1, 5))
             for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(1, 3))]


def test_laurent_corpus_json_golden():
    """One digest over random sums of products of `one_var_integral`s at
    p = 2, 3, 5, 7, each Z unreduced and reduced: at every candidate pole and
    extra in {0, 1, 2, 4}, the pole order, every b(k).to_json() and
    is_real_pole.  The corpus reaches multiplicities, repeated factors and
    radical degrees M > 1 with other factors at t0 above and below 1."""
    rng = random.Random(30)
    h = hashlib.sha256()
    seen = Counter()
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7])
        z = _build(p, _random_spec(rng))
        for zz in (z, z.reduced()):
            seen["repeated factor"] += any(m > 1 for m in zz.denominator.values())
            for s0, m in zz.candidate_poles():
                seen["multiplicity"] += m > 1
                for N, nu in zz.denominator:
                    if nu * s0.denominator != -s0.numerator * N and s0.denominator > 1:
                        seen["p^-nu t0^N > 1" if nu < -s0 * N else "p^-nu t0^N < 1"] += 1
                for extra in (0, 1, 2, 4):
                    e = laurent_at(zz, s0, extra)
                    rec = [p, str(s0), extra, e.pole_order,
                           [e.b(k).to_json() for k in range(-extra, e.pole_order + 1)],
                           zz.is_real_pole(s0)]
                    h.update(json.dumps(rec, sort_keys=True).encode())
    assert all(seen[key] for key in ("repeated factor", "multiplicity",
                                     "p^-nu t0^N > 1", "p^-nu t0^N < 1")), seen
    assert h.hexdigest() == "12e46a21496e2e2242ca5f4cc900e5ead274383b7f77fbe451052c9d055c31c1"
