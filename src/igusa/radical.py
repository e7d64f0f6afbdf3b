"""Exact arithmetic in Q(p^(1/M)) and residue values carrying log p powers.

Elements are represented in the quotient Q[w] / (w^M - p), each by its
residue: a QPoly in w of degree < M.  For p prime the polynomial w^M - p is
irreducible over Q (Eisenstein), so the quotient is a field and an element
is zero exactly when its residue is.  `inverse` is the geometric sum
`geometric` on integers for w^k (a + b w^r), and the cofactor of `qpoly.prs`
against w^M - p for the rest.  `over_binomial` divides a vector by
A - B w^r in O(M).  `sign` runs Horner's rule on an interval around p^(1/M)
from integer Newton iteration.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, log2
from typing import Sequence

from .qpoly import QPoly, convolve, prs


class RadicalScalar:
    """A number a_0 + a_1 p^(1/M) + ... + a_{M-1} p^((M-1)/M), exact."""

    __slots__ = ("p", "M", "poly")

    def __init__(self, p: int, M: int, coeffs: Sequence[Fraction | int] | QPoly) -> None:
        """coeffs: at most M of a_0, ..., a_{M-1}, or the residue as a QPoly."""
        if M < 1:
            raise ValueError("M must be positive")
        if not isinstance(coeffs, QPoly):
            if len(coeffs) > M:
                raise ValueError("too many coefficients")
            coeffs = QPoly(coeffs)
        self.p = p
        self.M = M
        self.poly = coeffs

    @classmethod
    def from_rational(cls, p: int, r: Fraction | int) -> "RadicalScalar":
        return cls(p, 1, [r])

    def lifted(self, M: int) -> "RadicalScalar":
        """Rewrite in Q[w']/(w'^M - p) where self.M divides M."""
        if M == self.M:
            return self
        if M % self.M:
            raise ValueError("incompatible radical degrees")
        k = M // self.M
        cs = [0] * (k * len(self.poly.nums))
        cs[::k] = self.poly.nums
        return RadicalScalar(self.p, M, QPoly.from_ints(cs, self.poly.den))

    def _common(self, other: "RadicalScalar") -> tuple["RadicalScalar", "RadicalScalar"]:
        if other.p != self.p:
            raise ValueError("mixed primes")
        M = lcm(self.M, other.M)
        return self.lifted(M), other.lifted(M)

    def __add__(self, other) -> "RadicalScalar":
        if isinstance(other, (int, Fraction)):
            return RadicalScalar(self.p, self.M, self.poly + QPoly.const(other))
        a, b = self._common(other)
        return RadicalScalar(a.p, a.M, a.poly + b.poly)

    __radd__ = __add__

    def __neg__(self) -> "RadicalScalar":
        return RadicalScalar(self.p, self.M, -self.poly)

    def __sub__(self, other) -> "RadicalScalar":
        return self + -other

    def __mul__(self, other) -> "RadicalScalar":
        if isinstance(other, (int, Fraction)):
            return RadicalScalar(self.p, self.M, self.poly.scale(other))
        a, b = self._common(other)
        M, p = a.M, a.p
        # the product has degree < 2M - 1; fold w^(M+k) = p w^k once
        cs = convolve(a.poly.nums, b.poly.nums)
        lo = cs[:M]
        for k, c in enumerate(cs[M:]):
            lo[k] += p * c
        return RadicalScalar(p, M, QPoly.from_ints(lo, a.poly.den * b.poly.den))

    __rmul__ = __mul__

    def inverse(self) -> "RadicalScalar":
        """Field inverse.  One or two terms, w^k (A - B w^r) / D, in closed form
        (`geometric`, with w^-k = w^(M-k) / p).  Three or more terms: the
        cofactor s of `prs` against w^M - p, with s a = 1 mod w^M - p."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        nums, M, p = self.poly.nums, self.M, self.p
        k, *rest = [i for i, c in enumerate(nums) if c]
        if len(rest) > 1:
            g, s = prs(QPoly.from_ints([-p] + [0] * (M - 1) + [1], 1), self.poly)
            # g is 1, a primitive nonzero constant (the modulus is irreducible),
            # and s has degree M - deg(the remainder before g) < M: it is reduced
            if g.degree != 0:
                raise ArithmeticError("modulus not coprime to element")
            return RadicalScalar(p, M, s)
        r, B = (rest[0] - k, -nums[-1]) if rest else (0, 0)
        vec, D = geometric(p, M, r, M - k, nums[k], B)
        if not D:
            raise ArithmeticError("modulus not coprime to element")
        return RadicalScalar(p, M, QPoly.from_ints([self.poly.den * c for c in vec], p * D))

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RadicalScalar.from_rational(self.p, other)
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        a, b = self._common(other)
        return a.poly == b.poly

    def __hash__(self) -> int:
        # equal values have equal residues at the least radical degree M // g
        nums = self.poly.nums
        g = gcd(self.M, *(i for i, c in enumerate(nums) if c))
        if g == self.M:
            return hash(self.as_rational())
        return hash((self.p, self.M // g, nums[::g], self.poly.den))

    def as_rational(self) -> Fraction:
        """The value as a Fraction, or raise if irrational."""
        if self.poly.degree > 0:
            raise ValueError("not rational")
        return self.poly.truncated(0)[0]

    def sign(self) -> int:
        """Sign of the real value: Horner's rule on r = p^(1/M) in [lo, hi] / 2^bits,
        rounded outward, bits doubling until the value's interval excludes 0."""
        if self.is_zero():
            return 0
        *rest, top = self.poly.nums  # the denominator is positive
        bits = 32
        while bits <= 4096:
            lo, hi = _root_bounds(self.p, self.M, bits)
            vlo = vhi = top << bits
            for c in reversed(rest):  # v -> v r + c; lo > 0, so v's sign picks the end
                c <<= bits
                vlo = (vlo * (lo if vlo >= 0 else hi) >> bits) + c
                vhi = -(-vhi * (hi if vhi >= 0 else lo) >> bits) + c
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            bits *= 2
        raise ArithmeticError("sign refinement did not converge")

    def __repr__(self) -> str:
        if self.poly.degree <= 0:
            return str(self.as_rational())
        terms = []
        for i, c in enumerate(self.poly.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                terms.append(f"{c}*{self.p}^({i}/{self.M})")
        return " + ".join(terms)


def geometric(p: int, M: int, r: int, k: int, A: int, B: int) -> tuple[list[int], int]:
    """(vec, D) with w^k / (A - B w^r) = sum vec[s] w^s / D in Q[w]/(w^M - p),
    for integers A != 0, 0 <= r <= M and k >= 0: with n = M / gcd(r, M), the
    geometric sum (A - B w^r) sum_(j<n) A^(n-1-j) B^j w^(rj) is the integer
    D = A^n - B^n p^(rn/M).  D = 0 means A - B w^r is zero."""
    n = M // gcd(r, M)
    e, s = divmod(k, M)
    vec, c = [0] * M, A ** (n - 1) * p**e
    for _ in range(n):  # c w^s = A^(n-1-j) B^j w^(rj+k); the s are distinct
        vec[s], c = c, c * B // A
        s += r
        if s >= M:
            s, c = s - M, c * p
    return vec, A**n - B**n * p ** (r * n // M)


def over_binomial(p: int, M: int, r: int, A: int, B: int, x: list[int]) -> tuple[list[int], int]:
    """(Y, D) with (A - B w^r) Y = D x, x an integer vector, A != 0, 0 <= r <= M:
    Y = x sum_(j<n) A^(n-1-j) B^j w^(rj) as in `geometric`, in O(M).  On each
    cycle s -> s + r mod M, a Horner sum gives Y at its start, and
    A Y_(s+r) = D x_(s+r) + B lam Y_s, lam = p on a wrap past M, the rest."""
    g = gcd(r, M)
    n = M // g
    D, Bp = A**n - B**n * p ** (r // g), B * p
    Y = [0] * M
    for s0 in range(g):
        h, s, a = 0, s0, 1
        for _ in range(n):  # Horner from s0 + r round to s0, a = A^(i-1) at s_i
            s, f = (s + r - M, Bp) if s + r >= M else (s + r, B)
            h, a = f * h + a * x[s], a * A
        Y[s0] = h
        for _ in range(n - 1):
            s, f = (s + r - M, Bp) if s + r >= M else (s + r, B)
            Y[s] = h = (D * x[s] + f * h) // A
    return Y, D


@lru_cache(maxsize=256)
def _root_bounds(p: int, M: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits * p^(1/M) <= hi with hi - lo = 1 (or equal).
    Cached, as `sign` asks for the same few (p, M, bits) on every call."""
    target = p << (bits * M)
    # e = log2 of the root, good to ~40 bits; the first Newton step lands at or
    # above the floor root (AM-GM), later ones decrease strictly down to it
    e = log2(p) / M + bits
    sh = max(int(e) - 52, 0)
    x = int(2 ** (e - sh)) << sh
    lo = ((M - 1) * x + target // x ** (M - 1)) // M
    while (x := ((M - 1) * lo + target // lo ** (M - 1)) // M) < lo:
        lo = x
    if lo**M == target:
        return lo, lo
    return lo, lo + 1


class ResidueValue:
    """A residue b_{-k} = value * (log p)^(-logpow), value a RadicalScalar."""

    __slots__ = ("value", "logpow")

    def __init__(self, value: RadicalScalar, logpow: int) -> None:
        self.value = value
        self.logpow = logpow

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResidueValue):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.logpow == other.logpow and self.value == other.value

    def __repr__(self) -> str:
        if self.logpow == 0:
            return repr(self.value)
        return f"({self.value!r}) / (log {self.value.p})^{self.logpow}"

    def to_json(self) -> dict:
        cs, d = self.value.poly.to_ints()
        cs += (0,) * (self.value.M - len(cs))
        return {
            "M": self.value.M,
            "coeffs": [f"{c // g}/{d // g}" for c in cs for g in [gcd(c, d)]],
            "logpow": self.logpow,
        }
