"""Exact arithmetic in Q(p^(1/M)) and residue values carrying log p powers.

Elements are represented in the quotient Q[w] / (w^M - p), each by its
residue: a QPoly in w of degree < M.  For p prime the polynomial w^M - p is
irreducible over Q (Eisenstein), so the quotient is a field and an element
is zero exactly when its residue is.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .qpoly import QPoly, convolve


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
    def from_rational(cls, p: int, r: Fraction | int, M: int = 1) -> "RadicalScalar":
        return cls(p, M, [r])

    @classmethod
    def p_power(cls, p: int, r: Fraction | int) -> "RadicalScalar":
        """Exact p^r for rational r."""
        r = Fraction(r)
        q, rem = divmod(r.numerator, r.denominator)  # p^r = p^q w^rem
        return cls(p, r.denominator, QPoly.monomial(Fraction(p) ** q, rem))

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

    def _common(self, other) -> tuple["RadicalScalar", "RadicalScalar"]:
        if isinstance(other, (int, Fraction)):
            other = RadicalScalar.from_rational(self.p, other, 1)
        if other.p != self.p:
            raise ValueError("mixed primes")
        M = lcm(self.M, other.M)
        return self.lifted(M), other.lifted(M)

    def __add__(self, other) -> "RadicalScalar":
        a, b = self._common(other)
        return RadicalScalar(a.p, a.M, a.poly + b.poly)

    __radd__ = __add__

    def __neg__(self) -> "RadicalScalar":
        return RadicalScalar(self.p, self.M, -self.poly)

    def __sub__(self, other) -> "RadicalScalar":
        return self + (-other if isinstance(other, RadicalScalar) else -Fraction(other))

    def __rsub__(self, other) -> "RadicalScalar":
        return (-self) + other

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
        """Field inverse via the extended Euclidean algorithm against w^M - p."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        mod = QPoly.from_ints([-self.p] + [0] * (self.M - 1) + [1], 1)
        # extended gcd: find s with s*a = gcd mod (w^M - p)
        r0, r1 = mod, self.poly
        s0, s1 = QPoly(), QPoly.const(1)
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        # r0 is a nonzero constant gcd (the modulus is irreducible)
        if r0.degree != 0:
            raise ArithmeticError("modulus not coprime to element")
        _, rem = s0.scale(Fraction(r0.den, r0.nums[0])).divmod(mod)
        return RadicalScalar(self.p, self.M, rem)

    def __pow__(self, k: int) -> "RadicalScalar":
        if k < 0:
            return self.inverse() ** (-k)
        out = RadicalScalar.from_rational(self.p, 1, self.M)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RadicalScalar.from_rational(self.p, other, 1)
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
        """Sign of the real value (the real M-th root of p)."""
        if self.is_zero():
            return 0
        # Evaluate sum a_i * r^i at r = p^(1/M) with interval arithmetic on
        # scaled integers, refining until the sign is determined.
        bits = 32
        while True:
            lo, hi = _root_bounds(self.p, self.M, bits)
            # interval powers of [lo, hi] / 2^bits
            tot_lo = Fraction(0)
            tot_hi = Fraction(0)
            pw_lo, pw_hi = Fraction(1), Fraction(1)
            scale = Fraction(1, 1 << bits)
            rl, rh = lo * scale, hi * scale
            for c in self.poly.nums:  # the denominator is positive
                if c > 0:
                    tot_lo += c * pw_lo
                    tot_hi += c * pw_hi
                elif c < 0:
                    tot_lo += c * pw_hi
                    tot_hi += c * pw_lo
                pw_lo, pw_hi = pw_lo * rl, pw_hi * rh
            if tot_lo > 0:
                return 1
            if tot_hi < 0:
                return -1
            bits *= 2
            if bits > 4096:
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


def _root_bounds(p: int, M: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits * p^(1/M) <= hi with hi - lo = 1 (or equal)."""
    target = p << (bits * M)
    lo, hi = 0, (p << bits)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**M <= target:
            lo = mid
        else:
            hi = mid - 1
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
        return {
            "M": self.value.M,
            "coeffs": [f"{c.numerator}/{c.denominator}"
                       for c in self.value.poly.truncated(self.value.M - 1)],
            "logpow": self.logpow,
        }
