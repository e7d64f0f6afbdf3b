"""Exact arithmetic in Q(p^(1/M)) and residue values carrying log p powers.

Elements are represented in the quotient Q[w] / (w^M - p).  For p prime the
polynomial w^M - p is irreducible over Q (Eisenstein), so the quotient is a
field and an element is zero exactly when all its coefficients are zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


class RadicalScalar:
    """A number a_0 + a_1 p^(1/M) + ... + a_{M-1} p^((M-1)/M), exact."""

    __slots__ = ("p", "M", "coeffs")

    def __init__(self, p: int, M: int, coeffs: Sequence[Fraction | int]) -> None:
        if M < 1:
            raise ValueError("M must be positive")
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if len(cs) > M:
            raise ValueError("too many coefficients")
        cs += [Fraction(0)] * (M - len(cs))
        self.p = p
        self.M = M
        self.coeffs = tuple(cs)

    @classmethod
    def from_rational(cls, p: int, r: Fraction | int, M: int = 1) -> "RadicalScalar":
        return cls(p, M, [Fraction(r)])

    @classmethod
    def p_power(cls, p: int, r: Fraction | int) -> "RadicalScalar":
        """Exact p^r for rational r."""
        r = Fraction(r)
        M = r.denominator
        k = r.numerator  # p^(k/M)
        q, rem = divmod(k, M)
        coeffs = [Fraction(0)] * M
        coeffs[rem] = Fraction(p) ** q
        return cls(p, M, coeffs)

    def lifted(self, M: int) -> "RadicalScalar":
        """Rewrite in Q[w']/(w'^M - p) where self.M divides M."""
        if M == self.M:
            return self
        if M % self.M:
            raise ValueError("incompatible radical degrees")
        k = M // self.M
        coeffs = [Fraction(0)] * M
        for i, c in enumerate(self.coeffs):
            coeffs[i * k] = c
        return RadicalScalar(self.p, M, coeffs)

    def _common(self, other) -> tuple["RadicalScalar", "RadicalScalar"]:
        if isinstance(other, (int, Fraction)):
            other = RadicalScalar.from_rational(self.p, other, 1)
        if other.p != self.p:
            raise ValueError("mixed primes")
        M = lcm(self.M, other.M)
        return self.lifted(M), other.lifted(M)

    def __add__(self, other) -> "RadicalScalar":
        a, b = self._common(other)
        return RadicalScalar(a.p, a.M, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "RadicalScalar":
        return RadicalScalar(self.p, self.M, [-c for c in self.coeffs])

    def __sub__(self, other) -> "RadicalScalar":
        return self + (-other if isinstance(other, RadicalScalar) else -Fraction(other))

    def __rsub__(self, other) -> "RadicalScalar":
        return (-self) + other

    def __mul__(self, other) -> "RadicalScalar":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return RadicalScalar(self.p, self.M, [a * c for a in self.coeffs])
        a, b = self._common(other)
        M, p = a.M, Fraction(a.p)
        out = [Fraction(0)] * M
        for i, x in enumerate(a.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(b.coeffs):
                if y == 0:
                    continue
                k = i + j
                if k >= M:
                    out[k - M] += x * y * p
                else:
                    out[k] += x * y
        return RadicalScalar(a.p, M, out)

    __rmul__ = __mul__

    def inverse(self) -> "RadicalScalar":
        """Field inverse via the extended Euclidean algorithm against w^M - p."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        from .qpoly import QPoly

        mod = QPoly([-Fraction(self.p)] + [0] * (self.M - 1) + [1])
        a = QPoly(self.coeffs)
        # extended gcd: find s with s*a = gcd mod (w^M - p)
        r0, r1 = mod, a
        s0, s1 = QPoly(), QPoly.const(1)
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        # r0 is a nonzero constant gcd (the modulus is irreducible)
        if r0.degree != 0:
            raise ArithmeticError("modulus not coprime to element")
        inv = s0.scale(1 / r0.coeffs[0])
        _, rem = inv.divmod(mod)
        return RadicalScalar(self.p, self.M, rem.truncated(self.M - 1))

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
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RadicalScalar.from_rational(self.p, other, 1)
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    def __hash__(self) -> int:
        if all(c == 0 for c in self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.p, self.M, self.coeffs))

    def as_rational(self) -> Fraction:
        """The value as a Fraction, or raise if irrational."""
        if any(c != 0 for c in self.coeffs[1:]):
            raise ValueError("not rational")
        return self.coeffs[0]

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
            for c in self.coeffs:
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
        if all(c == 0 for c in self.coeffs[1:]):
            return str(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                terms.append(f"{c}*{self.p}^({i}/{self.M})")
        return " + ".join(terms) or "0"


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
            "coeffs": [f"{c.numerator}/{c.denominator}" for c in self.value.coeffs],
            "logpow": self.logpow,
        }
