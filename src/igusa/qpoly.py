"""Dense univariate polynomials over Q: numerators in t, residues in w of
elements of Q(p^(1/M)), and tangent cones in tau.  Coefficients are integers
over one denominator; `convolve` is the one integer product, shared with
`RadicalScalar`, and `prs` the one Euclid, shared by the radical inverse and
the tangent-cone factoring."""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, Sequence


def convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Integer coefficients of the product of the polynomials with
    coefficient lists a and b (ascending)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


class QPoly:
    """Polynomial sum nums[i] t^i / den, ascending order, in lowest terms:
    den > 0, gcd(den, *nums) = 1 and no trailing zero, so equal polynomials
    have equal fields."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[Fraction | int] = ()) -> None:
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        d = lcm(*(c.denominator for c in cs))
        self._normalise([c.numerator * (d // c.denominator) for c in cs], d)

    def _normalise(self, cs: list[int], d: int) -> None:
        while cs and cs[-1] == 0:
            cs.pop()
        g = gcd(d, *cs) if d > 0 else -gcd(d, *cs)
        # from a list: CPython then reuses freed tuples (a generator cost 2 MB of RSS)
        self.nums: tuple[int, ...] = tuple(cs if g == 1 else [c // g for c in cs])
        self.den: int = d // g

    @classmethod
    def const(cls, c: Fraction | int) -> "QPoly":
        return cls.monomial(c, 0)

    @classmethod
    def monomial(cls, c: Fraction | int, k: int) -> "QPoly":
        return cls.from_ints([0] * k + [c.numerator], c.denominator)

    @classmethod
    def from_ints(cls, cs: Sequence[int], d: int) -> "QPoly":
        """The polynomial sum cs[i] t^i / d, d nonzero."""
        out = cls.__new__(cls)
        out._normalise(list(cs), d)
        return out

    def to_ints(self) -> tuple[tuple[int, ...], int]:
        """(cs, d) with self == QPoly.from_ints(cs, d), d the least common denominator."""
        return self.nums, self.den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(c, self.den) for c in self.nums])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QPoly) and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __add__(self, other: "QPoly") -> "QPoly":
        d = lcm(self.den, other.den)
        ka, kb = d // self.den, d // other.den
        cs = [ka * a + kb * b for a, b in zip_longest(self.nums, other.nums, fillvalue=0)]
        return QPoly.from_ints(cs, d)

    def __neg__(self) -> "QPoly":
        return QPoly.from_ints([-c for c in self.nums], self.den)

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        return QPoly.from_ints(convolve(self.nums, other.nums), self.den * other.den)

    def scale(self, c: Fraction | int) -> "QPoly":
        return QPoly.from_ints([a * c.numerator for a in self.nums], self.den * c.denominator)

    def shift(self, k: int) -> "QPoly":
        """Multiply by t^k, k >= 0."""
        if k < 0:
            raise ValueError(f"shift by t^{k}: negative powers of t are not polynomials")
        if self.is_zero():
            return self
        return QPoly.from_ints([0] * k + list(self.nums), self.den)

    def divmod(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        """(q, r) with self = q * other + r and deg r < deg other, by integer
        pseudo-division s * A = Q * B + R of the numerators, s a power of B's lead."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        bs, b, n, s = other.nums, other.nums[-1], other.degree, 1
        rem, quot = list(self.nums), [0] * max(len(self.nums) - n, 0)
        for k in reversed(range(len(quot))):
            if c := rem[k + n]:
                rem, quot, s = [b * x for x in rem], [b * x for x in quot], s * b
                quot[k] = c
                for j, y in enumerate(bs, k):
                    rem[j] -= c * y
        d = s * self.den
        return QPoly.from_ints([other.den * x for x in quot], d), QPoly.from_ints(rem, d)

    def truncated(self, k: int) -> Sequence[Fraction]:
        """First k + 1 coefficients, zero-padded."""
        cs = list(self.coeffs[: k + 1])
        cs += [Fraction(0)] * (k + 1 - len(cs))
        return cs

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{i}")
        return " + ".join(parts)


_ZERO, _ONE = QPoly.from_ints((), 1), QPoly.from_ints((1,), 1)  # QPolys are never mutated


def prs(a: QPoly, b: QPoly) -> tuple[QPoly, QPoly]:
    """(g, s): g the primitive gcd over Q of a and b, not both zero, and s
    with s * b = g mod a.  Primitive remainder sequence: each remainder of
    `QPoly.divmod` is scaled, with its cofactor, to a primitive integer
    polynomial with a positive leading coefficient before it is divided,
    which keeps the coefficients small (over Q they grow at every step)."""
    s0, s1 = _ZERO, _ONE
    while True:
        c = gcd(*a.nums) if a.nums and a.nums[-1] > 0 else -gcd(*a.nums)
        if c not in (0, 1) or a.den != 1:  # a is nonzero and not primitive
            a, s0 = QPoly.from_ints([x // c for x in a.nums], 1), s0.scale(Fraction(a.den, c))
        if b.is_zero():
            return a, s0
        q, r = a.divmod(b)
        a, b, s0, s1 = b, r, s1, s0 - q * s1
