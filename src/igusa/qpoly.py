"""Dense univariate polynomials over Q, used for numerators in t."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence


class QPoly:
    """Polynomial in one variable with Fraction coefficients, ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()) -> None:
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def const(cls, c: Fraction | int) -> "QPoly":
        return cls([Fraction(c)])

    @classmethod
    def monomial(cls, c: Fraction | int, k: int) -> "QPoly":
        return cls([Fraction(0)] * k + [Fraction(c)])

    @classmethod
    def from_ints(cls, cs: Sequence[int], d: int) -> "QPoly":
        """The polynomial sum cs[i] t^i / d."""
        return cls([Fraction(c, d) for c in cs])

    def to_ints(self) -> tuple[list[int], int]:
        """(cs, d) with self == QPoly.from_ints(cs, d), d the least common denominator."""
        d = lcm(*(c.denominator for c in self.coeffs))
        return [c.numerator * (d // c.denominator) for c in self.coeffs], d

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __neg__(self) -> "QPoly":
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        if self.is_zero() or other.is_zero():
            return QPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    def scale(self, c: Fraction | int) -> "QPoly":
        c = Fraction(c)
        return QPoly([a * c for a in self.coeffs])

    def shift(self, k: int) -> "QPoly":
        """Multiply by t^k, k >= 0."""
        if k < 0:
            raise ValueError(f"shift by t^{k}: negative powers of t are not polynomials")
        if self.is_zero():
            return self
        return QPoly([Fraction(0)] * k + list(self.coeffs))

    def divmod(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return QPoly(), QPoly(rem)
        quot = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lead
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return QPoly(quot), QPoly(rem)

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
