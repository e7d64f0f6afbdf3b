"""Base context for p-adic computations over Q_p."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def is_prime(m: int) -> bool:
    """Deterministic primality test (trial division; inputs are small)."""
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def vp(x: int | Fraction, p: int) -> int:
    """p-adic valuation of a nonzero int or Fraction."""
    if x == 0:
        raise ValueError("valuation of zero")
    v = 0
    num, den = abs(x.numerator), x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


@dataclass(frozen=True)
class PadicContext:
    """The prime p (residue field cardinality q = p) and the dimension n."""

    p: int
    n: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.n < 1:
            raise ValueError(f"dimension n must be >= 1, got {self.n}")
