"""Base context for p-adic computations over Q_p."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


# Miller-Rabin to these bases is exact below _MR_BOUND, the least strong
# pseudoprime to all of them (OEIS A014233)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(m: int) -> bool:
    """Deterministic primality test: the bases as trial divisors, then strong
    probable-prime tests to each; a ValueError for m >= _MR_BOUND that has
    no such divisor."""
    if m < 2:
        return False
    for a in _MR_BASES:
        if m % a == 0:
            return m == a
    if m >= _MR_BOUND:
        raise ValueError(f"p = {m}: primality is decided only below {_MR_BOUND}")
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = d 2^s, d odd
    d = (m - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
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
