"""Divisibility of the counts M_i by powers of p governed by the smallest
real pole: v_p(M_i) >= ceil((n+l)i - a) for a suitable shift a."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil

from .context import vp
from .qpoly import QPoly
from .zeta import PoincareSeries, ZetaRational, divide_binomial


@dataclass
class DivisibilityReport:
    l: Fraction
    n: int
    a_min: int
    checked_up_to: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "l": f"{self.l.numerator}/{self.l.denominator}",
            "n": self.n,
            "a_min": self.a_min,
            "checked_up_to": self.checked_up_to,
            "violations": self.violations,
        }


def smallest_real_pole(z: ZetaRational) -> Fraction:
    """Smallest -nu/N among surviving denominator factors that are real
    poles; candidates that fail the real-point test but survive reduction
    are included pessimistically."""
    z = z.reduced()
    if not z.denominator:
        raise ValueError("no poles: Z is polynomial in t")
    # real poles plus, pessimistically, candidates the real-point test
    # could not discard (possibly complex-only pole lines)
    return min(s0 for s0, _ in z.candidate_poles())


def check_divisibility(M: PoincareSeries, l: Fraction, a: int) -> DivisibilityReport:
    """Verify v_p(M_i) >= ceil((n+l)i - a) on the whole series; M_i = 0
    passes vacuously."""
    l = Fraction(l)
    n, p = M.n, M.p
    counts = M.counts()
    violations = []
    for i, m in enumerate(counts):
        need = ceil((n + l) * i - a)
        if m == 0 or need <= 0:
            continue
        if vp(m, p) < need:
            violations.append({"i": i, "M_i": m, "needed": need,
                               "v_p": vp(m, p)})
    return DivisibilityReport(l=l, n=n, a_min=a,
                              checked_up_to=M.imax, violations=violations)


def min_shift(M: PoincareSeries, l: Fraction) -> int:
    """Smallest integer a with no violations on the observed range."""
    l = Fraction(l)
    n, p = M.n, M.p
    best = 0
    for i, m in enumerate(M.counts()):
        if m == 0:
            continue
        best = max(best, ceil((n + l) * i) - vp(m, p))
    return best


def divisibility_property_check(coeffs, n: int, l: Fraction, p: int, k: int) -> bool:
    """Whether the series sum c_i t^i has the divisibility property up to
    t^k: c_i * p^(n i) is an integer multiple of p^ceil((n+l)i)."""
    l = Fraction(l)
    for i, c in enumerate(coeffs[: k + 1]):
        c = Fraction(c)
        if c == 0:
            continue
        if vp(c, p) + n * i < ceil((n + l) * i):
            return False
        if (c * Fraction(p) ** (n * i)).denominator != 1:
            return False
    return True


def constructive_shift(z: ZetaRational, n: int, l: Fraction) -> tuple[int, QPoly]:
    """Constructive shift: write P(t) = C(t) / prod over factors with
    -nu/N >= l, and return the smallest a making p^a C(t) satisfy the
    divisibility property, together with C."""
    l = Fraction(l)
    p = z.p
    one_minus_t = QPoly([1, -1])
    den = z.denominator_poly()
    top = den - QPoly([0, 1]) * z.numerator  # (1 - t Z) * den
    c, rem = top.divmod(one_minus_t)
    if not rem.is_zero():
        raise ArithmeticError("Z(1) != 1: 1 - tZ not divisible by 1 - t")
    # divide away the factors below the threshold; must be exact
    cs, d = c.to_ints()
    for (N, nu), m in z.denominator.items():
        if Fraction(-nu, N) >= l:
            continue
        for _ in range(m):
            cs = divide_binomial(cs, p, N, nu)
            if cs is None:
                raise ArithmeticError(
                    "numerator C(t) not polynomial: a below-threshold factor "
                    "does not divide exactly"
                )
    c = QPoly.from_ints(cs, d)
    a = 0
    for i, ci in enumerate(c.coeffs):
        if ci == 0:
            continue
        a = max(a, ceil((n + l) * i) - n * i - vp(ci, p))
    return a, c
