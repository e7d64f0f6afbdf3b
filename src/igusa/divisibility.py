"""Divisibility of the counts M_i by powers of p governed by the smallest
real pole: v_p(M_i) >= ceil((n+l)i - a) for a suitable shift a."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil

from .context import vp
from .qpoly import QPoly
from .zeta import PoincareSeries, ZetaRational, divide_binomial, poincare_rational


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
    """The least candidate pole -nu/N of the reduced Z.  No real-point test
    runs: a factor that survives reduction counts even where Z has no real
    pole at -nu/N, so the answer may lie below the smallest real pole."""
    z = z.reduced()
    if not z.denominator:
        raise ValueError("no poles: Z is polynomial in t")
    return min(s0 for s0, _ in z.candidate_poles())


def _shortfall(value: int | Fraction, i: int, n: int, l: Fraction, p: int) -> int:
    """ceil((n + l) i) - v_p(value): how many more factors p the divisibility
    bound asks of the nonzero i-th term value (M_i, or c_i p^(n i)) than it has."""
    return ceil((n + l) * i) - vp(value, p)


def check_divisibility(M: PoincareSeries, l: Fraction, a: int) -> DivisibilityReport:
    """Verify v_p(M_i) >= ceil((n+l)i - a) on the whole series; M_i = 0
    passes vacuously."""
    l = Fraction(l)
    n, p = M.n, M.p
    counts = M.counts()
    violations = []
    for i, m in enumerate(counts):
        if m and (short := _shortfall(m, i, n, l, p)) > a:
            v = vp(m, p)
            violations.append({"i": i, "M_i": m, "needed": short + v - a, "v_p": v})
    return DivisibilityReport(l=l, n=n, a_min=a,
                              checked_up_to=len(counts) - 1, violations=violations)


def _least_shift(values, n: int, l: Fraction, p: int) -> int:
    """The least a >= 0 with v_p(value_i) >= ceil((n + l) i) - a for every
    nonzero value_i, i = 0, 1, ..."""
    return max([0] + [_shortfall(v, i, n, l, p) for i, v in enumerate(values) if v])


def min_shift(M: PoincareSeries, l: Fraction) -> int:
    """Smallest integer a with no violations on the observed range."""
    return _least_shift(M.counts(), M.n, Fraction(l), M.p)


def divisibility_property_check(coeffs, n: int, l: Fraction, p: int, k: int) -> bool:
    """Whether the series sum c_i t^i has the divisibility property up to
    t^k: c_i * p^(n i) is an integer multiple of p^ceil((n+l)i)."""
    values = [Fraction(c) * Fraction(p) ** (n * i) for i, c in enumerate(coeffs[: k + 1])]
    return all(v.denominator == 1 for v in values) and not _least_shift(values, n, Fraction(l), p)


def constructive_shift(z: ZetaRational, n: int, l: Fraction) -> tuple[int, QPoly]:
    """Constructive shift: write P(t) = C(t) / prod over factors with
    -nu/N >= l, and return the smallest a making p^a C(t) satisfy the
    divisibility property, together with C."""
    l = Fraction(l)
    p = z.p
    P = poincare_rational(z)
    if P is None:
        raise ArithmeticError("Z(1) != 1: 1 - tZ not divisible by 1 - t")
    cs, d = P.numerator.to_ints()
    # divide away the factors below the threshold; must be exact
    for N, nu in P.denominator.elements():
        if Fraction(-nu, N) < l and (cs := divide_binomial(cs, p, N, nu)) is None:
            raise ArithmeticError(
                "numerator C(t) not polynomial: a below-threshold factor does not divide exactly"
            )
    c = QPoly.from_ints(cs, d)
    return _least_shift([ci * Fraction(p) ** (n * i) for i, ci in enumerate(c.coeffs)], n, l, p), c
