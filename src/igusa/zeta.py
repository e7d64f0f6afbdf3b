"""Rational zeta functions in t = p^(-s) with factored denominators.

A ZetaRational stores an exact numerator N(t) over Q and a multiset of
denominator factors (1 - p^(-nu) t^N), keeping the factorization so that
candidate poles stay readable and Laurent expansions are cheap.

Sums and cancellations work on a numerator as integer coefficients over
one common denominator (`QPoly.to_ints`): multiplying by a factor is an
O(deg) integer update (`times_binomials`), dividing by it exact top-down
integer division (`divide_binomial`).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import zip_longest
from math import factorial, gcd, lcm

from .qpoly import QPoly
from .radical import RadicalScalar, ResidueValue


class ZetaRational:
    """N(t) / prod (1 - p^(-nu) t^N)^mult, exact over Q.

    `+` lifts both numerators to the union of the denominator multisets
    and adds them over the lcm of their common denominators; `reduced`
    cancels factors by exact integer division.  Either builds one Fraction
    per output coefficient.
    """

    __slots__ = ("p", "numerator", "denominator")

    def __init__(self, p: int, numerator: QPoly, denominator=None) -> None:
        self.p = p
        self.numerator = numerator
        self.denominator: Counter = +Counter(denominator or {})

    @classmethod
    def const(cls, p: int, c: Fraction | int) -> "ZetaRational":
        return cls(p, QPoly.const(c))

    @classmethod
    def zero(cls, p: int) -> "ZetaRational":
        return cls(p, QPoly())

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def denominator_poly(self) -> QPoly:
        return QPoly.from_ints(*times_binomials([1], 1, self.p, self.denominator))

    def scale(self, c: Fraction | int) -> "ZetaRational":
        return ZetaRational(self.p, self.numerator.scale(c), self.denominator)

    def shift(self, k: int) -> "ZetaRational":
        """Multiply by t^k."""
        return ZetaRational(self.p, self.numerator.shift(k), self.denominator)

    def __add__(self, other: "ZetaRational") -> "ZetaRational":
        if isinstance(other, (int, Fraction)):
            other = ZetaRational.const(self.p, other)
        if other.p != self.p:
            raise ValueError("mixed primes")
        den = Counter()
        for key in set(self.denominator) | set(other.denominator):
            den[key] = max(self.denominator[key], other.denominator[key])
        ca, da = times_binomials(*self.numerator.to_ints(), self.p, den - self.denominator)
        cb, db = times_binomials(*other.numerator.to_ints(), self.p, den - other.denominator)
        d = lcm(da, db)
        ka, kb = d // da, d // db
        cs = [ka * a + kb * b for a, b in zip_longest(ca, cb, fillvalue=0)]
        g = gcd(d, *cs)
        return ZetaRational(self.p, QPoly.from_ints([c // g for c in cs], d // g), den)

    __radd__ = __add__

    def __sub__(self, other: "ZetaRational") -> "ZetaRational":
        return self + other.scale(-1)

    def __mul__(self, other) -> "ZetaRational":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if other.p != self.p:
            raise ValueError("mixed primes")
        return ZetaRational(
            self.p, self.numerator * other.numerator, self.denominator + other.denominator
        )

    __rmul__ = __mul__

    def reduced(self) -> "ZetaRational":
        """Cancel denominator factors that divide the numerator exactly."""
        if self.is_zero():
            return ZetaRational.zero(self.p)
        cs, d = self.numerator.to_ints()
        den = Counter(self.denominator)
        changed = True
        while changed:
            changed = False
            for key in [k for k, m in den.items() if m > 0]:
                q = divide_binomial(cs, self.p, *key)
                if q is not None:
                    cs = q
                    den[key] -= 1
                    changed = True
        return ZetaRational(self.p, QPoly.from_ints(cs, d), den)

    def candidate_poles(self) -> list[tuple[Fraction, int]]:
        """Real candidate poles -nu/N with multiplicity from the factored form."""
        acc: dict[Fraction, int] = {}
        for (N, nu), m in self.denominator.items():
            s0 = Fraction(-nu, N)
            acc[s0] = acc.get(s0, 0) + m
        return sorted(acc.items())

    def is_real_pole(self, s0: Fraction) -> bool:
        """A candidate s0 is a real pole unless the numerator kills every
        factor vanishing there; checked exactly at t = p^(-s0)."""
        r = self.reduced()
        mult = sum(
            m for (N, nu), m in r.denominator.items() if Fraction(-nu, N) == s0
        )
        if mult == 0:
            return False
        t0 = RadicalScalar.p_power(r.p, -s0)
        val = r.numerator(t0)
        if not val.is_zero():
            return True
        # numerator vanishes at t0: compare vanishing orders via Laurent data
        exp = laurent_at(r, s0)
        return exp.pole_order > 0

    def eval_at_one(self) -> Fraction:
        num = self.numerator(Fraction(1))
        den = Fraction(1)
        for (N, nu), m in self.denominator.items():
            fval = 1 - Fraction(1, self.p**nu)
            if fval == 0:
                raise ZeroDivisionError("denominator factor vanishes at t = 1")
            den *= fval**m
        return num / den

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "numerator": [
                [str(c.numerator), str(c.denominator)] for c in self.numerator.coeffs
            ],
            "denominator": [
                {"N": N, "nu": nu}
                for (N, nu), m in sorted(self.denominator.items())
                for _ in range(m)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ZetaRational":
        num = QPoly([Fraction(int(a), int(b)) for a, b in data["numerator"]])
        den = Counter((f["N"], f["nu"]) for f in data["denominator"])
        return cls(data["p"], num, den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZetaRational):
            return NotImplemented
        if self.p != other.p:
            return False
        # cross multiply: compare N_a * D_b with N_b * D_a
        return self.numerator * other.denominator_poly() == other.numerator * self.denominator_poly()

    def __repr__(self) -> str:
        den = " * ".join(
            f"(1 - t^{N}/{self.p}^{nu})" + (f"^{m}" if m > 1 else "")
            for (N, nu), m in sorted(self.denominator.items())
        )
        if not den:
            return repr(self.numerator)
        return f"({self.numerator!r}) / [{den}]"


def divide_binomial(cs: list[int], p: int, N: int, nu: int) -> list[int] | None:
    """Integer coefficients of C(t) / (1 - p^(-nu) t^N) over the same
    denominator as C, or None if the factor does not divide C."""
    n = len(cs) - N  # length of the quotient
    if n <= 0:
        return None if cs else []
    pn = p**nu
    q = [0] * n
    for i in range(len(cs) - 1, N - 1, -1):
        q[i - N] = pn * ((q[i] if i < n else 0) - cs[i])
    if any(cs[i] != (q[i] if i < n else 0) for i in range(N)):
        return None
    return q


def times_binomials(cs: list[int], d: int, p: int, factors) -> tuple[list[int], int]:
    """cs/d times prod (1 - p^(-nu) t^N)^m over the factors {(N, nu): m},
    as integer coefficients over a common denominator; one factor is the
    O(deg) update c'_i = p^nu c_i - c_(i-N), d' = p^nu d."""
    if not cs:
        return cs, d
    for (N, nu), m in factors.items():
        pn = p**nu
        for _ in range(m):
            out = [pn * c for c in cs] + [0] * N
            out[N:] = [a - c for a, c in zip(out[N:], cs)]
            cs, d = out, d * pn
    return cs, d


def one_var_integral(p: int, j: int, N: int, nu: int) -> ZetaRational:
    """Integral of |x|^(N s + nu - 1) over p^j Z_p, as an element of Q(t).

    Equals (1 - 1/p) p^(-j nu) t^(j N) / (1 - p^(-nu) t^N).
    """
    if N < 1 or nu < 1:
        raise ValueError("need N >= 1 and nu >= 1")
    num = QPoly.monomial(Fraction(p - 1, p) * Fraction(1, p ** (j * nu)), j * N)
    return ZetaRational(p, num, {(N, nu): 1})


def eval_at_one(z: ZetaRational) -> Fraction:
    return z.eval_at_one()


# -- Poincare series ----------------------------------------------------------


class PoincareSeries:
    """Truncated Poincare series: coefficients of t^i and the counts M_i."""

    __slots__ = ("p", "n", "coeffs")

    def __init__(self, p: int, n: int, coeffs: list[Fraction]) -> None:
        self.p = p
        self.n = n
        self.coeffs = coeffs

    @property
    def imax(self) -> int:
        return len(self.coeffs) - 1

    def counts(self) -> list[int]:
        """M_i = p^(n i) * [t^i] P; raises if any value is not an integer."""
        out = []
        for i, c in enumerate(self.coeffs):
            v = c * Fraction(self.p) ** (self.n * i)
            if v.denominator != 1:
                raise ArithmeticError(f"coefficient of t^{i} gives non-integer count")
            out.append(v.numerator)
        return out

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "coefficients": [f"{c.numerator}/{c.denominator}" for c in self.coeffs],
            "counts": self.counts(),
        }


def series_coeffs(z: ZetaRational, imax: int) -> list[Fraction]:
    """Power-series coefficients of z up to t^imax."""
    cs = list(z.numerator.truncated(imax))
    for (N, nu), m in z.denominator.items():
        for _ in range(m):
            # multiply by 1 / (1 - p^(-nu) t^N) = sum p^(-k nu) t^(k N)
            out = [Fraction(0)] * (imax + 1)
            for k in range(0, imax // N + 1):
                w = Fraction(1, z.p ** (k * nu))
                for i in range(imax + 1 - k * N):
                    if cs[i]:
                        out[i + k * N] += cs[i] * w
            cs = out
    return cs


def poincare_from_zeta(z: ZetaRational, n: int, imax: int) -> PoincareSeries:
    """P(t) = (1 - t Z(t)) / (1 - t), truncated at t^imax."""
    if eval_at_one(z) != 1:
        raise ValueError("Z(1) != 1: not a zeta function of a polynomial")
    zc = series_coeffs(z, imax)
    # numerator 1 - t Z
    top = [Fraction(1)] + [-zc[i] for i in range(imax)]
    # divide by (1 - t): partial sums
    out = []
    acc = Fraction(0)
    for c in top:
        acc += c
        out.append(acc)
    for i, c in enumerate(out):
        m = c * Fraction(z.p) ** (n * i)
        if m.denominator != 1 or m < 0:
            raise ValueError(f"M_{i} = {m} is not a non-negative integer")
    return PoincareSeries(z.p, n, out)


# -- Laurent expansion --------------------------------------------------------


class _USeries:
    """Truncated power series in U over RadicalScalar, length K + 1."""

    __slots__ = ("p", "K", "coeffs")

    def __init__(self, p: int, K: int, coeffs) -> None:
        self.p = p
        self.K = K
        cs = list(coeffs)[: K + 1]
        one = RadicalScalar.from_rational(p, 1)
        cs = [c if isinstance(c, RadicalScalar) else one * Fraction(c) for c in cs]
        cs += [one * 0] * (K + 1 - len(cs))
        self.coeffs = cs

    def __mul__(self, other: "_USeries") -> "_USeries":
        K = self.K
        out = [RadicalScalar.from_rational(self.p, 0) for _ in range(K + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(K + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return _USeries(self.p, K, out)

    def scale(self, c) -> "_USeries":
        return _USeries(self.p, self.K, [a * c for a in self.coeffs])

    def __add__(self, other: "_USeries") -> "_USeries":
        return _USeries(
            self.p, self.K, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def inverse(self) -> "_USeries":
        if self.coeffs[0].is_zero():
            raise ZeroDivisionError("not a unit series")
        c0inv = self.coeffs[0].inverse()
        out = [c0inv]
        for k in range(1, self.K + 1):
            s = RadicalScalar.from_rational(self.p, 0)
            for j in range(1, k + 1):
                s = s + self.coeffs[j] * out[k - j]
            out.append(s * c0inv * Fraction(-1))
        return _USeries(self.p, self.K, out)

    def valuation(self) -> int:
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                return i
        return self.K + 1


def _exp_series(p: int, rate: Fraction, K: int) -> _USeries:
    """exp(rate * U) truncated at U^K, rational coefficients."""
    cs = [Fraction(rate) ** j / factorial(j) for j in range(K + 1)]
    one = RadicalScalar.from_rational(p, 1)
    return _USeries(p, K, [one * c for c in cs])


class LaurentExpansion:
    """Z(s) = sum_{j >= -pole_order} a_j (s - s0)^j near s0, with each
    coefficient of (s - s0)^(-k) stored as a ResidueValue (a multiple of
    (log p)^(-k))."""

    __slots__ = ("p", "s0", "pole_order", "ucoeffs")

    def __init__(self, p: int, s0: Fraction, pole_order: int, ucoeffs) -> None:
        self.p = p
        self.s0 = s0
        self.pole_order = pole_order
        self.ucoeffs = ucoeffs  # coefficient of U^(j - pole_order), j = 0, 1, ...

    def b(self, k: int) -> ResidueValue:
        """The coefficient b_{-k} of (s - s0)^(-k)."""
        idx = self.pole_order - k
        if idx < 0 or idx >= len(self.ucoeffs):
            return ResidueValue(RadicalScalar.from_rational(self.p, 0), k)
        return ResidueValue(self.ucoeffs[idx], k)


def laurent_at(z: ZetaRational, s0: Fraction, extra: int = 2) -> LaurentExpansion:
    """Laurent expansion of z at s = s0, via t = p^(-s0) exp(-U) with
    U = (s - s0) log p.  Exact over Q(p^(1/M))."""
    p = z.p
    m = sum(c for (N, nu), c in z.denominator.items() if Fraction(-nu, N) == s0)
    K = m + extra
    # numerator as a series in U: t^i -> p^(-i s0) exp(-i U)
    num = _USeries(p, K, [])
    for i, c in enumerate(z.numerator.coeffs):
        if c == 0:
            continue
        term = _exp_series(p, Fraction(-i), K).scale(
            RadicalScalar.p_power(p, Fraction(-i) * s0) * c
        )
        num = num + term
    unit = num
    uval = 0
    for (N, nu), mult in z.denominator.items():
        # factor 1 - p^(-nu) t^N = 1 - p^(N*(-s0) - nu) exp(-N U)
        c = RadicalScalar.p_power(p, Fraction(-N) * s0 - nu)
        fac = _exp_series(p, Fraction(-N), K).scale(c)
        one = _USeries(p, K, [1])
        fac = one + fac.scale(Fraction(-1))
        v = fac.valuation()
        if v > K:
            raise ArithmeticError("denominator factor vanishes to high order")
        shifted = _USeries(p, K, fac.coeffs[v:])
        inv = shifted.inverse()
        for _ in range(mult):
            unit = unit * inv
            uval += v
    # unit / U^uval; numerator vanishing lowers the actual pole order
    nv = unit.valuation()
    pole_order = max(uval - nv, 0)
    start = uval - pole_order
    coeffs = unit.coeffs[start:] if start <= unit.K else []
    return LaurentExpansion(p, s0, pole_order, list(coeffs))
