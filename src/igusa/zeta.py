"""Rational zeta functions in t = p^(-s) with factored denominators.

A ZetaRational stores an exact numerator N(t) over Q and a multiset of
denominator factors (1 - p^(-nu) t^N), keeping the factorization so that
candidate poles stay readable and Laurent expansions are cheap.

A QPoly numerator already is integer coefficients over one denominator,
which sums and cancellations read with `QPoly.to_ints`: multiplying by a
factor is an O(deg) integer update (`times_binomials`), dividing by it
exact top-down integer division (`divide_binomial`).

Near a candidate pole s0, t = t0 exp(-U) with t0 = p^(-s0) and
U = (s - s0) log p, so a polynomial sum c_i t^i has the closed-form
expansion sum_k U^k sum_i c_i t0^i (-i)^k / k! (`u_expansion`).  Each
t0^i folds once to p^e w^r at one radical degree M, so every U^k
coefficient is one integer vector in Q[w]/(w^M - p).  Laurent data are one
truncated division of two such lists: the numerator's by the expanded
denominator product's, less the U^m it vanishes to at a pole of
multiplicity m.  The real-pole test compares vanishing orders: s0 is a
pole iff the numerator vanishes at t0 to order less than m.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial, gcd

from .context import is_prime
from .qpoly import QPoly
from .radical import RadicalScalar, ResidueValue


class ZetaRational:
    """N(t) / prod (1 - p^(-nu) t^N)^mult, exact over Q.

    `+` lifts both numerators to the union of the denominator multisets
    and adds them as QPolys; `reduced` cancels factors by exact integer
    division.  Neither leaves the integers.
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
        a = times_binomials(*self.numerator.to_ints(), self.p, den - self.denominator)
        b = times_binomials(*other.numerator.to_ints(), self.p, den - other.denominator)
        return ZetaRational(self.p, QPoly.from_ints(*a) + QPoly.from_ints(*b), den)

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
        """Whether s0 is a pole: the denominator vanishes at t0 = p^(-s0) to
        the order m of s0 among the candidates, reduced or not, so the pole
        order is m less the numerator's order, and s0 is a pole iff one of
        the numerator's U^0, ..., U^(m-1) coefficients is nonzero."""
        m = dict(self.candidate_poles()).get(s0, 0)
        return any(not c.is_zero() for c in u_expansion(self.numerator, self.p, s0, m - 1))

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
        """Raises ValueError unless p is prime and every factor has
        N >= 1 and nu >= 1."""
        if not is_prime(data["p"]):
            raise ValueError(f"p = {data['p']} is not prime")
        num = QPoly([Fraction(int(a), int(b)) for a, b in data["numerator"]])
        den = Counter((f["N"], f["nu"]) for f in data["denominator"])
        if any(N < 1 or nu < 1 for N, nu in den):
            raise ValueError("need N >= 1 and nu >= 1 in every denominator factor")
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
    """Z at t = 1 (s = 0)."""
    num, d = z.numerator.to_ints()
    den = Fraction(d)
    for (N, nu), m in z.denominator.items():
        fval = 1 - Fraction(1, z.p**nu)
        if fval == 0:
            raise ZeroDivisionError("denominator factor vanishes at t = 1")
        den *= fval**m
    return sum(num) / den


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
        w = Fraction(1, z.p**nu)
        for _ in range(m):
            # divide by 1 - p^(-nu) t^N: the ascending recurrence of divide_binomial
            for i in range(N, imax + 1):
                cs[i] += w * cs[i - N]
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


def u_expansion(poly: QPoly, p: int, s0: Fraction, K: int) -> list[RadicalScalar]:
    """Coefficients of U^0, ..., U^K of poly at t = t0 exp(-U), t0 = p^(-s0):
    the coefficient of U^k is sum_i c_i t0^i (-i)^k / k!.

    With s0 = -a/q in lowest terms and M = q / gcd(q, every i with c_i != 0),
    t0^i = p^(e_i) w^(r_i) in Q[w]/(w^M - p); one power p^E clears the
    negative e_i, so each coefficient is one integer vector over den p^E k!."""
    a, q = -s0.numerator, s0.denominator
    nums = poly.nums
    g = gcd(q, *(i for i, c in enumerate(nums) if c))
    M = q // g
    folded = [(i, *divmod(i // g * a, M)) for i, c in enumerate(nums) if c]
    E = max([-e for _, e, _ in folded] + [0])
    terms = [(r, nums[i] * p ** (e + E), -i) for i, e, r in folded]
    out = []
    for k in range(K + 1):
        vec = [0] * M
        for r, c, _ in terms:
            vec[r] += c
        out.append(RadicalScalar(p, M, QPoly.from_ints(vec, poly.den * p**E * factorial(k))))
        terms = [(r, c * j, j) for r, c, j in terms]
    return out


def _div_trunc(a: list, b: list, K: int) -> list:
    """a / b as a U-series truncated at U^K; b[0] must be nonzero."""
    b0inv = b[0].inverse()
    out = []
    for k in range(K + 1):
        s = a[k]
        for j in range(1, k + 1):
            s = s - b[j] * out[k - j]
        out.append(s * b0inv)
    return out


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
    m = dict(z.candidate_poles()).get(s0, 0)
    K = m + extra
    # D(t0 e^(-U)) vanishes to order exactly m: each factor with
    # -nu/N = s0 is 1 - e^(-NU), and no other factor vanishes at t0
    num = u_expansion(z.numerator, p, s0, K)
    den = u_expansion(z.denominator_poly(), p, s0, K + m)[m:]
    unit = _div_trunc(num, den, K)
    # unit / U^m; numerator vanishing lowers the actual pole order
    nv = next((i for i, c in enumerate(unit) if not c.is_zero()), K + 1)
    pole_order = max(m - nv, 0)
    return LaurentExpansion(p, s0, pole_order, unit[m - pole_order:])
