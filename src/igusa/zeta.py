"""Rational zeta functions in t = p^(-s) with factored denominators.

A ZetaRational stores an exact numerator N(t) over Q and a multiset of
denominator factors (1 - p^(-nu) t^N), keeping the factorization so that
candidate poles stay readable and Laurent expansions are cheap.

Sums and cancellations run on integers.  `zeta_sum`, the one sum, adds
terms (cs, d, den), cs over d over a factor multiset den, over the union
of the multisets, lifting each cs by the factors its term lacks
(`times_binomials`, O(deg) per factor).  `reduced` cancels by exact integer
division (`divide_binomial`) in descending (N, nu) order, so a reduced Z
and its JSON depend only on the numerator and the factor multiset.

Near a candidate pole s0, t = t0 exp(-U) with t0 = p^(-s0) and
U = (s - s0) log p, so a polynomial sum c_i t^i has the closed-form
expansion sum_k U^k sum_i c_i t0^i (-i)^k / k! (`u_expansion`).  Each
t0^i folds once to p^e w^r at one radical degree M, so k! times every U^k
coefficient is one integer vector in Q[w]/(w^M - p) (`_u_vectors`).
Laurent data divide the numerator's U-series by one factor (N, nu) at a
time: 1 - exp(-NU), U times a unit, where -nu/N = s0, and otherwise
1 - c exp(-NU), c = p^e w^r, through the O(M) `radical.over_binomial`.
The real-pole test compares vanishing orders: s0 is a pole iff the
numerator vanishes at t0 to order less than m, read from the same vectors.

The Poincare series P(t) = (1 - t Z(t)) / (1 - t) is one more ZetaRational
over Z's own factors (`poincare_rational`), the one place it is built; its
series coefficients times p^(n i) are the counts M_i, which a
`PoincareSeries` stores as integers.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import chain, zip_longest
from math import comb, factorial, gcd, lcm

from .context import is_prime
from .qpoly import QPoly
from .radical import RadicalScalar, ResidueValue, over_binomial


class ZetaRational:
    """N(t) / prod (1 - p^(-nu) t^N)^mult, exact over Q; `+` and `reduced`
    stay on integers (module docstring)."""

    __slots__ = ("p", "numerator", "denominator")

    def __init__(self, p: int, numerator: QPoly, denominator=None) -> None:
        self.p = p
        self.numerator = numerator
        self.denominator: Counter = +Counter(denominator or {})

    @classmethod
    def _of(cls, p: int, numerator: QPoly, denominator: Counter) -> "ZetaRational":
        """Z keeping denominator itself: a zero-free Counter, shared, never mutated."""
        z = cls.__new__(cls)
        z.p, z.numerator, z.denominator = p, numerator, denominator
        return z

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def denominator_poly(self) -> QPoly:
        return QPoly.from_ints(*times_binomials([1], 1, self.p, self.denominator))

    def substitute(self, N0: int, nu0: int) -> "ZetaRational":
        """Z at p^(-nu0) t^N0: c_i t^i becomes c_i p^(-nu0 i) t^(N0 i) and
        each factor (N, nu) becomes (N N0, nu + nu0 N)."""
        cs, d = self.numerator.to_ints()
        n = len(cs)
        out = [0] * (N0 * n)
        out[::N0] = [c * self.p ** (nu0 * (n - i)) for i, c in enumerate(cs)]
        den = {(N * N0, nu + nu0 * N): m for (N, nu), m in self.denominator.items()}
        return ZetaRational(self.p, QPoly.from_ints(out, d * self.p ** (nu0 * n)), den)

    def __add__(self, other: "ZetaRational") -> "ZetaRational":
        if other.p != self.p:
            raise ValueError("mixed primes")
        return zeta_sum(self.p, [(*z.numerator.to_ints(), z.denominator) for z in (self, other)])

    def __mul__(self, other: "ZetaRational") -> "ZetaRational":
        if other.p != self.p:
            raise ValueError("mixed primes")
        return ZetaRational._of(
            self.p, self.numerator * other.numerator, self.denominator + other.denominator
        )

    def reduced(self) -> "ZetaRational":
        """Cancel each denominator factor as often as it divides the numerator,
        in one pass in descending (N, nu) order.  Dividing only removes roots,
        so a factor that does not divide now cannot divide later."""
        cs, d = self.numerator.to_ints()
        den = Counter(self.denominator)
        for key in sorted(den, reverse=True):
            while den[key] and (q := divide_binomial(cs, self.p, *key)) is not None:
                cs = q
                den[key] -= 1
        return self if cs is self.numerator.nums else ZetaRational._of(self.p, QPoly.from_ints(cs, d), +den)

    def candidate_poles(self) -> list[tuple[Fraction, int]]:
        """Real candidate poles -nu/N with multiplicity from the factored form."""
        poles = sorted({Fraction(-nu, N) for N, nu in self.denominator})
        return [(s0, self.multiplicity(s0)) for s0 in poles]

    def multiplicity(self, s0: Fraction) -> int:
        """Count of the denominator factors with -nu/N = s0 = -a/q."""
        return sum(m for (N, nu), m in self.denominator.items() if nu * s0.denominator == -s0.numerator * N)

    def is_real_pole(self, s0: Fraction) -> bool:
        """Whether s0 is a pole: the denominator vanishes at t0 = p^(-s0) to
        the order m of s0 among the candidates, reduced or not, so the pole
        order is m less the numerator's order, and s0 is a pole iff one of
        the numerator's U^0, ..., U^(m-1) coefficients is nonzero."""
        X, _ = _u_vectors(self.numerator, self.p, s0, self.multiplicity(s0) - 1)
        return any(map(any, X))

    def to_json(self) -> dict:
        cs, d = self.numerator.to_ints()
        return {
            "p": self.p,
            "numerator": [[str(c // g), str(d // g)] for c in cs for g in [gcd(c, d)]],
            "denominator": [
                {"N": N, "nu": nu}
                for (N, nu), m in sorted(self.denominator.items())
                for _ in range(m)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ZetaRational":
        """Raises ValueError unless p is a prime int, numerator entries are
        ints or strings, and every factor has ints N, nu >= 1 (no float or bool)."""
        if type(data["p"]) is not int or not is_prime(data["p"]):
            raise ValueError(f"p = {data['p']!r} is not a prime int")
        if any(type(x) not in (int, str) for pair in data["numerator"] for x in pair):
            raise ValueError("numerator entries must be ints or integer strings")
        pairs = [(int(a), int(b)) for a, b in data["numerator"]]
        D = lcm(*(b for _, b in pairs))  # 0 if some b is 0: then D // b raises
        num = QPoly.from_ints([a * (D // b) for a, b in pairs], D)
        den = Counter((f["N"], f["nu"]) for f in data["denominator"])
        if any(type(N) is not int or type(nu) is not int or N < 1 or nu < 1 for N, nu in den):
            raise ValueError("need ints N >= 1 and nu >= 1 in every denominator factor")
        return cls._of(data["p"], num, den)

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
        pn, pad = p**nu, [0] * N
        for _ in range(m):
            cs, d = [pn * c - c0 for c, c0 in zip([*cs, *pad], [*pad, *cs])], d * pn
    return cs, d


def zeta_sum(p: int, terms) -> ZetaRational:
    """The sum at p of the terms (cs, d, den): cs over d over the factor
    multiset den {(N, nu): m}; a ZetaRational z enters as
    (*z.numerator.to_ints(), z.denominator).  The sum's multiset takes each factor's largest
    multiplicity, so it does not depend on the order of the terms; each cs
    is lifted to it once and the lists are added over the lcm of the d."""
    den: Counter = Counter()
    for _, _, fac in terms:
        for key, m in fac.items():
            if m > den.get(key, 0):
                den[key] = m
    lifted = [times_binomials(cs, d, p, {key: m - k for key, m in den.items() if m > (k := fac.get(key, 0))})
              for cs, d, fac in terms]
    D = lcm(*(d for _, d in lifted))
    scaled = ([k * c for c in cs] for cs, d in lifted for k in [D // d])
    total = [sum(col) for col in zip_longest(*scaled, fillvalue=0)]
    return ZetaRational._of(p, QPoly.from_ints(total, D), den)


def measure_term(p: int, n: int, d: int, *keys: tuple[int, int, int]) -> tuple[list[int], int, dict]:
    """n/d times the product of the `one_var_integral(p, *key)`, keys (j, N,
    nu), as a `zeta_sum` term: one coefficient times t^(sum j N) over the
    binomials (N, nu), N > 0.  The descent and the charts read measures here."""
    e, den = 0, {}
    for j, N, nu in keys:
        if N:
            n, d, e = n * (p - 1), d * p ** (1 + j * nu), e + j * N
            den[N, nu] = den.get((N, nu), 0) + 1
        else:
            n, d = n * (p - 1) * p ** (nu - 1), d * p ** (j * nu) * (p**nu - 1)
    return [0] * e + [n], d, den


def one_var_integral(p: int, j: int, N: int, nu: int) -> ZetaRational:
    """Integral of |x|^(N s + nu - 1) over p^j Z_p, N >= 0, as an element of
    Q(t): (1 - 1/p) p^(-j nu) t^(j N) / (1 - p^(-nu) t^N), a constant at
    N = 0 (p^(-j) at nu = 1): the `measure_term` of (j, N, nu)."""
    if N < 0 or nu < 1:
        raise ValueError("need N >= 0 and nu >= 1")
    cs, d, den = measure_term(p, 1, 1, (j, N, nu))
    return ZetaRational._of(p, QPoly.from_ints(cs, d), Counter(den))


def eval_at_one(z: ZetaRational) -> Fraction:
    """Z at t = 1 (s = 0), N(1) / D(1); a factor with nu = 0 makes D(1) = 0."""
    (num, d), (den, e) = z.numerator.to_ints(), z.denominator_poly().to_ints()
    return Fraction(sum(num) * e, d * sum(den))


# -- Poincare series ----------------------------------------------------------


class PoincareSeries:
    """Truncated Poincare series sum M_i p^(-n i) t^i, stored as its counts
    M_0..M_imax; the JSON coefficients are read from them."""

    __slots__ = ("p", "n", "_counts")

    def __init__(self, p: int, n: int, counts: list[int]) -> None:
        self.p = p
        self.n = n
        self._counts = list(counts)

    def counts(self) -> list[int]:
        """M_i, the number of solutions of f = 0 mod p^i."""
        return list(self._counts)

    def to_json(self) -> dict:
        coeffs = [Fraction(m, self.p ** (self.n * i)) for i, m in enumerate(self._counts)]
        return {
            "p": self.p,
            "n": self.n,
            "coefficients": [f"{c.numerator}/{c.denominator}" for c in coeffs],
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


def poincare_rational(z: ZetaRational) -> ZetaRational | None:
    """P(t) = (1 - t Z(t)) / (1 - t) over Z's own factors: the numerator is
    (D - t N) / (1 - t) for Z = N / D.  None when 1 - t does not divide,
    that is when Z(1) != 1."""
    cs, d = (z.denominator_poly() - z.numerator.shift(1)).to_ints()
    cs = divide_binomial(cs, z.p, 1, 0)
    return None if cs is None else ZetaRational._of(z.p, QPoly.from_ints(cs, d), z.denominator)


def poincare_from_zeta(z: ZetaRational, n: int, imax: int) -> PoincareSeries:
    """The counts M_i = p^(n i) [t^i] P(t), i <= imax, that Z predicts for
    an f in n variables; raises ValueError unless Z(1) = 1 and every M_i is
    a non-negative integer."""
    P = poincare_rational(z)
    if P is None:
        raise ValueError("Z(1) != 1: not a zeta function of a polynomial")
    counts = []
    for i, c in enumerate(series_coeffs(P, imax)):
        m = c * Fraction(z.p) ** (n * i)
        if m.denominator != 1 or m < 0:
            raise ValueError(f"M_{i} = {m} is not a non-negative integer")
        counts.append(m.numerator)
    return PoincareSeries(z.p, n, counts)


# -- Laurent expansion --------------------------------------------------------


def _u_vectors(poly: QPoly, p: int, s0: Fraction, K: int, M: int = 0) -> tuple[list[list[int]], int]:
    """(X, d): X[k] / d = k! [U^k] poly(t0 exp(-U)) = sum_i c_i t0^i (-i)^k,
    k <= K, t0 = p^(-s0), each t0^i folded to p^e w^r in Q[w]/(w^M - p),
    by default at the least M, q / gcd(q, i over c_i != 0) for s0 = -a/q."""
    a, q = -s0.numerator, s0.denominator
    nums = poly.nums
    M = M or q // gcd(q, *(i for i, c in enumerate(nums) if c))
    folded = [(i, *divmod(i * a * M // q, M)) for i, c in enumerate(nums) if c]
    E = max([-e for _, e, _ in folded] + [0])  # p^E clears the negative e
    terms = [(r, nums[i] * p ** (e + E), -i) for i, e, r in folded]
    out = []
    for _ in range(K + 1):
        vec = [0] * M
        for r, c, _ in terms:
            vec[r] += c
        out.append(vec)
        terms = [(r, c * j, j) for r, c, j in terms]
    return out, poly.den * p**E


def u_expansion(poly: QPoly, p: int, s0: Fraction, K: int) -> list[RadicalScalar]:
    """Coefficients of U^0, ..., U^K of poly at t = p^(-s0) exp(-U), at the
    least M (`_u_vectors`), the length of each vector."""
    X, d = _u_vectors(poly, p, s0, K)
    return [RadicalScalar(p, len(v), QPoly.from_ints(v, d * factorial(k))) for k, v in enumerate(X)]


def _over_factor(X: list, d: int, p: int, M: int, N: int, e: int, r: int) -> tuple[list, int]:
    """The series X / d (X[k] = k! [U^k], as from `_u_vectors`) over
    1 - c exp(-NU) = (A - B w^r exp(-NU)) / A, c = p^e w^r != 1, in lowest
    terms.  The quotient by A - B w^r exp(-NU) is Y_k / (d D^(k+1)) with
    (A - B w^r) Y_k / D = D^k X_k + B w^r sum_(1<=j<=k) C(k, j) (-N)^j D^(j-1) Y_(k-j)."""
    A, B = (1, p**e) if e >= 0 else (p**-e, 1)
    y, D = over_binomial(p, M, r, A, B, X[0])
    Y, K = [y], len(X) - 1
    cs = [0] + [(-N) ** j * D ** (j - 1) for j in range(1, K + 1)]
    for k in range(1, K + 1):
        # D^k X_k + B w^r acc, with w^M = p
        acc, Dk = _binomial_sum(k, cs, Y), D**k
        x = [Dk * u + B * v for u, v in zip(X[k], [p * c for c in acc[M - r:]] + acc[:M - r])]
        Y.append(over_binomial(p, M, r, A, B, x)[0])
    Y = [[c * u for u in y] for k, y in enumerate(Y) for c in [A * D ** (K - k)]]
    return _lowest(Y, d * D ** (K + 1))


def _binomial_sum(k: int, cs: list[int], Y: list) -> list[int]:
    """sum_(j<=k) C(k, j) cs[j] Y[k-j], over the j with cs[j] != 0."""
    acc = [0] * len(Y[0])
    for j in range(k + 1):
        if c := comb(k, j) * cs[j]:
            acc = [u + c * v for u, v in zip(acc, Y[k - j])]
    return acc


def _lowest(Y: list, den: int) -> tuple[list, int]:
    """The vectors Y over den in lowest terms."""
    g = gcd(den, *chain.from_iterable(Y))
    return [[u // g for u in y] for y in Y], den // g


@cache
def _bernoulli(k: int) -> Fraction:
    """B_k with B_1 = +1/2: x / (1 - e^(-x)) = sum_k B_k x^k / k!."""
    if not k:
        return Fraction(1)
    return -sum((-1) ** j * comb(k + 1, j + 1) * _bernoulli(k - j) for j in range(1, k + 1)) / (k + 1)


def _over_vanishing(X: list, d: int, N: int) -> tuple[list, int]:
    """The series X / d (as in `_over_factor`) times U / (1 - exp(-NU)),
    whose U^k coefficient is N^(k-1) B_k / k!, in lowest terms."""
    bs = [_bernoulli(k) for k in range(len(X))]
    L = lcm(*(b.denominator for b in bs))
    tau = [N**k * b.numerator * (L // b.denominator) for k, b in enumerate(bs)]
    return _lowest([_binomial_sum(k, tau, X) for k in range(len(X))], d * N * L)


class LaurentExpansion:
    """Z(s) = sum_{j >= -pole_order} a_j (s - s0)^j near s0, with each
    coefficient of (s - s0)^(-k) stored as a ResidueValue (a multiple of
    (log p)^(-k))."""

    __slots__ = ("p", "pole_order", "ucoeffs")

    def __init__(self, p: int, pole_order: int, ucoeffs) -> None:
        self.p = p
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
    U = (s - s0) log p.  Exact over Q(p^(1/M)), M the least degree of the
    numerator's and the factors' exponents."""
    p, a, q = z.p, -s0.numerator, s0.denominator
    m = z.multiplicity(s0)
    K = m + extra
    M = q // gcd(q, *(i for i, c in enumerate(z.numerator.nums) if c), *(N for N, _ in z.denominator))
    X, d = _u_vectors(z.numerator, p, s0, K, M)
    nv = next((k for k, x in enumerate(X) if any(x)), K + 1)  # the units keep it
    # a factor with -nu/N = s0 is 1 - exp(-NU); another has p^(-nu) t0^N = p^e w^r
    for (N, nu), k in z.denominator.items():
        e, r = divmod(N * a * M // q - nu * M, M)
        for _ in range(k):
            X, d = _over_vanishing(X, d, N) if nu * q == a * N else _over_factor(X, d, p, M, N, e, r)
    # (unit series) / U^m; numerator vanishing lowers the actual pole order
    pole_order = max(m - nv, 0)
    return LaurentExpansion(p, pole_order, [RadicalScalar(p, M, QPoly.from_ints(X[k], d * factorial(k)))
                                            for k in range(m - pole_order, K + 1)])
