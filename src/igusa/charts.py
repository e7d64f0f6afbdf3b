"""Zeta functions from normal-crossings chart data."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .context import PadicContext
from .integrate2d import _W
from .poly import MultiPoly, is_squarefree
from .zeta import ZetaRational, measure_term, zeta_sum


@dataclass(frozen=True)
class ChartCell:
    """One good chart: the integrand is |eps|^s |eta| times a monomial
    |y_1|^(N_1 s + nu_1 - 1) ... |y_k|^(N_k s + nu_k - 1) over the box
    P^(j_1) x ... x P^(j_n)."""

    k: int
    monomials: tuple  # ((N_1, nu_1), ..., (N_k, nu_k))
    box: tuple  # (j_1, ..., j_n)
    ord_eps: int = 0
    ord_eta: int = 0

    @property
    def n(self) -> int:
        return len(self.box)

    def __post_init__(self):
        data = (self.k, self.ord_eps, self.ord_eta, *self.box, *(x for m in self.monomials for x in m))
        if any(type(x) is not int for x in data):
            raise ValueError("chart data must be integers")
        if self.k < 0 or self.k > self.n:
            raise ValueError("need 0 <= k <= n")
        if len(self.monomials) != self.k:
            raise ValueError("monomials length must equal k")
        for N, nu in self.monomials:
            if N < 1 or nu < 1:
                raise ValueError("monomial data must be positive")
        if min(self.box, default=0) < 0 or self.ord_eps < 0 or self.ord_eta < 0:
            raise ValueError("box entries, ord_eps and ord_eta must be >= 0")

    @classmethod
    def from_json(cls, d: dict) -> "ChartCell":
        return cls(
            k=d["k"],
            monomials=tuple((N, nu) for N, nu in d["monomials"]),
            box=tuple(d["box"]),
            ord_eps=d.get("ord_eps", 0),
            ord_eta=d.get("ord_eta", 0),
        )


def zeta_from_charts(cells: list[ChartCell], ctx: PadicContext) -> ZetaRational:
    """Sum the chart contributions for the trivial character."""
    if not cells:
        raise ValueError("no chart cells given")
    if any(cell.n != ctx.n for cell in cells):
        raise ValueError(f"chart cells must have dimension n = {ctx.n}")
    p = ctx.p
    measure = Fraction(0)
    pieces = []
    for cell in cells:
        # an unweighted coordinate is (N, nu) = (0, 1): its measure p^-j
        monomials = cell.monomials + ((0, 1),) * (cell.n - cell.k)
        cs, d, den = measure_term(p, 1, p**cell.ord_eta, *((j, *m) for j, m in zip(cell.box, monomials)))
        pieces.append(([0] * cell.ord_eps + cs, d, den))
        measure += Fraction(1, p ** sum(cell.box))
    if measure != 1:
        warnings.warn(
            f"chart boxes have total measure {measure}, not a partition of Z_p^n",
            stacklevel=2,
        )
    return zeta_sum(p, pieces).reduced()


def integrate_univariate(h: MultiPoly, box_j: int, ctx: PadicContext) -> ZetaRational:
    """Exact value of the integral of |h(u)|^s over P^box_j.

    Runs the class descent `integrate2d._W` on h as a polynomial in (u, w)
    that does not involve w, over P^box_j x Z_p; w is then one class, its
    whole axis.  Requires a nonzero squarefree h.
    """
    if h.is_zero():
        raise ValueError("h must be nonzero")
    if not is_squarefree(h):
        raise ValueError("h must be squarefree")
    if len({i for e in h.terms for i, k in enumerate(e) if k}) > 1:
        raise ValueError("not univariate")
    # the one variable's exponent is the total degree of each term
    f = MultiPoly(("u", "w"), {(sum(e), 0): c for e, c in h.terms.items()})
    return _W(f, ctx.p, 0, 1, 0, 1, box_j, 0, 0).reduced()

