"""Counting solutions of f = 0 mod p^i, naively and by one Hensel pass.

Both evaluate f with `_eval_mod`, square-and-multiply over numpy arrays.  A
zero mod p with a unit partial derivative lifts to p^((n-1)(i-1)) zeros mod
p^i (Hensel's lemma).  For a zero a mod p^(j-1), j >= 2, that is singular mod
p, Taylor's formula over Z gives f(a + p^(j-1) d) = f(a) + p^(j-1) grad f(a).d
= f(a) mod p^j for every digit vector d, since grad f(a) = 0 mod p and
2(j-1) >= j: all p^n lifts of a pass or fail together.  So the Hensel pass
evaluates f once per kept zero per level and counts p^n per survivor.

numpy is imported inside the functions that build arrays, so a command that
does not count never loads it.
"""

from __future__ import annotations

from .poly import MultiPoly
from .zeta import PoincareSeries, ZetaRational, poincare_from_zeta

NAIVE_BUDGET = 10**8
_BLOCK = 4096  # lifted points per block of the Hensel pass; bounds its memory


def _eval_mod(f: MultiPoly, coords, m: int):
    """f mod m at integer arrays coords (one per variable, broadcast
    together); int64 arrays need m <= 2^31 so that products fit."""
    xs = [x % m for x in coords]
    total = 0
    for e, c in f.terms.items():
        term = c % m
        for base, k in zip(xs, e):
            while k:
                if k & 1:
                    term = term * base % m
                k >>= 1
                if k:
                    base = base * base % m
        total = (total + term) % m
    return total


def count_naive(f: MultiPoly, p: int, i: int, budget: int = NAIVE_BUDGET) -> int:
    """Count solutions of f = 0 mod p^i over (Z/p^i)^n by enumeration."""
    if i < 0:
        raise ValueError(f"level {i} < 0")
    if i == 0:
        return 1
    n = f.nvars
    m = p**i
    if m**n > budget:
        raise ValueError(f"p^(n*i) = {m**n} exceeds budget {budget}")
    if m > 2**31:
        raise ValueError(f"p^i = {m} overflows int64 products")
    import numpy as np

    grids = np.meshgrid(*([np.arange(m, dtype=np.int64)] * n), indexing="ij", sparse=True)
    values = np.asarray(_eval_mod(f, grids, m))
    # variables missing from f leave broadcast dimensions of size 1
    return int(np.count_nonzero(values == 0)) * (m**n // values.size)


def count_hensel(f: MultiPoly, p: int, i: int) -> int:
    """M_i, the number of solutions of f = 0 mod p^i, from the Hensel pass."""
    return poincare_truncation(f, p, i).counts()[i]


def _zeros(f: MultiPoly, pts, m: int):
    """The rows of pts at which f = 0 mod m (`_eval_mod` of a constant f is
    a scalar, hence the broadcast)."""
    import numpy as np

    return pts[np.broadcast_to(_eval_mod(f, pts.T, m) == 0, len(pts))]


def poincare_truncation(f: MultiPoly, p: int, imax: int) -> PoincareSeries:
    """The counts M_0..M_imax of one Hensel pass.  Level 1 enumerates the digit
    vectors, counts the smooth zeros in closed form and keeps the singular
    ones; level j >= 2 evaluates f mod p^j once per kept zero a mod p^(j-1),
    adds p^n to M_j for each survivor (all lifts of a pass with it) and
    lifts only the survivors by every digit vector times p^(j-1)."""
    if imax < 0:
        raise ValueError(f"level {imax} < 0")
    n, q = f.nvars, p**f.nvars
    if imax == 0:
        return PoincareSeries(p, n, [1])
    import numpy as np

    dtype = np.int64 if p**imax <= 2**31 else object
    counts = [1] + [0] * imax

    def digits(d):
        return (d[:, None] // p ** np.arange(n) % p).astype(dtype)

    pts = []  # the zeros mod p^(j-1) that are singular mod p
    for lo in range(0, q, _BLOCK):
        block = _zeros(f, digits(np.arange(lo, min(lo + _BLOCK, q))), p)
        smooth = np.zeros(len(block), dtype=bool)
        for v in f.vars:
            smooth |= _eval_mod(f.derivative(v), block.T, p) != 0
        s = int(np.count_nonzero(smooth))
        for i in range(1, imax + 1):
            counts[i] += s * p ** ((n - 1) * (i - 1))
        pts.append(block[~smooth])
    pts = np.concatenate(pts)
    counts[1] += len(pts)
    for j in range(2, imax + 1):
        pts = np.concatenate([pts[:0]] + [_zeros(f, pts[lo:lo + _BLOCK], p**j)
                                          for lo in range(0, len(pts), _BLOCK)])
        counts[j] += q * len(pts)
        if not len(pts) or j == imax:
            break
        pts = (pts[:, None] + digits(np.arange(q)) * p ** (j - 1)).reshape(-1, n)
    return PoincareSeries(p, n, counts)


def verify_zeta_against_counts(
    z: ZetaRational, f: MultiPoly, imax: int
) -> tuple[bool, list[int], list[int]]:
    """Compare the counts predicted by z with Hensel counts up to p^imax."""
    predicted = poincare_from_zeta(z, f.nvars, imax).counts()
    actual = poincare_truncation(f, z.p, imax).counts()
    return predicted == actual, predicted, actual
