"""Counting solutions of f = 0 mod p^i, naively and by one Hensel pass.

Both evaluate f with `_eval_mod`, square-and-multiply over numpy arrays that
reduces each coordinate a term uses once, each term below m, and the sum of
the terms once; int64 arrays need m <= 2^31.  A zero mod p with a unit
partial derivative lifts to p^((n-1)(i-1)) zeros mod p^i (Hensel's lemma).
For a zero a mod p^(j-1) that is singular mod p and a
digit vector d, Taylor's formula over Z gives f(a + p^(j-1) d) = f(a) +
p^(j-1) grad f(a).d mod p^(2(j-1)).  Since grad f(a) = 0 mod p and 2(j-1)
>= j for j >= 2, all p^n lifts of a pass or fail mod p^j with a: the pass
evaluates f once per kept zero per level, and a survivor adds p^n to M_j.
For j >= 3 also 2(j-1) >= j+1.  If a survives, f(a) = p^j F and grad f(a)
= p G, and a lift survives level j+1 iff F + G.d = 0 mod p: for p^(n-1) of
the d if G != 0 mod p, for all or none of them (by F) if G = 0.  So a last
level imax >= 4 is counted from its parents, the survivors of level
imax - 1 >= 3 (at j = 2 the terms of degree 2 in p d do not vanish mod
p^3).  The other levels build lifts `_BLOCK` rows at a time, from digit
vectors built once per (p, n) and shared read-only, keep only the
survivors, and refuse to build more than `NAIVE_BUDGET`; the same formula
counts, from level j >= 3, the lifts level j + 2 would build, so a pass
that must refuse does so before it builds level j + 1.

numpy is imported inside the functions that build arrays, so a command that
does not count never loads it.
"""

from __future__ import annotations

import functools

from .context import vp
from .poly import MultiPoly
from .zeta import PoincareSeries, ZetaRational, poincare_from_zeta

NAIVE_BUDGET = 10**8
_BLOCK = 4096  # lifted points per block of the Hensel pass; bounds its memory


def _eval_mod(f: MultiPoly, coords, m: int):
    """f mod m at integer arrays coords (one per variable, broadcast
    together), a scalar for a constant f.  Each coordinate a term uses is
    reduced once, each term below m (its coefficient mod m multiplies it
    unless that is 1), and the sum of the terms once; int64 arrays need
    m <= 2^31 so that products of two residues fit."""
    xs, total = {}, None
    for e, c in f.terms.items():
        term, c = None, c % m
        if not c:
            continue
        for v, k in enumerate(e):
            if not k:
                continue
            if v not in xs:
                xs[v] = coords[v] % m
            base = xs[v]
            while k:
                if k & 1:
                    term = base if term is None else term * base % m
                k >>= 1
                if k:
                    base = base * base % m
        term = c if term is None else term if c == 1 else term * c % m
        total = term if total is None else total + term
    return 0 if total is None else total % m


def count_naive(f: MultiPoly, p: int, i: int) -> int:
    """Count solutions of f = 0 mod p^i over (Z/p^i)^n by enumeration."""
    if i < 0:
        raise ValueError(f"level {i} < 0")
    if i == 0:
        return 1
    n = f.nvars
    if n * i >= NAIVE_BUDGET.bit_length() or p ** (n * i) > NAIVE_BUDGET:  # p >= 2: before p^i
        raise ValueError(f"p^(n*i) = {p}^{n * i} exceeds budget {NAIVE_BUDGET}")
    m = p**i
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
    a scalar: all rows or none)."""
    values = _eval_mod(f, pts.T, m)
    if type(values) is int:
        return pts if values == 0 else pts[:0]
    return pts[values == 0]


@functools.lru_cache(maxsize=16)
def _digit_block(p: int, n: int, lo: int):
    """The base-p digit vectors of lo .. min(lo + _BLOCK, p^n) - 1, read-only."""
    import numpy as np

    d = np.arange(lo, min(lo + _BLOCK, p**n))[:, None] // p ** np.arange(n) % p
    d.flags.writeable = False
    return d


def poincare_truncation(f: MultiPoly, p: int, imax: int) -> PoincareSeries:
    """The counts M_0..M_imax of one Hensel pass.  For f = p^w g, g free of
    content, M_i(f) = p^(n i) for i <= w, else p^(n w) M_(i-w)(g): the pass
    runs on g, naming f's levels.  Level 1 enumerates the digit vectors,
    counts the smooth zeros in closed form and keeps the singular ones that
    are zeros mod p^2: the survivors of level 2.  A survivor a of level j, a
    zero mod p^j given mod p^(j-1), adds p^n to M_j, and level j + 1 keeps
    its lifts a + p^(j-1) d that are zeros mod p^(j+1).  A last level
    imax >= 4 is counted by Taylor's formula (module docstring)."""
    if imax < 0:
        raise ValueError(f"level {imax} < 0")
    n, q = f.nvars, p**f.nvars
    w = min([imax, *(vp(c, p) for c in f.terms.values())]) if f.terms else 0
    f, imax = MultiPoly(f.vars, {e: c // p**w for e, c in f.terms.items()}), imax - w
    if imax == 0:
        return PoincareSeries(p, n, [q**i for i in range(w + 1)])
    if q > NAIVE_BUDGET:  # level 1 enumerates all q digit vectors
        raise ValueError(f"level {1 + w}: {q} lifts exceed budget {NAIVE_BUDGET}")
    import numpy as np

    dtype = np.int64 if p**imax <= 2**31 else object
    counts = [1] + [0] * imax
    grads = [f.derivative(v) for v in f.vars]

    def lifts(parents, step):
        """The rows a + step d for a in parents and every digit vector d, in
        blocks of at most _BLOCK: digit vectors, then parents, by blocks."""
        for lo in range(0, q, _BLOCK):
            d = _digit_block(p, n, lo).astype(dtype, copy=False) * step
            rows = max(1, _BLOCK // len(d))
            for r in range(0, len(parents), rows):
                yield (parents[r:r + rows, None] + d).reshape(-1, n)

    def grad_nonzero(pts, m):
        nonzero = np.zeros(len(pts), dtype=bool)
        for g in grads:
            nonzero |= _eval_mod(g, pts.T, m) != 0
        return nonzero

    def taylor_survivors(pts, j):
        """How many lifts of level j's survivors pts survive level j + 1, j >= 3:
        f(a + p^(j-1) d) = p^j (F + G.d) mod p^(j+1), F = f(a)/p^j, G = grad f(a)/p."""
        F = _eval_mod(f, pts.T, p ** (j + 1)) // p**j
        g = grad_nonzero(pts, p * p)
        return q // p * int(np.count_nonzero(g)) + q * int(np.count_nonzero(~g & (F == 0)))

    pts = []
    for block in lifts(np.zeros((1, n), dtype=dtype), 1):
        block = _zeros(f, block, p)
        smooth = grad_nonzero(block, p)
        s = int(np.count_nonzero(smooth))
        for i in range(1, imax + 1):
            counts[i] += s * p ** ((n - 1) * (i - 1))
        counts[1] += len(block) - s
        pts.append(_zeros(f, block[~smooth], p ** min(imax, 2)))
    pts = np.concatenate(pts)
    for j in range(2, imax + 1):  # pts: the survivors of level j
        counts[j] += q * len(pts)
        if j == imax or not len(pts):
            break
        if j + 1 == imax >= 4:
            counts[imax] += q * taylor_survivors(pts, j)
            break
        if j >= 3 and j + 2 < imax and len(pts) * q * q > NAIVE_BUDGET:
            # level j + 2 may build too many lifts: count them before building j + 1
            lifts_next = taylor_survivors(pts, j) * q
            if lifts_next > NAIVE_BUDGET:
                raise ValueError(f"level {j + 2 + w}: {lifts_next} lifts exceed budget {NAIVE_BUDGET}")
        if len(pts) * q > NAIVE_BUDGET:
            raise ValueError(f"level {j + 1 + w}: {len(pts) * q} lifts exceed budget {NAIVE_BUDGET}")
        pts = np.concatenate([_zeros(f, b, p ** (j + 1)) for b in lifts(pts, p ** (j - 1))])
    return PoincareSeries(p, n, [q**i for i in range(w)] + [q**w * m for m in counts])


def verify_zeta_against_counts(
    z: ZetaRational, f: MultiPoly, imax: int
) -> tuple[bool, list[int], list[int]]:
    """Compare the counts predicted by z with Hensel counts up to p^imax."""
    predicted = poincare_from_zeta(z, f.nvars, imax).counts()
    actual = poincare_truncation(f, z.p, imax).counts()
    return predicted == actual, predicted, actual
