"""Counting solutions of f = 0 mod p^i, naively and by Hensel descent."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

from .poly import MultiPoly
from .zeta import PoincareSeries, ZetaRational, poincare_from_zeta

NAIVE_BUDGET = 10**8


def count_naive(f: MultiPoly, p: int, i: int, budget: int = NAIVE_BUDGET) -> int:
    """Count solutions of f = 0 mod p^i over (Z/p^i)^n by enumeration."""
    if i == 0:
        return 1
    n = f.nvars
    m = p**i
    total_points = m**n
    if total_points > budget:
        raise ValueError(f"p^(n*i) = {total_points} exceeds budget {budget}")
    if m > 2**31:
        raise ValueError(f"p^i = {m} overflows int64 products")
    if not f.coefficients_integer():
        raise ValueError("integer coefficients required")
    return _count_naive_numpy(f, m, n)


def _count_naive_numpy(f: MultiPoly, m: int, n: int) -> int:
    grids = np.meshgrid(*([np.arange(m, dtype=np.int64)] * n), indexing="ij", sparse=True)
    total = np.zeros((1,) * n, dtype=np.int64)
    for e, c in f.terms.items():
        term = np.int64(c.numerator % m)
        for g, k in zip(grids, e):
            if k:
                gk = np.ones_like(g)
                base = g % m
                kk = k
                while kk:
                    if kk & 1:
                        gk = (gk * base) % m
                    base = (base * base) % m
                    kk >>= 1
                term = (term * gk) % m
        total = (total + term) % m
    # variables missing from f leave broadcast dimensions of size 1
    zeros = int(np.count_nonzero(total == 0))
    return zeros * (m**n // total.size)


def count_hensel(f: MultiPoly, p: int, i: int) -> int:
    """Count solutions mod p^i using smooth-point lifting.

    Classes mod p^j where f has a unit partial derivative contribute
    p^((n-1)(i-j)) without further enumeration; singular classes are split.
    """
    if i == 0:
        return 1
    if not f.coefficients_integer():
        raise ValueError("integer coefficients required")
    n = f.nvars
    derivs = [f.derivative(v) for v in f.vars]

    def descend(point: tuple[int, ...], j: int) -> int:
        pj = p**j
        if f.eval_int(point) % pj != 0:
            return 0
        if j == i:
            return 1
        if any(d.eval_int(point) % p != 0 for d in derivs):
            return p ** ((n - 1) * (i - j))
        total = 0
        step = pj
        for delta in product(range(p), repeat=n):
            lifted = tuple(a + d * step for a, d in zip(point, delta))
            total += descend(lifted, j + 1)
        return total

    total = 0
    for pt in product(range(p), repeat=n):
        total += descend(pt, 1)
    return total


def poincare_truncation(f: MultiPoly, p: int, imax: int) -> PoincareSeries:
    """P(t) up to t^imax from direct counts: coefficient of t^i is
    M_i p^(-n i)."""
    n = f.nvars
    coeffs = [Fraction(count_hensel(f, p, i), p ** (n * i)) for i in range(imax + 1)]
    return PoincareSeries(p, n, coeffs)


def verify_zeta_against_counts(
    z: ZetaRational, f: MultiPoly, imax: int
) -> tuple[bool, list[int], list[int]]:
    """Compare the counts predicted by z with direct counting up to p^imax."""
    n = f.nvars
    predicted = poincare_from_zeta(z, n, imax).counts()
    actual = [count_hensel(f, z.p, i) for i in range(imax + 1)]
    return predicted == actual, predicted, actual
