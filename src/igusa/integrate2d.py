"""Exact p-adic integrals by residue-class descent and blowup.

Computes W = integral over p^(j1)Z_p x p^(j2)Z_p of
    |f(x,y)|^s |x|^(A s + a - 1) |y|^(B s + b - 1) |dx dy|
as a ZetaRational; the weights (A,a), (B,b) collect the monomial factors
of blowups, so the recursion mirrors an embedded resolution of f.  Each
call sorts the classes mod p by kind and integrates each kind once.  A
class where f is a unit or smooth adds a product of per-coordinate
measures `one_var_integral(p, j, N, nu)`, each kind being its key
(j, N, nu): (0, A, a) a whole axis that f does not involve, (1, 0, 1) = 1/p
a unit class, (1, A, a) the class at 0, (1, 1, 1) a smooth lift.  Any
other class is a subproblem, reached by one affine substitution
(`MultiPoly.subs`) or, at the origin, by the blowup charts.  Equal
subproblems run once, scaled by their count.  This is the only class
descent: `charts.integrate_univariate` runs it on f free of y.

A crossing class (c, 0) of a weighted y axis, where f = 0 and f_y != 0
mod p and x runs over c + pZ_p unweighted, closes in one step.  For each
x, f is an isometry of pZ_p in y: |f| = |y - y0|, k = v(y0) = v(h(x)),
h(x) = f(x, 0).  With lam = p^(-b) t^(B+1) and m = `one_var_integral`,
the y-integral over v(y) < k is m(1, B+1, b) - m(0, B+1, b) lam^k, over
v(y) = k (m(0, 0, 1) - 2 m(1, 0, 1) + m(1, 1, 1)) lam^k (the units less
the class of y0, then that class), over v(y) > k m(1, B, b) lam^k.  So it
is alpha + beta lam^k, and the class adds (alpha + beta Z_h'(lam))/p,
h'(x) = h(c + p x): one descent on h', then `ZetaRational.substitute`.
At (B, b) = (0, 1) beta is 0: the smooth rule.  The class (0, d) of a
weighted x axis is the same with x and y swapped.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache

from .context import PadicContext, vp
from .poly import MultiPoly, blowup_chart_a
from .zeta import ZetaRational, one_var_integral, zeta_sum

MAX_DEPTH = 200


# built once per process and shared: ZetaRational operations return new objects
_measure = cache(one_var_integral)
UNIT, LIFT = (1, 0, 1), (1, 1, 1)


def zeta_two_var(f: MultiPoly, ctx: PadicContext) -> ZetaRational:
    """Igusa zeta function of f in two variables over Z_p^2."""
    if f.nvars != 2:
        raise ValueError("two variables required")
    if f.is_zero():
        raise ValueError("f must be nonzero")
    z = _W(f, ctx.p, 0, 1, 0, 1, 0, 0, 0)
    return z.reduced()


@cache
def _beta(p: int, B: int, b: int) -> ZetaRational:
    return zeta_sum(p, [_measure(p, 0, 0, 1), _measure(p, *UNIT).scale(-2), _measure(p, *LIFT),
                        _measure(p, 1, B, b), _measure(p, 0, B + 1, b).scale(-1)])


def _crossing(p: int, B: int, b: int, z: ZetaRational) -> ZetaRational:
    """alpha + beta z(lam) for a crossing of the weighted axis (B, b)."""
    return zeta_sum(p, [_measure(p, 1, B + 1, b), _beta(p, B, b) * z.substitute(B + 1, b)])


def _W(f: MultiPoly, p: int, A: int, a: int, B: int, b: int, j1: int, j2: int, depth: int) -> ZetaRational:
    if depth > MAX_DEPTH:
        raise ArithmeticError("integration recursion depth exceeded")
    xn, yn = f.vars
    tshift = j1 * A + j2 * B
    scale = Fraction(1, p ** (j1 * a + j2 * b))
    if j1 or j2:
        f = f.subs({xn: (0, p**j1), yn: (0, p**j2)})
    # divide out the content p^w (a factor t^w) and the axis factor
    # x^ex y^ey (absorbed into the weights)
    w = min(vp(c, p) for c in f.terms.values())
    ex = min(i for i, _ in f.terms)
    ey = min(j for _, j in f.terms)
    if w or ex or ey:
        f = MultiPoly(f.vars, {(i - ex, j - ey): c // p**w for (i, j), c in f.terms.items()})
    A, B = A + ex, B + ey
    fx, fy = f.derivative(xn), f.derivative(yn)
    # Sort the classes (c, d) mod p by kind: `factors` counts pairs of
    # measure keys, `subproblems` the classes that descend, keyed by the
    # arguments of the recursive call, the k of its scale p^-k and the
    # weighted axis it crosses, if any.  None is a whole free axis.  A
    # coordinate runs over c + pZ_p without weight iff its key is UNIT.
    factors: Counter = Counter()
    subproblems: Counter = Counter()
    for c in range(p) if fx.terms else [None]:
        for d in range(p) if fy.terms else [None]:
            kx = (0, A, a) if c is None else UNIT if c else (1, A, a)
            ky = (0, B, b) if d is None else UNIT if d else (1, B, b)
            ux, uy = kx == UNIT, ky == UNIT
            pt = (c or 0, d or 0)
            if f.eval_int(pt) % p != 0:
                factors[kx, ky] += 1
                continue
            sx, sy = fx.eval_int(pt) % p, fy.eval_int(pt) % p
            if sy and uy:
                factors[kx, LIFT] += 1
            elif sx and ux:
                factors[LIFT, ky] += 1
            elif sy and ux:  # crossing of the weighted y axis: h'(x) = f(c + p x, 0)
                subproblems[f.subs({xn: (c, p), yn: (0, 0)}), 0, 1, 0, 1, 0, 0, 1, (B, b)] += 1
            elif sx and uy:
                subproblems[f.subs({xn: (0, 0), yn: (d, p)}), 0, 1, 0, 1, 0, 0, 1, (A, a)] += 1
            elif c or d or (0, 0) in f.terms:
                # a unit coordinate is translated by c + p x and loses its
                # weight; a zero coordinate keeps its weight on pZ_p.  An
                # origin class with f(0, 0) != 0 is no singular point to blow
                # up: rescaling x, y by p removes a factor p from f(0, 0).
                g = f.subs({name: (v, p) for name, v in ((xn, c), (yn, d)) if v})
                wx = (0, 1) if c else (A, a)
                wy = (0, 1) if d else (B, b)
                subproblems[g, *wx, *wy, int(c == 0), int(d == 0), bool(c) + bool(d), None] += 1
            else:
                # origin: blow up.  Chart x = u, y = u v covers |y| <= |x|,
                # chart x = u v, y = v the rest; both restricted to pZ_p^2.
                ga, mu = blowup_chart_a(f, xn, yn)
                gb, _ = blowup_chart_a(f, yn, xn)
                subproblems[ga, A + B + mu, a + b, B, b, 1, 0, 0, None] += 1
                subproblems[gb, A, a, A + B + mu, a + b, 1, 1, 0, None] += 1
    terms = [(_measure(p, *kx) * _measure(p, *ky)).scale(n) for (kx, ky), n in factors.items()]
    # equal arguments from different kinds of class run once
    W = cache(lambda g, *args: _W(g, p, *args, depth + 1))
    for (g, *args, k, cross), n in subproblems.items():
        z = W(g, *args)
        terms.append((_crossing(p, *cross, z) if cross else z).scale(Fraction(n, p**k)))
    return zeta_sum(p, terms).scale(scale).shift(tshift + w)
