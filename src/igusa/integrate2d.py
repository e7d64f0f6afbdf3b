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
subproblems run once.  `charts.integrate_univariate` runs the same descent
on f free of y.  A call is one `zeta_sum` of integer triples (cs, d, den),
cs over d over the factor multiset den: n classes of a kind make one
monomial over at most two binomials (`measure_term`), n subproblems with scale
p^-k make cs n over d p^k, and the call's own scale and shift are applied
when they are not 1.

At the first class that descends (the origin, if it descends at all) the
call tries the Newton closure (`_newton_closure`) once, before it builds
that class's subproblem or scans the other classes.  It closes the call
when f is non-degenerate mod p with respect to its Newton polygon: one
triple per cone of the dual fan (Denef-Hoornaert, J. Number Theory 89
(2001)).  A call whose classes all close never tries it: the scan's Z
lacks the closure's factors ((2, 3) for y - x^2, a smooth origin).
Declined calls descend.

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
from functools import cache, lru_cache
from itertools import product
from math import gcd

from .context import PadicContext, vp
from .poly import MultiPoly, blowup_chart_a
from .qpoly import QPoly, convolve
from .zeta import ZetaRational, measure_term, zeta_sum

MAX_DEPTH = 200
UNIT, LIFT = (1, 0, 1), (1, 1, 1)


def zeta_two_var(f: MultiPoly, ctx: PadicContext) -> ZetaRational:
    """Igusa zeta function of f in two variables over Z_p^2."""
    if f.nvars != 2:
        raise ValueError("two variables required")
    if f.is_zero():
        raise ValueError("f must be nonzero")
    return _W(f, ctx.p, 0, 1, 0, 1, 0, 0, 0).reduced()


@cache
def _beta(p: int, B: int, b: int) -> ZetaRational:
    keys = [(1, (0, 0, 1)), (-2, UNIT), (1, LIFT), (1, (1, B, b)), (-1, (0, B + 1, b))]
    return zeta_sum(p, [measure_term(p, n, 1, key) for n, key in keys])


def _scaled(z: ZetaRational, E: int, k: int) -> ZetaRational:
    """z p^(-E) t^k, one normalisation."""
    cs, d = z.numerator.to_ints()
    return ZetaRational._of(z.p, QPoly.from_ints([0] * k + list(cs), d * z.p**E), z.denominator) if E or k else z


def _W(f: MultiPoly, p: int, A: int, a: int, B: int, b: int, j1: int, j2: int, depth: int) -> ZetaRational:
    if depth > MAX_DEPTH:
        raise ArithmeticError("integration recursion depth exceeded")
    xn, yn = f.vars
    tshift, E = j1 * A + j2 * B, j1 * a + j2 * b
    if j1 or j2:
        f = f.subs({xn: (0, p**j1), yn: (0, p**j2)})
    # divide out the content p^w (a factor t^w) and the axis factor
    # x^ex y^ey (absorbed into the weights)
    w = min(vp(c, p) for c in f.terms.values())
    ex, ey = (min(e[i] for e in f.terms) for i in (0, 1))
    if w or ex or ey:
        f = MultiPoly(f.vars, {(i - ex, j - ey): c // p**w for (i, j), c in f.terms.items()})
    A, B = A + ex, B + ey
    fx, fy = f.derivative(xn), f.derivative(yn)
    # Sort the classes (c, d) mod p by kind: `factors` counts pairs of
    # measure keys, `subproblems` the classes that descend, keyed by the
    # arguments of the recursive call, the k of its scale p^-k and the
    # weighted axis it crosses, if any.  None is a whole free axis.  A
    # coordinate runs over c + pZ_p without weight iff its key is UNIT.
    factors, subproblems = Counter(), Counter()
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
                continue
            if sx and ux:
                factors[LIFT, ky] += 1
                continue
            # the first class that descends asks the closure, before its
            # subproblem (at the origin, two blowup charts) is built
            if not subproblems and (z := _newton_closure(f, p, A, a, B, b)) is not None:
                return _scaled(z, E, tshift + w)
            if sy and ux:  # crossing of the weighted y axis: h'(x) = f(c + p x, 0)
                subproblems[f.subs({xn: (c, p), yn: (0, 0)}), 0, 1, 0, 1, 0, 0, 1, (B, b)] += 1
            elif sx and uy:
                subproblems[f.subs({xn: (0, 0), yn: (d, p)}), 0, 1, 0, 1, 0, 0, 1, (A, a)] += 1
            elif c or d or (0, 0) in f.terms:
                # a unit coordinate is translated by c + p x and loses its
                # weight; a zero coordinate keeps its weight on pZ_p.  An
                # origin class with f(0, 0) != 0 is no singular point to blow
                # up: rescaling x, y by p removes a factor p from f(0, 0).
                g = f.subs({name: (v, p) for name, v in ((xn, c), (yn, d)) if v})
                wx, wy = (0, 1) if c else (A, a), (0, 1) if d else (B, b)
                subproblems[(g, *wx, *wy, int(c == 0), int(d == 0), bool(c) + bool(d), None)] += 1
            else:
                # origin: blow up.  Chart x = u, y = u v covers |y| <= |x|,
                # chart x = u v, y = v the rest; both restricted to pZ_p^2.
                ga, mu = blowup_chart_a(f, xn, yn)
                gb, _ = blowup_chart_a(f, yn, xn)
                subproblems[ga, A + B + mu, a + b, B, b, 1, 0, 0, None] += 1
                subproblems[gb, A, a, A + B + mu, a + b, 1, 1, 0, None] += 1
    terms = [measure_term(p, n, 1, *keys) for keys, n in factors.items()]
    done: dict = {}  # equal arguments from different kinds of class run once
    for (g, *args, k, cross), n in subproblems.items():
        if (key := (g, *args)) not in done:
            done[key] = _W(g, p, *args, depth + 1)
        z = done[key]
        if cross:  # alpha + beta z(lam), lam = p^(-b) t^(B + 1), (B, b) = cross
            terms.append(measure_term(p, n, p**k, (1, cross[0] + 1, cross[1])))
            z = _beta(p, *cross) * z.substitute(cross[0] + 1, cross[1])
        cs, d = z.numerator.to_ints()
        terms.append(([n * c for c in cs], d * p**k, z.denominator))
    return _scaled(zeta_sum(p, terms), E, tshift + w)


def _binomial_zeros(face: dict[tuple[int, int], int], p: int) -> int | None:
    """The zeros of the binomial {(a, b): c1, (c, d): c2} (units mod p) on
    (F_p^*)^2, or None if one is singular: (p - 1) h if (-c1/c2)^((p-1)/h) = 1,
    else none, h = gcd(G, p - 1), G = gcd(c - a, d - b).  x^(c-a) y^(d-b) maps
    the torus onto the h-th powers, each one (p - 1) h times.  The gradient at
    a zero is c2 x^c y^d ((c - a)/x, (d - b)/y), so p | G makes each singular."""
    ((a, b), c1), ((c, d), c2) = face.items()
    G = gcd(c - a, d - b)
    h = gcd(G, p - 1)
    if pow(-c1 * pow(c2, -1, p), (p - 1) // h, p) != 1:
        return 0
    return None if G % p == 0 else (p - 1) * h


@lru_cache(maxsize=256)
def _torus_zeros(g: MultiPoly, p: int) -> int | None:
    """The zeros of g (three or more terms mod p) on (F_p^*)^2, enumerated, or
    None if one is singular.  Bounded: faces of many f would fill a cache."""
    gx, gy = (g.derivative(name) for name in g.vars)
    zeros = 0
    for pt in product(range(1, p), repeat=2):
        if g.eval_int(pt) % p == 0:
            if gx.eval_int(pt) % p == 0 and gy.eval_int(pt) % p == 0:
                return None
            zeros += 1
    return zeros


def _parallelepiped(r: tuple[int, int], s: tuple[int, int]) -> list[tuple[int, int]]:
    """The lattice points x r + y s, 0 < x, y <= 1, for primitive r, s with
    D = det(r, s) > 0, in O(D): with det(r, w) = 1 and c = det(s, w), the
    one with det(r, q) = j is j w + (floor(j c / D) + 1) r, j = 1, ..., D."""
    (r0, r1), (s0, s1) = r, s
    w1 = pow(r0, -1, r1) if r1 else r0  # r1 = 0 makes r0 = +-1
    w0 = (r0 * w1 - 1) // r1 if r1 else 0
    D, c = r0 * s1 - r1 * s0, s0 * w1 - s1 * w0
    return [(j * w0 + k * r0, j * w1 + k * r1) for j in range(1, D + 1) for k in [j * c // D + 1]]


def _newton_closure(f: MultiPoly, p: int, A: int, a: int, B: int, b: int) -> ZetaRational | None:
    """W of a normalised f (content 1, no factor x or y) over Z_p^2 when f
    is non-degenerate mod p with respect to its Newton polygon, else None.

    Where (v(x), v(y)) = k, f = p^m(k) (f_tau(u) + p (...)) with u units,
    m(k) the least k.e over the exponents e of f and tau the face where it
    is reached.  If f_tau has no singular zero on (F_p^*)^2, the units add
    J_tau = ((p-1)^2 - N_tau) UNIT^2 + N_tau UNIT LIFT, N_tau its zeros
    there (Denef-Hoornaert, Thm 4.2).  One pass over the dual fan: a 2-cone,
    between adjacent rays, has a vertex v of the polygon as its face, with
    N_tau = 0; a ray has an edge or axis face through v, and {0} f itself.
    Only these last, with two terms or more, count zeros (`_binomial_zeros`).
    On a cone m(k) = v.k, so (N, nu)(k) = (((A, B) + v).k, (a, b).k), and
    the sum of the p^(-nu(k)) t^N(k) over the cone's interior is that over
    its fundamental parallelepiped (`_parallelepiped`) divided by
    prod (1 - p^(-nu(g)) t^N(g)) over its generators g: an integer list over
    its own denominator.  One `zeta_sum` adds the cones.  An edge whose
    (N, nu) has a common divisor declines: `ZetaRational.reduced` cancels
    only whole binomials, and the descent reaches that edge through the
    factors of a smaller one."""
    low: dict[int, int] = {}
    for i, j in f.terms:
        low[i] = min(j, low.get(i, j))
    hull: list[tuple[int, int]] = []  # lower vertices, from (0, j0) to (i0, 0)
    for v in sorted(low.items()):
        while len(hull) > 1:
            (i0, j0), (i1, j1) = hull[-2:]
            if (i1 - i0) * (v[1] - j0) > (j1 - j0) * (v[0] - i0):
                break
            hull.pop()
        hull.append(v)
        if not v[1]:
            break
    # a vertex divisible by p makes each torus point a singular zero of its
    # face: the usual way to decline, so it is tested first
    if any(f.terms[v] % p == 0 for v in hull):
        return None
    rays = [(1, 0), *((u // g, v // g) for (i0, j0), (i1, j1) in zip(hull, hull[1:])
                      for u, v in [(j0 - j1, i1 - i0)] for g in [gcd(u, v)]), (0, 1)]
    # the edge ray after vertex v has m(k) = v.k
    if any(gcd((A + i) * u + (B + j) * v, a * u + b * v) > 1 for (i, j), (u, v) in zip(hull, rays[1:-1])):
        return None
    # (vertex, generators): the 2-cones, the rays, each through the vertex
    # before it (the first through hull[0]), and {0}
    cones = [*zip(hull, zip(rays, rays[1:])), *((v, (r,)) for v, r in zip([hull[0], *hull], rays)),
             ((0, 0), ())]
    sq = (p - 1) ** 2
    terms = []
    for (i, j), gens in cones:
        if len(gens) == 2:
            n, points = 0, _parallelepiped(*gens)
        else:  # a ray, or {0}
            u, v = gens[0] if gens else (0, 0)
            points, m = [(u, v)], i * u + j * v
            face = {e: c for e, c0 in f.terms.items() if e[0] * u + e[1] * v == m and (c := c0 % p)}
            n = (0 if len(face) < 2 else _binomial_zeros(face, p) if len(face) == 2
                 else _torus_zeros(MultiPoly(f.vars, face), p))
            if n is None:
                return None
        # the sum of the p^(-nu) t^N as integers over p^E
        P, Q = A + i, B + j
        pts = [(P * u + Q * v, a * u + b * v) for u, v in points]
        E = max(nu for _, nu in pts)
        cs, d = [0] * (max(N for N, _ in pts) + 1), p**E
        for N, nu in pts:
            cs[N] += p ** (E - nu)
        den: dict = {}
        for u, v in gens:
            N, nu = P * u + Q * v, a * u + b * v
            if N:
                den[N, nu] = den.get((N, nu), 0) + 1
            else:  # the constant 1 / (1 - p^-nu)
                cs, d = [c * p**nu for c in cs], d * (p**nu - 1)
        # times J_tau: [p (sq - n), n p - sq] / p^3 over the factor (1, 1)
        # of UNIT LIFT, sq = (p - 1)^2, the constant sq / p^2 when n = 0
        if n:
            cs, d = convolve(cs, [p * (sq - n), n * p - sq]), d * p**3
            den[1, 1] = den.get((1, 1), 0) + 1
        else:
            cs, d = [sq * c for c in cs], d * p * p
        terms.append((cs, d, den))
    return zeta_sum(p, terms)
