"""Exact p-adic integrals by residue-class descent and blowup.

Computes W = integral over p^(j1)Z_p x p^(j2)Z_p of
    |f(x,y)|^s |x|^(A s + a - 1) |y|^(B s + b - 1) |dx dy|
as a ZetaRational.  The weight pairs (A,a), (B,b) accumulate the monomial
factors produced by blowups, so the recursion mirrors an embedded
resolution of f while staying entirely inside exact arithmetic.  This is
the only class descent: one-variable integrals
(`charts.integrate_univariate`) run through it with f free of y.
"""

from __future__ import annotations

from fractions import Fraction

from .context import PadicContext
from .poly import MultiPoly, blowup_chart_a, blowup_chart_b
from .zeta import ZetaRational, one_var_integral

MAX_DEPTH = 200


def axis_integral(p: int, j: int, A: int, a: int) -> ZetaRational:
    """Integral of |x|^(A s + a - 1) over p^j Z_p."""
    if A >= 1:
        return one_var_integral(p, j, A, a)
    c = Fraction(p - 1, p) * Fraction(1, p ** (j * a)) / (1 - Fraction(1, p**a))
    return ZetaRational.const(p, c)


def zeta_two_var(f: MultiPoly, ctx: PadicContext) -> ZetaRational:
    """Igusa zeta function of f in two variables over Z_p^2."""
    if f.nvars != 2:
        raise ValueError("two variables required")
    if f.is_zero():
        raise ValueError("f must be nonzero")
    if not f.coefficients_integer():
        raise ValueError("integer coefficients required")
    z = _W(f, ctx.p, 0, 1, 0, 1, 0, 0, 0)
    return z.reduced()


def _W(f: MultiPoly, p: int, A: int, a: int, B: int, b: int, j1: int, j2: int, depth: int) -> ZetaRational:
    if depth > MAX_DEPTH:
        raise ArithmeticError("integration recursion depth exceeded")
    xn, yn = f.vars
    tshift = 0
    scale = Fraction(1)
    if j1 or j2:
        f = f.subs({xn: p**j1 * MultiPoly.var(f.vars, xn),
                    yn: p**j2 * MultiPoly.var(f.vars, yn)})
        tshift += j1 * A + j2 * B
        scale *= Fraction(1, p ** (j1 * a + j2 * b))
    w = f.content_power(p)
    if w:
        f = f.divide_scalar(p**w)
        tshift += w
    # absorb coordinate-axis factors of f into the weights
    for name in (xn, yn):
        e = 0
        while f.divisible_by_var(name):
            f = f.divide_var_power(name, 1)
            e += 1
        if e:
            if name == xn:
                A += e
            else:
                B += e
    fx = f.derivative(xn)
    fy = f.derivative(yn)
    ov = one_var_integral(p, 1, 1, 1)
    total = ZetaRational.zero(p)
    for c in range(p):
        for d in range(p):
            mx = ZetaRational.const(p, Fraction(1, p)) if c else axis_integral(p, 1, A, a)
            my = ZetaRational.const(p, Fraction(1, p)) if d else axis_integral(p, 1, B, b)
            if f.eval_int((c, d)) % p != 0:
                total = total + mx * my
                continue
            if fy.eval_int((c, d)) % p != 0 and (d != 0 or (B, b) == (0, 1)):
                total = total + mx * ov
                continue
            if fx.eval_int((c, d)) % p != 0 and (c != 0 or (A, a) == (0, 1)):
                total = total + ov * my
                continue
            if c != 0 and d != 0:
                g = f.subs({xn: c + p * MultiPoly.var(f.vars, xn),
                            yn: d + p * MultiPoly.var(f.vars, yn)})
                total = total + _W(g, p, 0, 1, 0, 1, 0, 0, depth + 1).scale(
                    Fraction(1, p * p)
                )
            elif c != 0:  # d == 0: keep the y-weight, translate x
                g = f.subs({xn: c + p * MultiPoly.var(f.vars, xn)})
                total = total + _W(g, p, 0, 1, B, b, 0, 1, depth + 1).scale(
                    Fraction(1, p)
                )
            elif d != 0:  # c == 0: keep the x-weight, translate y
                g = f.subs({yn: d + p * MultiPoly.var(f.vars, yn)})
                total = total + _W(g, p, A, a, 0, 1, 1, 0, depth + 1).scale(
                    Fraction(1, p)
                )
            else:
                # origin: blow up.  Chart x = u, y = u v covers |y| <= |x|,
                # chart x = u v, y = v the rest; both restricted to pZ_p^2.
                ga, mu = blowup_chart_a(f, xn, yn)
                gb, _ = blowup_chart_b(f, xn, yn)
                total = total + _W(ga, p, A + B + mu, a + b, B, b, 1, 0, depth + 1)
                total = total + _W(gb, p, A, a, A + B + mu, a + b, 1, 1, depth + 1)
    return total.scale(scale).shift(tshift)
