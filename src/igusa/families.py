"""Closed-form zeta data for the worked families of curve and surface germs."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .context import PadicContext, vp
from .integrate2d import zeta_two_var
from .poly import MultiPoly, parse_poly
from .qpoly import QPoly
from .radical import RadicalScalar, ResidueValue
from .zeta import ZetaRational, laurent_at


def zeta_sum_squares(ctx: PadicContext):
    """Zeta function of x^2 + y^2 and its Laurent data at s = -1."""
    z = zeta_two_var(parse_poly("x^2+y^2"), ctx)
    exp = laurent_at(z, Fraction(-1))
    laurent = [(Fraction(-1), exp.b(exp.pole_order))]
    return z, laurent


def is_square_qp(a: int, p: int) -> bool:
    """Whether the nonzero integer a is a square in Q_p."""
    if a == 0:
        raise ValueError("a must be nonzero")
    v = vp(a, p)
    if v % 2:
        return False
    u = a // p**v
    if p == 2:
        return u % 8 == 1
    if u % p == 0:
        raise AssertionError
    return pow(u % p, (p - 1) // 2, p) == 1


def zeta_x2_ayl(ctx: PadicContext, a: int, l: int):
    """Zeta function of x^2 + a*y^l: real pole parts, the residue at the
    smallest real pole, and the exact Z."""
    if l < 2:
        raise ValueError("need l >= 2")
    if a == 0:
        raise ValueError("a must be nonzero")
    p = ctx.p
    f = MultiPoly(("x", "y"), {(2, 0): 1, (0, l): a})
    z = zeta_two_var(f, ctx)
    parts = real_pole_parts(z)
    # the distinguished pole of the multiplicity-2 family: -1/2 - 1/l for
    # l > 2 (odd l = 2r+1 and even l = 2r alike), -1 for l = 2
    s0 = Fraction(-1) if l == 2 else Fraction(-1, 2) - Fraction(1, l)
    exp = laurent_at(z, s0)
    return parts, exp.b(exp.pole_order), z


def real_pole_parts(z: ZetaRational) -> list[Fraction]:
    """Real parts -nu/N of genuine real poles of z, ascending."""
    return [s0 for s0, _ in z.candidate_poles() if z.is_real_pole(s0)]


def residue_x2_ayl_odd(ctx: PadicContext, a: int, r: int) -> ResidueValue:
    """Closed-form residue of x^2 + a*y^(2r+1) at s0 = -1/2 - 1/(2r+1)."""
    if a == 0:
        raise ValueError("a must be nonzero")
    q = ctx.p
    M = lcm(2, 2 * r + 1)
    one = RadicalScalar.from_rational(q, 1, M)
    va = vp(a, q)

    def qpow(e: Fraction) -> RadicalScalar:
        return RadicalScalar.p_power(q, e).lifted(M)

    bracket = (
        one * Fraction(q - 2, q)
        + Fraction(q - 1, q) * (qpow(Fraction(1, 2)) - 1).inverse()
        + Fraction(q - 1, q)
        * (qpow(Fraction(1, 2) - Fraction(1, 2 * r + 1)) - 1).inverse()
        + Fraction(q - 1, q) * (qpow(Fraction(1, 2 * r + 1)) - 1).inverse()
    )
    kappa = Fraction(q - 1, q * (4 * r + 2))
    value = bracket * qpow(Fraction(va, 2 * r + 1)) * kappa
    return ResidueValue(value, 1)


def residue_x2_ayl_even(ctx: PadicContext, a: int, r: int) -> ResidueValue:
    """Closed-form residue of x^2 + a*y^(2r) at s0 = -(r+1)/(2r), in the
    character-free subcases: -a a non-square unit (p odd), or p = 2 with
    |1 + a*u^2| = 1/2 on the units (e.g. a = 1)."""
    q = ctx.p
    kappa = Fraction(q - 1, q * 2 * r)
    inv = (RadicalScalar.p_power(q, Fraction(1, r)) - 1).inverse()
    if q != 2:
        if is_square_qp(-a, q) or vp(a, q) != 0:
            raise ValueError("closed form requires -a a non-square unit")
        value = (inv * Fraction(q - 1, q) + 1) * kappa
    else:
        if a % 8 != 1:
            raise ValueError("p = 2 closed form requires a = 1 mod 8")
        s0 = Fraction(-(r + 1), 2 * r)
        value = (
            inv * Fraction(q - 1, q)
            + RadicalScalar.from_rational(q, Fraction(q - 1, q))
            + RadicalScalar.p_power(q, -s0) * Fraction(1, q)
        ) * kappa
    return ResidueValue(value, 1)


def zeta_xy_zi(ctx: PadicContext, i: int) -> ZetaRational:
    """Zeta function of x*y + z^i over Z_p^3."""
    if i < 2:
        raise ValueError("need i >= 2")
    q = ctx.p
    coeffs = [Fraction(0)] * i
    coeffs[0] = Fraction(1)
    coeffs[1] = Fraction(-1, q**3)
    for j in range(2, i):
        coeffs[j] = Fraction(q - 1, q ** (j + 2))
    num = QPoly(coeffs).scale(Fraction(q - 1, q))
    return ZetaRational(q, num, {(1, 1): 1, (i, i + 1): 1})


def combine_sum_poles(F: set[Fraction], G: set[Fraction]) -> set[Fraction]:
    """The sums s1 + s2 of a real part s1 in F and a real part s2 in G."""
    return {s1 + s2 for s1 in F for s2 in G}


def theorem_membership(s0: Fraction, n: int) -> bool:
    """Whether s0 is allowed as the real part of a pole in dimension n:
    values below the threshold must be threshold - 1/i for an integer i > 1."""
    s0 = Fraction(s0)
    if n == 2:
        thr = Fraction(-1, 2)
    elif n == 3:
        thr = Fraction(-1)
    else:
        raise ValueError("n must be 2 or 3")
    if s0 >= thr:
        return True
    gap = thr - s0  # must be 1/i, i integer > 1
    return gap.numerator == 1 and gap.denominator > 1
