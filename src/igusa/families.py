"""Closed-form zeta data for the worked families of curve and surface germs."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .context import PadicContext, vp
from .integrate2d import zeta_two_var
from .poly import MultiPoly, parse_poly
from .qpoly import QPoly
from .radical import RadicalScalar, ResidueValue, geometric
from .zeta import ZetaRational, laurent_at


def zeta_sum_squares(ctx: PadicContext):
    """Zeta function of x^2 + y^2 and its Laurent data at s = -1."""
    z = zeta_two_var(parse_poly("x^2+y^2"), ctx)
    exp = laurent_at(z, Fraction(-1))
    return z, [(Fraction(-1), exp.b(exp.pole_order))]


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
    return pow(u % p, (p - 1) // 2, p) == 1


def zeta_x2_ayl(ctx: PadicContext, a: int, l: int):
    """Zeta function of x^2 + a*y^l: real pole parts, the residue at the
    smallest real pole, and the exact Z."""
    if l < 2:
        raise ValueError("need l >= 2")
    if a == 0:
        raise ValueError("a must be nonzero")
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


def _residue(p: int, M: int, kappa: Fraction, terms: list[tuple[int, int, int, int]]) -> ResidueValue:
    """kappa / p sum c w^x / (1 - B w^k) over the (c, k, x, B) in terms, in
    Q(w), w = p^(1/M), as one integer vector over one denominator: each term
    is a geometric sum (`geometric`), and with B = 1 it is
    w^x / (1 - w^k) = sum_(j<n) w^(kj + x) / (1 - p^(kn/M)), n = M / gcd(k, M)."""
    sums = [(c, *geometric(p, M, k, x, 1, B)) for c, k, x, B in terms]
    L = lcm(*(D for _, _, D in sums))
    acc = [0] * M
    for c, vec, D in sums:
        m = c * L // D * kappa.numerator
        acc = [y + m * v for y, v in zip(acc, vec)]
    return ResidueValue(RadicalScalar(p, M, QPoly.from_ints(acc, p * L * kappa.denominator)), 1)


def residue_x2_ayl_odd(ctx: PadicContext, a: int, r: int) -> ResidueValue:
    """Closed-form residue of x^2 + a*y^(2r+1), r >= 1, at s0 = -1/2 - 1/(2r+1):
    kappa |a|^(-1/(2r+1)) ((p-2)/p + (p-1)/p sum_k (w^k - 1)^(-1)) in Q(w),
    w = p^(1/M), M = 2(2r+1), for k/M = 1/2, 1/2 - 1/(2r+1) and 1/(2r+1),
    with kappa = (p-1)/(p(4r+2)) and |a|^(-1/(2r+1)) = w^(2 v_p(a))."""
    if r < 1:
        raise ValueError("need r >= 1")
    if a == 0:
        raise ValueError("a must be nonzero")
    q, M, v = ctx.p, 4 * r + 2, 2 * vp(a, ctx.p)
    terms = [(q - 2, 0, v, 0)] + [(1 - q, k, v, 1) for k in (2 * r + 1, 2 * r - 1, 2)]
    return _residue(q, M, Fraction(q - 1, q * M), terms)


def residue_x2_ayl_even(ctx: PadicContext, a: int, r: int) -> ResidueValue:
    """Closed-form residue of x^2 + a*y^(2r), r >= 1, at s0 = -(r+1)/(2r), in
    the character-free subcases, kappa = (p-1)/(2rp), w = p^(1/M): if -a is a
    non-square unit (p odd), kappa (1 + (p-1)/p (w - 1)^(-1)) with M = r; if p = 2
    and |1 + a*u^2| = 1/2 on the units (a = 1 mod 8), kappa ((p-1)/p + p^(-s0)/p
    + (p-1)/p (p^(1/r) - 1)^(-1)) with M = lcm(r, the denominator of s0)."""
    if r < 1:
        raise ValueError("need r >= 1")
    q = ctx.p
    kappa = Fraction(q - 1, q * 2 * r)
    if q != 2:
        if is_square_qp(-a, q) or vp(a, q) != 0:
            raise ValueError("closed form requires -a a non-square unit")
        return _residue(q, r, kappa, [(q, 0, 0, 0), (1 - q, 1, 0, 1)])
    if a % 8 != 1:
        raise ValueError("p = 2 closed form requires a = 1 mod 8")
    M = lcm(r, Fraction(r + 1, 2 * r).denominator)  # p^(-s0) = w^((r+1)M/(2r))
    terms = [(q - 1, 0, 0, 0), (1, 0, (r + 1) * M // (2 * r), 0), (1 - q, M // r, 0, 1)]
    return _residue(q, M, kappa, terms)


def zeta_xy_zi(ctx: PadicContext, i: int) -> ZetaRational:
    """Zeta function of x*y + z^i over Z_p^3: (p-1)/p (1 - p^-3 t +
    (p-1) sum_(2<=j<i) p^-(j+2) t^j) / ((1 - p^-1 t)(1 - p^-(i+1) t^i)),
    its numerator as integers over p^(i+2)."""
    if i < 2:
        raise ValueError("need i >= 2")
    q = ctx.p
    nums = [q ** (i + 1), -(q ** (i - 2))] + [(q - 1) * q ** (i - 1 - j) for j in range(2, i)]
    num = QPoly.from_ints([(q - 1) * c for c in nums], q ** (i + 2))
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
