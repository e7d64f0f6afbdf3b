"""Sparse multivariate polynomials over Z, with a small expression parser.

Terms are stored as {exponent tuple: int coefficient}; the constructor is
the one place that rejects a non-integral coefficient.  Tangent cones and
the squarefree test run on univariate `QPoly`s (rational roots, Yun, and
gcds by `qpoly.prs`); sympy factors only a cone with a part of degree >= 4
or an end coefficient > 10^5 left.
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import count, islice
from math import comb, gcd

from .qpoly import QPoly, prs


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms: dict | None = None) -> None:
        self.vars = tuple(vars)
        self.terms: dict[tuple[int, ...], int] = {}
        if terms:
            for e, c in terms.items():
                if type(c) is not int:
                    if c != int(c):
                        raise ValueError("integer coefficients required")
                    c = int(c)
                if c:
                    self.terms[tuple(e)] = c

    @classmethod
    def const(cls, vars: tuple[str, ...], c) -> "MultiPoly":
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def var(cls, vars: tuple[str, ...], name: str) -> "MultiPoly":
        e = [0] * len(vars)
        e[vars.index(name)] = 1
        return cls(vars, {tuple(e): 1})

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly(self.vars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly(self.vars, out)

    def __pow__(self, k: int) -> "MultiPoly":
        """Repeated squaring: about 2 log2(k) products."""
        out, base = MultiPoly.const(self.vars, 1), self
        while k > 0:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def multiplicity_at_origin(self) -> int:
        """Minimal total degree of a monomial; the zero polynomial has none."""
        if not self.terms:
            raise ValueError("zero polynomial has no multiplicity")
        return min(sum(e) for e in self.terms)

    def lowest_form(self) -> "MultiPoly":
        """Sum of the monomials of minimal total degree (the tangent cone)."""
        mu = self.multiplicity_at_origin()
        return MultiPoly(
            self.vars, {e: c for e, c in self.terms.items() if sum(e) == mu}
        )

    def derivative(self, name: str) -> "MultiPoly":
        i = self.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = out.get(tuple(e2), 0) + c * e[i]
        return MultiPoly(self.vars, out)

    def subs(self, values: dict) -> "MultiPoly":
        """Affine substitution: values maps a variable name to (c, s), and
        the variable becomes c + s*name.  Each power of a substituted
        variable expands term by term with binomial coefficients."""
        subst = [(self.vars.index(name), c, s) for name, (c, s) in values.items()]
        out: dict[tuple[int, ...], int] = {}
        for e, coef in self.terms.items():
            parts = [(e, coef)]
            for i, c, s in subst:
                k = e[i]
                parts = [
                    (e2[:i] + (m,) + e2[i + 1 :], c2 * (comb(k, m) * c ** (k - m) * s**m))
                    for e2, c2 in parts
                    for m in range(0 if c else k, k + 1)
                ]
            for e2, c2 in parts:
                out[e2] = out.get(e2, 0) + c2
        return MultiPoly(self.vars, out)

    def eval_int(self, point: tuple[int, ...]) -> int:
        """Evaluate at integer coordinates."""
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v *= x**k
            total += v
        return total

    def __repr__(self) -> str:
        return format_poly(self)


# -- parsing ------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[a-zA-Z][a-zA-Z0-9]*|\*\*|\^|[-+*()])")


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad character at {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str], vars: tuple[str, ...]) -> None:
        self.toks = tokens
        self.i = 0
        self.vars = vars

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expr(self) -> MultiPoly:
        if self.peek() == "+":  # a leading "-" is the unary minus of `atom`
            self.take()
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self) -> MultiPoly:
        node = self.power()
        while True:
            t = self.peek()
            if t == "*":
                self.take()
                node = node * self.power()
            elif t is not None and (t.isdigit() or t[0].isalpha() or t == "("):
                # implicit multiplication: 3x, x y, 2(x+1)
                node = node * self.power()
            else:
                return node

    def power(self) -> MultiPoly:
        base = self.atom()
        if self.peek() in ("^", "**"):
            self.take()
            if self.peek() == "-":
                raise ValueError("negative exponent")
            e = self.take()
            if e is None or not e.isdigit():
                raise ValueError("exponent must be a nonnegative integer")
            return base ** int(e)
        return base

    def atom(self) -> MultiPoly:
        t = self.take()
        if t == "(":
            node = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parenthesis")
            return node
        if t == "-":  # looser than ^: x*-y^2 is x*(-(y^2))
            return -self.power()
        if t is None:
            raise ValueError("unexpected end of expression")
        if t.isdigit():
            return MultiPoly.const(self.vars, int(t))
        if t[0].isalpha():
            if t not in self.vars:
                raise ValueError(f"unknown variable {t!r}")
            return MultiPoly.var(self.vars, t)
        raise ValueError(f"unexpected token {t!r}")


def poly_variables(text: str) -> tuple[str, ...]:
    """Variable names appearing in the expression, in order of first use."""
    seen: list[str] = []
    for t in _tokenize(text):
        if t and t[0].isalpha() and t not in seen:
            seen.append(t)
    return tuple(seen)


def parse_poly(text: str, vars: tuple[str, ...] | None = None) -> MultiPoly:
    """Parse an integer polynomial expression.

    Grammar: integers, variables, +, -, *, ^ (or **), parentheses;
    ^ binds tighter than *, which binds tighter than + and -.  A unary
    minus, anywhere, binds more loosely than ^: -x^2, 2*-x^2 and x--y^2
    negate the power.  Raises ValueError on a malformed or too deeply
    nested expression.
    """
    if vars is None:
        vars = poly_variables(text)
        if not vars:
            vars = ("x",)
    toks = _tokenize(text)
    if not toks:
        raise ValueError("empty expression")
    parser = _Parser(toks, tuple(vars))
    try:
        out = parser.expr()
    except RecursionError:
        raise ValueError("expression nested too deeply") from None
    if parser.i != len(toks):
        raise ValueError(f"trailing tokens near {toks[parser.i]!r}")
    return out


def format_poly(f: MultiPoly) -> str:
    """Graded-lex printer: higher total degree first, then lexicographic."""
    if not f.terms:
        return "0"
    keys = sorted(f.terms, key=lambda e: (-sum(e), tuple(-k for k in e)))
    parts = []
    for e in keys:
        c = f.terms[e]
        mono = "*".join(
            f"{v}^{k}" if k > 1 else v for v, k in zip(f.vars, e) if k
        )
        if not mono:
            piece = str(c)
        elif c == 1:
            piece = mono
        elif c == -1:
            piece = f"-{mono}"
        else:
            piece = f"{c}*{mono}"
        parts.append(piece)
    out = parts[0]
    for piece in parts[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


# -- tangent cones and the squarefree test, on QPoly ---------------------------


def _gcd(a: QPoly, b: QPoly) -> QPoly:
    return prs(a, b)[0]


def _deriv(a: QPoly) -> QPoly:
    return QPoly.from_ints([i * c for i, c in enumerate(a.nums)][1:], a.den)


def _quo(a: QPoly, b: QPoly) -> QPoly | None:
    """a / b if b divides a over Q, else None."""
    q, r = a.divmod(b)
    return q if r.is_zero() else None


def _yun(a: QPoly) -> list[tuple[QPoly, int]]:
    """Yun's square-free decomposition of a nonzero a: the (a_i, i) with
    a = c * prod a_i^i, each a_i primitive, squarefree and nonconstant."""
    b = _gcd(a, _deriv(a))
    c, d, out, i = _quo(a, b), _quo(_deriv(a), b), [], 1
    while c.degree > 0:
        d = d - _deriv(c)
        g = _gcd(c, d)
        if g.degree > 0:
            out.append((g, i))
        c, d, i = _quo(c, g), _quo(d, g), i + 1
    return out


def _factor_over_q(a: QPoly) -> list[tuple[list[int], int]] | None:
    """Irreducible factors over Q, with multiplicities, of a primitive a
    with a(0) != 0: a root u/v, u | a(0), v | lc(a), is v*tau - u, and the
    rest is split by Yun, its parts of degree 2 or 3 being irreducible.
    None if a part of degree >= 4 is left or a(0) or lc(a) exceeds 10^5."""
    a0, lc = abs(a.nums[0]), a.nums[-1]
    if max(a0, lc) > 10**5:
        return None
    us, vs = ([k for k in range(1, n + 1) if n % k == 0] for n in (a0, lc))
    out = []
    for u, v in [(s * u, v) for v in vs for u in us if gcd(u, v) == 1 for s in (1, -1)]:
        m = 0  # v^n a(u/v) = 0, in integers, proves that v*tau - u divides a
        while a.degree > 0 and not sum(c * u**i * v ** (a.degree - i) for i, c in enumerate(a.nums)):
            a, m = _quo(a, QPoly.from_ints([-u, v], 1)), m + 1
        if m:
            out.append(([-u, v], m))
    parts = _yun(a) if a.degree > 0 else []  # the roots often leave a constant
    if any(g.degree > 3 for g, _ in parts):
        return None
    return out + [(list(g.nums), i) for g, i in parts]


def tangent_cone_factors(f: MultiPoly, xname: str, yname: str):
    """Factor the lowest-degree form of f over Q.

    Returns (xmult, ymult, factors) where xmult and ymult are the powers of
    the coordinate axes dividing the cone and factors is a list of
    (univariate coefficient list in tau = y/x, multiplicity) for the
    remaining irreducible factors, each with integer coprime coefficients
    and a positive leading one, ordered as sympy orders them (by length,
    multiplicity, coefficients from the highest degree); sympy factors
    only a cone that `_factor_over_q` declines.  A linear factor
    c1*tau + c0 gives the rational direction -c0/c1.
    """
    cone = f.lowest_form()
    xi, yi = f.vars.index(xname), f.vars.index(yname)
    xmult, ymult = (min(e[i] for e in cone.terms) for i in (xi, yi))
    # dehomogenize: divide by x^a y^b, substitute x = 1, keep tau = y
    taus = {e[yi] - ymult: c for e, c in cone.terms.items()}
    cs = [taus.get(k, 0) for k in range(max(taus) + 1)]
    factors = _factor_over_q(_gcd(QPoly.from_ints(cs, 1), QPoly()))  # the primitive cone
    if factors is None:
        import sympy
        _, flist = sympy.factor_list(sympy.Poly(cs[::-1], sympy.Symbol("tau")))
        factors = [([int(c) for c in reversed(fac.all_coeffs())], int(m)) for fac, m in flist]
    return xmult, ymult, sorted(factors, key=lambda fm: (len(fm[0]), fm[1], fm[0][::-1]))


def is_squarefree(f: MultiPoly) -> bool:
    """True when no nonconstant factor of f over Q has multiplicity > 1.

    Takes at most two variables.  As a polynomial in y, f = c(x) g(x, y),
    c the gcd of its coefficients; f is squarefree iff c is and
    Res_y(g, g_y), of x-degree <= (2d - 1) deg_x f, d = deg_y f, is not 0.
    Where f keeps its y-degree, c(x0) != 0 and a squarefree f(x0, y) proves
    it nonzero; that many failures plus one prove it zero.
    """
    if f.nvars > 2:
        raise ValueError("squarefree test takes at most two variables")
    if not f.terms:
        return True
    terms = {(0,) * (2 - f.nvars) + e: c for e, c in f.terms.items()}
    dx, dy = map(max, zip(*terms))
    rows = [QPoly.from_ints([terms.get((i, k), 0) for i in range(dx + 1)], 1) for k in range(dy + 1)]
    content = reduce(_gcd, (r for r in rows if not r.is_zero()), QPoly())
    points = ([reduce(lambda v, c: v * x0 + c, reversed(r.nums), 0) for r in rows] for x0 in count())
    tries = islice((QPoly.from_ints(h, 1) for h in points if h[-1]), max(2 * dy - 1, 0) * dx + 1)
    return _gcd(content, _deriv(content)).degree == 0 and any(_gcd(h, _deriv(h)).degree == 0 for h in tries)


def blowup_chart_a(f: MultiPoly, xname: str, yname: str, tau0: int = 0) -> tuple["MultiPoly", int]:
    """Substitute x = u, y = u (v + tau0) and divide by u^mu.

    The result is expressed in the same variable names (x as u, y as v):
    x^i y^j becomes x^(i+j-mu) y^j, and a center tau0 != 0 then translates
    y by tau0.  Returns (strict transform, mu).  With the names swapped,
    blowup_chart_a(f, y, x) is the other chart, x = u v, y = v."""
    mu = f.multiplicity_at_origin()
    i, k = f.vars.index(xname), f.vars.index(yname)
    g = MultiPoly(f.vars, {e[:i] + (e[i] + e[k] - mu,) + e[i + 1 :]: c for e, c in f.terms.items()})
    if tau0:
        g = g.subs({yname: (tau0, 1)})
    return g, mu
