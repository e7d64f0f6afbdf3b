"""Embedded resolution of plane-curve germs by point blowups over Q, and
the candidate poles of its numerical data.

Each blowup happens at the origin of a local chart ("site") carrying the
strict transform and up to two exceptional curves as coordinate axes.
Numerical data follow the recursions
    no axis:   (mu, 2)
    one axis:  (N_i + mu, nu_i + 1)
    two axes:  (N_i + N_j + mu, nu_i + nu_j),
i.e. N_new = sum of axis N plus mu, nu_new = sum of axis nu plus
(2 - number of axes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .poly import MultiPoly, blowup_chart_a, is_squarefree, tangent_cone_factors


@dataclass
class ExceptionalCurve:
    id: int
    N: int
    nu: int

    @property
    def real_part(self) -> Fraction:
        return Fraction(-self.nu, self.N)


@dataclass
class StrictComponent:
    attached_to: int  # curve id, or -1 for a free smooth branch
    degree: int = 1


@dataclass
class BlowupRecord:
    step: int
    mu: int
    axes: dict  # coordinate -> (curve id, N, nu)
    new_id: int
    components: list  # (label, degree, N_jr, nu_jr) through the center


@dataclass
class CandidatePole:
    real_part: Fraction
    expected_order: int = 1
    sources: list = field(default_factory=list)


@dataclass
class ResolutionTree:
    curves: list = field(default_factory=list)
    strict_components: list = field(default_factory=list)
    adjacency: set = field(default_factory=set)
    log: list = field(default_factory=list)

    def curve(self, cid: int) -> ExceptionalCurve:
        return self.curves[cid - 1]

    def numerical_data(self) -> list[tuple[int, int]]:
        return [(c.N, c.nu) for c in self.curves]

    def to_dot(self) -> str:
        lines = ["graph resolution {"]
        for c in self.curves:
            lines.append(f'  E{c.id} [label="E{c.id}({c.N},{c.nu})"];')
        for k, s in enumerate(self.strict_components):
            lines.append(f'  S{k} [label="strict", shape=circle];')
        for a, b in sorted(tuple(sorted(e)) for e in self.adjacency):
            lines.append(f"  E{a} -- E{b};")
        for k, s in enumerate(self.strict_components):
            if s.attached_to >= 0:
                lines.append(f"  S{k} -- E{s.attached_to};")
        lines.append("}")
        return "\n".join(lines)


class UnsupportedGermError(ValueError):
    """A germ outside the supported class; the CLI exits 3."""


class NonRationalCenterError(UnsupportedGermError):
    pass


def resolve_germ(f: MultiPoly) -> ResolutionTree:
    if f.nvars != 2:
        raise ValueError("two variables required")
    if f.is_zero():
        raise ValueError("f must be nonzero")
    if (0, 0) in f.terms:
        raise ValueError("f(0,0) must be 0")
    if not is_squarefree(f):
        raise UnsupportedGermError("non-squarefree input: pass the reduced part and record multiplicities")
    xn, yn = f.vars
    tree = ResolutionTree()
    # each site: (strict transform, axes dict coord->curve id)
    sites = [(f, {})]
    # point blowups bring a reduced plane-curve germ to normal crossings in finitely many steps
    while sites:
        s, axes = sites.pop()
        # every site is centred on a point of the strict transform: f(0, 0) = 0
        # and each new center is a root of a tangent-cone factor, so mu >= 1
        mu = s.multiplicity_at_origin()
        xmult, ymult, factors = tangent_cone_factors(s, xn, yn)
        if (mu + len(axes) <= 2 and xmult <= 1 and ymult <= 1
                and all(len(cs) == 2 and m == 1 for cs, m in factors)
                and not any(ymult if coord == yn else xmult for coord in axes)):
            # normal crossings already: mu = xmult + ymult + sum m deg, so the
            # tangent cone is mu simple lines, none of them the axis {coord = 0},
            # and the strict transform is mu smooth branches crossing
            # transversally (e.g. f = x*y), on the one axis if there is one
            cid = next(iter(axes.values()), -1)
            tree.strict_components += [StrictComponent(attached_to=cid) for _ in range(mu)]
            continue
        # blow up the origin of this site
        ax_list = list(axes.items())
        N_new = mu + sum(tree.curve(c).N for _, c in ax_list)
        nu_new = (2 - len(ax_list)) + sum(tree.curve(c).nu for _, c in ax_list)
        new_id = len(tree.curves) + 1
        tree.curves.append(ExceptionalCurve(id=new_id, N=N_new, nu=nu_new))
        if len(ax_list) == 2:
            # blowing up a crossing strictly improves the worst candidate
            worst = min(tree.curve(c).real_part for _, c in ax_list)
            assert Fraction(-nu_new, N_new) > worst, "candidate did not increase"
        for _, c in ax_list:
            tree.adjacency.add(frozenset((new_id, c)))
        if len(ax_list) == 2:
            tree.adjacency.discard(frozenset((ax_list[0][1], ax_list[1][1])))
        # components of the total transform through the center, for the
        # relation checks: axis curves (with tangent-cone contributions
        # folded in) and the remaining tangent-cone factors
        components = []
        Nx, nux = (tree.curve(axes[xn]).N, tree.curve(axes[xn]).nu) if xn in axes else (0, 1)
        Ny, nuy = (tree.curve(axes[yn]).N, tree.curve(axes[yn]).nu) if yn in axes else (0, 1)
        if Nx + xmult > 0:
            components.append(("x-axis", 1, Nx + xmult, nux))
        if Ny + ymult > 0:
            components.append(("y-axis", 1, Ny + ymult, nuy))
        for cs, m in factors:
            components.append((f"factor deg {len(cs)-1}", len(cs) - 1, m, 1))
        tree.log.append(
            BlowupRecord(
                step=new_id,
                mu=mu,
                axes={k: (v, tree.curve(v).N, tree.curve(v).nu) for k, v in axes.items()},
                new_id=new_id,
                components=components,
            )
        )
        # new sites on the new exceptional curve: the chart x = u, y = u v at
        # the x axis' direction, and the same with the names swapped at the y axis'
        for mult, u, v in ((ymult, xn, yn), (xmult, yn, xn)):
            if mult >= 1:
                strict, _ = blowup_chart_a(s, u, v)
                new_axes = {u: new_id}
                if v in axes:
                    new_axes[v] = axes[v]
                sites.append((strict, new_axes))
        for cs, m in factors:
            deg = len(cs) - 1
            if deg == 1:
                # x -> c1 x keeps both axes and turns the direction
                # -c0/c1 into the integer center -c0
                c0, c1 = cs
                strict, _ = blowup_chart_a(s.subs({xn: (0, c1)}), xn, yn, -c0)
                sites.append((strict, {xn: new_id}))
            elif m == 1:
                # simple transverse crossings at conjugate points
                tree.strict_components.append(
                    StrictComponent(attached_to=new_id, degree=deg)
                )
            else:
                raise NonRationalCenterError(
                    "non-rational center required: tangent-cone factor of "
                    f"degree {deg} with multiplicity {m}"
                )
    return tree


def relations_check(tree: ResolutionTree, step: int) -> dict:
    """Verify the two blowup relations at the given logged step.

    Relation 1: sum of deg(F_j) * N_{j,r} over components through the
    center equals N_r.  Relation 2: sum of deg(F_j) * (alpha_{j,r} - 1)
    equals -2, with alpha = N*s0 + nu at s0 = -nu_r/N_r.
    """
    rec = tree.log[step - 1]
    curve = tree.curve(rec.new_id)
    s0 = Fraction(-curve.nu, curve.N)
    lhs1 = sum(deg * N for _, deg, N, _ in rec.components)
    lhs2 = sum(deg * (N * s0 + nu - 1) for _, deg, N, nu in rec.components)
    ok1 = lhs1 == curve.N
    ok2 = lhs2 == -2
    return {
        "step": step,
        "relation1": {"lhs": lhs1, "rhs": curve.N, "ok": ok1},
        "relation2": {"lhs": lhs2, "rhs": Fraction(-2), "ok": ok2},
        "ok": ok1 and ok2,
    }


def resolution_candidate_poles(tree: ResolutionTree, chi_order: int = 1) -> list[CandidatePole]:
    """Candidate poles -nu/N, deduplicated by real part, of the exceptional
    curves and, as (N, nu) = (1, 1), of the strict transform, for a
    character of order chi_order dividing N.  Sources are curve ids, -1 for
    the strict transform.  The expected order is 2 where two components
    with the same real part meet."""
    if chi_order < 1:
        raise ValueError("character order must be >= 1")
    data = [(c.id, c.N, c.nu) for c in tree.curves] + [(-1, 1, 1)] * bool(tree.strict_components)
    rp = {i: Fraction(-nu, N) for i, N, nu in data}
    # the meetings: curve with curve, strict branch with its curve, and the
    # two free branches of a node that needs no blowup
    meets = [tuple(e) for e in tree.adjacency]
    meets += [(-1, s.attached_to) for s in tree.strict_components if s.attached_to >= 0]
    meets += [(-1, -1)] * (sum(s.attached_to < 0 for s in tree.strict_components) == 2)
    double = {rp[a] for a, b in meets if rp[a] == rp[b]}
    poles: dict[Fraction, CandidatePole] = {}
    for i, N, _ in data:
        if N % chi_order == 0:
            poles.setdefault(rp[i], CandidatePole(rp[i], 1 + (rp[i] in double))).sources.append(i)
    return [poles[r] for r in sorted(poles)]
