"""Embedded resolution of plane-curve germs by point blowups over Q.

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

from .charts import CandidatePole, CharacterSpec, candidate_poles_filtered
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
    step = 0
    # each site: (strict transform, axes dict coord->curve id)
    sites = [(f, {})]
    # point blowups bring a reduced plane-curve germ to normal crossings in finitely many steps
    while sites:
        s, axes = sites.pop()
        # every site is centred on a point of the strict transform: f(0, 0) = 0
        # and each new center is a root of a tangent-cone factor, so mu >= 1
        mu = s.multiplicity_at_origin()
        xmult, ymult, factors = tangent_cone_factors(s, xn, yn)
        if mu == 1:
            # smooth strict transform
            if not axes:
                tree.strict_components.append(StrictComponent(attached_to=-1))
                continue
            if len(axes) == 1:
                ((coord, cid),) = axes.items()
                # tangent line of s vs the axis {coord = 0}
                tangent_is_axis = ymult == 1 if coord == yn else xmult == 1
                if not tangent_is_axis:
                    tree.strict_components.append(StrictComponent(attached_to=cid))
                    continue
            # tangent to the single axis, or passing through a crossing point
        elif mu == 2 and not axes:
            # mu = xmult + ymult + sum m deg, so simple linear factors and
            # xmult, ymult <= 1 are two smooth branches crossing transversally:
            # already normal crossings, nothing to do (e.g. f = x*y)
            if all(len(cs) == 2 and m == 1 for cs, m in factors) and xmult <= 1 and ymult <= 1:
                tree.strict_components += [StrictComponent(attached_to=-1) for _ in range(2)]
                continue
        # blow up the origin of this site
        ax_list = list(axes.items())
        N_new = mu + sum(tree.curve(c).N for _, c in ax_list)
        nu_new = (2 - len(ax_list)) + sum(tree.curve(c).nu for _, c in ax_list)
        step += 1
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
                step=step,
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


def resolution_candidate_poles(
    tree: ResolutionTree, chi: CharacterSpec = CharacterSpec()
) -> list[CandidatePole]:
    """Candidate poles of the exceptional curves and, as (N, nu) = (1, 1),
    of the strict transform.  Sources are curve ids, -1 for the strict
    transform."""
    data = tree.numerical_data() + [(1, 1)] * bool(tree.strict_components)
    poles = candidate_poles_filtered(data, chi)
    rp_of = {c.id: c.real_part for c in tree.curves}
    for pole in poles:
        pole.sources = [i + 1 if i < len(tree.curves) else -1 for i in pole.sources]
        # expected order: 2 when two components with the same real part meet
        rp = pole.real_part
        order = 1
        for edge in tree.adjacency:
            a, b = tuple(edge)
            if rp_of[a] == rp and rp_of[b] == rp:
                order = 2
        for s in tree.strict_components:
            if s.attached_to >= 0 and rp == Fraction(-1) and rp_of[s.attached_to] == rp:
                order = 2
        if rp == -1 and sum(s.attached_to < 0 for s in tree.strict_components) == 2:
            order = 2  # two free branches meet: a node that needs no blowup
        pole.expected_order = order
    return poles
