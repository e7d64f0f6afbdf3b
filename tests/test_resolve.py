"""Plane-curve germ resolution: numerical data, dual graphs, relations."""

import contextlib
import io
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from igusa import integrate2d, resolve
from igusa.cli import run
from igusa.context import PadicContext
from igusa.families import theorem_membership
from igusa.poly import MultiPoly, is_squarefree, parse_poly
from igusa.zeta import laurent_at
from igusa.resolve import (
    NonRationalCenterError,
    relations_check,
    resolution_candidate_poles,
    resolve_germ,
)


def _tree(text):
    return resolve_germ(parse_poly(text, vars=("x", "y")))


def test_cusp_numerical_data():
    tree = _tree("y^2-x^3")
    assert tree.numerical_data() == [(2, 2), (3, 3), (6, 5)]


def test_cusp_dual_graph():
    tree = _tree("y^2-x^3")
    # a path E1 -- E3 -- E2 with the strict branch on E3
    assert tree.adjacency == {frozenset({1, 3}), frozenset({2, 3})}
    assert [s.attached_to for s in tree.strict_components] == [3]


def test_cusp_candidate_poles():
    cps = resolution_candidate_poles(_tree("y^2-x^3"))
    assert {(c.real_part, c.expected_order) for c in cps} == {
        (Fraction(-1), 1),
        (Fraction(-5, 6), 1),
    }


@pytest.mark.parametrize("r", [1, 2, 3])
def test_odd_family_table(r):
    # E_1(2,2) ... E_r(2r,r+1), E_{r+1}(2r+1,r+2), E_{r+2}(4r+2,2r+3)
    tree = _tree(f"x^2+y^{2 * r + 1}")
    expected = [(2 * i, i + 1) for i in range(1, r + 1)]
    expected += [(2 * r + 1, r + 2), (4 * r + 2, 2 * r + 3)]
    assert tree.numerical_data() == expected
    # the last curve E_{r+2} carries the distinguished candidate
    # -1/2 - 1/(2r+1), which is the maximum of the real parts
    distinguished = max(c.real_part for c in resolution_candidate_poles(tree))
    assert distinguished == Fraction(-(2 * r + 3), 4 * r + 2)
    assert distinguished == Fraction(-1, 2) - Fraction(1, 2 * r + 1)


@pytest.mark.parametrize("text", ["y^2-x^127", "y^2-x^129", "y^2-x^1001", "y^3-x^200", "y^5-x^301"])
def test_resolutions_longer_than_64_blowups(capsys, text):
    assert run(["--json", "resolve", "-f", text]) == 0
    assert len(json.loads(capsys.readouterr().out)["curves"]) > 64
    tree = _tree(text)
    assert all(relations_check(tree, step)["ok"] for step in range(1, len(tree.log) + 1))
    if text.startswith("y^2-"):
        # y^2 - x^(2k+1): k + 2 curves, the last (2(2k+1), 2k+3) with the
        # candidate -1/2 - 1/(2k+1), which is the descent's largest factor
        i = int(text[len("y^2-x^"):])
        assert len(tree.curves) == (i - 1) // 2 + 2
        assert tree.numerical_data()[-1] == (2 * i, i + 2)
        last = max(c.real_part for c in resolution_candidate_poles(tree))
        assert last == Fraction(-1, 2) - Fraction(1, i) and theorem_membership(last, 2)
        z = integrate2d.zeta_two_var(parse_poly(text, vars=("x", "y")), PadicContext(3, 2))
        assert max(Fraction(-nu, N) for N, nu in z.denominator) == last


def test_odd_family_dual_graph():
    tree = _tree("x^2+y^5")
    assert tree.adjacency == {
        frozenset({1, 2}),
        frozenset({2, 4}),
        frozenset({3, 4}),
    }
    assert [s.attached_to for s in tree.strict_components] == [4]


def test_normal_crossings_immediately():
    tree = _tree("x*y")
    assert tree.numerical_data() == []
    assert tree.adjacency == set()


def test_irrational_directions_stop():
    # x^2+y^2 is a normal crossing in the blown-up surface after one step:
    # the strict transform meets the exceptional curve in two non-rational
    # points, recorded as a degree-2 component
    tree = _tree("x^2+y^2")
    assert tree.numerical_data() == [(2, 2)]
    assert [(s.attached_to, s.degree) for s in tree.strict_components] == [(1, 2)]


def test_relations_on_corpus():
    corpus = ["y^2-x^3", "y^2-x^5", "x^2+y^3", "x^2+y^5", "x*y*(x+y)+x^4", "x^2+y^2"]
    for text in corpus:
        tree = _tree(text)
        for step in range(1, len(tree.log) + 1):
            report = relations_check(tree, step)
            assert report["ok"], (text, step, report)


def test_relation_values_first_cusp_step():
    tree = _tree("y^2-x^3")
    report = relations_check(tree, 1)
    assert report["relation1"]["lhs"] == 2
    assert report["relation1"]["rhs"] == 2
    assert report["relation2"]["lhs"] == Fraction(-2)


def test_recursion_consistency():
    # recompute each (N,nu) from the logged parents and multiplicity
    for text in ("y^2-x^3", "x^2+y^5", "x^2+y^7"):
        tree = _tree(text)
        for rec in tree.log:
            parents = list(rec.axes.values())
            N = rec.mu + sum(N for _, N, _ in parents)
            nu = 2 - len(parents) + sum(nu for _, _, nu in parents)
            curve = tree.curve(rec.new_id)
            assert (curve.N, curve.nu) == (N, nu), (text, rec.step)


def test_candidate_pole_character_filter():
    tree = _tree("x^2+y^5")
    # data (2,2),(4,3),(5,4),(10,7), strict N=1: nothing divisible by 3
    assert resolution_candidate_poles(tree, 3) == []
    with_d2 = resolution_candidate_poles(tree, 2)
    assert {c.real_part for c in with_d2} == {
        Fraction(-1),
        Fraction(-3, 4),
        Fraction(-7, 10),
    }


def test_candidate_poles_reject_character_order_below_one():
    with pytest.raises(ValueError, match="character order must be >= 1"):
        resolution_candidate_poles(_tree("y^2-x^3"), 0)


def test_rejects_non_squarefree():
    with pytest.raises(ValueError):
        _tree("y^2")
    # squarefree products of distinct lines are accepted
    _tree("x^2*y+x*y^2")


def test_rejects_nonvanishing_or_zero():
    with pytest.raises(ValueError):
        _tree("x+1")
    with pytest.raises(ValueError):
        resolve_germ(parse_poly("0", vars=("x", "y")))
    with pytest.raises(ValueError, match="two variables required"):
        resolve_germ(parse_poly("x*y+z^2"))


def test_non_rational_center_error():
    # tangent cone (y^2-2x^2)^2: the singular directions are irrational
    with pytest.raises(NonRationalCenterError):
        _tree("(y^2-2*x^2)^2+x^5")


def test_dot_export():
    dot = _tree("y^2-x^3").to_dot()
    assert 'E1 [label="E1(2,2)"]' in dot
    assert 'E2 [label="E2(3,3)"]' in dot
    assert 'E3 [label="E3(6,5)"]' in dot
    assert "E1 -- E3" in dot


def _shape(tree):
    return (
        tree.numerical_data(),
        tree.adjacency,
        [(s.attached_to, s.degree) for s in tree.strict_components],
    )


@pytest.mark.parametrize(
    "text, same_as",
    [("(2*y-x)^2-x^3", "y^2-x^3"), ("(3*y-2*x)^2-x^5", "y^2-x^5")],
)
def test_rational_tangent_direction(text, same_as):
    # tangent directions 1/2 and 2/3 are centers with denominator > 1; a
    # Q-linear change of coordinates does not change the resolution
    tree = _tree(text)
    assert _shape(tree) == _shape(_tree(same_as))
    assert all(relations_check(tree, k)["ok"] for k in range(1, len(tree.log) + 1))


@pytest.mark.parametrize("text, strict, orders", [
    ("x*y", [(-1, 1)] * 2, {Fraction(-1): 2}),
    ("y-x^2", [(-1, 1)], {Fraction(-1): 1}),
    ("x*y*(x+y)", [(1, 1)] * 3, {Fraction(-1): 1, Fraction(-2, 3): 1}),
])
def test_free_branches_give_the_pole_minus_one(text, strict, orders):
    # a smooth germ or a node needs no blowup; its branches are free, and
    # the local Z over (pZ_p)^2 has each candidate as a pole of its order
    tree = _tree(text)
    assert [(s.attached_to, s.degree) for s in tree.strict_components] == strict
    cps = resolution_candidate_poles(tree)
    assert {c.real_part: c.expected_order for c in cps} == orders
    for p in (2, 3):
        z = integrate2d._W(parse_poly(text, vars=("x", "y")), p, 0, 1, 0, 1, 1, 1, 0).reduced()
        assert {s0: laurent_at(z, s0).pole_order for s0, _ in z.candidate_poles()} == orders


def test_rational_tangent_directions_three_lines():
    # three lines through the origin, two with directions 1/2 and 1/3: one
    # blowup separates them into three strict branches on E1
    tree = _tree("(2*y-x)*(3*y-x)*y+x^4")
    assert tree.numerical_data() == [(3, 2)]
    assert [(s.attached_to, s.degree) for s in tree.strict_components] == [(1, 1)] * 3
    assert relations_check(tree, 1)["ok"]


_GERM_EXPONENTS = [(i, j) for i in range(5) for j in range(5) if 0 < i + j]


def _text(terms, first, second):
    """The germ sum c x^i y^j over terms {(i, j): c}, written so that `first`
    is named before `second`: parse_poly orders its variables so."""
    pos = {"x": 0, "y": 1}
    return " + ".join(f"({c})*{first}^{e[pos[first]]}*{second}^{e[pos[second]]}"
                      for e, c in terms.items())


@settings(max_examples=200)
@given(st.dictionaries(st.sampled_from(_GERM_EXPONENTS),
                       st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=1, max_size=4))
def test_every_site_lies_on_the_strict_transform(terms):
    # resolve_germ has no branch for a site of multiplicity 0: f(0, 0) = 0,
    # and each new center is a root of a tangent-cone factor.  resolve --json
    # in both variable orders sees mu >= 1 at every site it blows up or closes
    assume(is_squarefree(MultiPoly(("x", "y"), terms)))
    tangent_cone_factors, mus = resolve.tangent_cone_factors, []

    def recording(s, x, y):
        mus.append(s.multiplicity_at_origin())
        return tangent_cone_factors(s, x, y)

    for order in ("x", "y"), ("y", "x"):
        out = io.StringIO()
        with mock.patch.object(resolve, "tangent_cone_factors", recording), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(["--json", "resolve", "-f", _text(terms, *order)])
        # 3: a tangent-cone factor of degree >= 2 repeats, no rational center
        assert code in (0, 3), (terms, order, code)
        if code == 0:
            assert set(json.loads(out.getvalue())) == {"curves", "adjacency", "strict_components"}
    assert mus and min(mus) >= 1


def _resolve_record(f):
    """Everything resolve computes for f, as one line of text: the tree,
    every blowup record and relation check, and the candidate poles at
    character orders 1, 2 and 3; or the error f raises."""
    try:
        tree = resolve_germ(f)
    except ValueError as e:
        return repr((f.vars, sorted(f.terms.items()), type(e).__name__, str(e)))
    log = [(r.step, r.mu, sorted(r.axes.items()), r.new_id, r.components) for r in tree.log]
    checks = [relations_check(tree, step) for step in range(1, len(tree.log) + 1)]
    poles = [[(c.real_part, c.expected_order, c.sources) for c in resolution_candidate_poles(tree, k)]
             for k in (1, 2, 3)]
    return repr((f.vars, sorted(f.terms.items()), tree.numerical_data(), sorted(sorted(e) for e in tree.adjacency),
                 [(s.attached_to, s.degree) for s in tree.strict_components], log, checks, poles))


def test_resolve_output_digest():
    # pins the whole output of resolve on the acceptance corpus and 300
    # random squarefree germs, each in both variable orders; any change of
    # a curve, edge, strict component, log record, relation or candidate
    # pole changes the digest
    import hashlib
    import random

    from test_acceptance import CORPUS_2VAR
    from test_poly import _random_germs

    named = ["x", "y-x^2", "x-y^2", "x*y", "x*(y-x^2)", "y*(y-x^2)", "x*y*(x+y)", "x^2*y+x*y^2",
             "(2*y-x)^2-x^3", "(2*y-x)*(3*y-x)*y+x^4", "y^2-x^127", "0", "x+1", "y^2",
             "(y^2-2*x^2)^2+x^5", "(y^2+x^2)*(y^2+2*x^2)+x^5"]
    germs = [parse_poly(t, vars=("x", "y")) for t in CORPUS_2VAR + named] + _random_germs(random.Random(18), 300)
    germs += [MultiPoly(("y", "x"), {e[::-1]: c for e, c in f.terms.items()}) for f in germs]
    records = [_resolve_record(f) for f in germs]
    assert len(records) == 650 and sum("Error'" in r for r in records) == 8
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "f07ca52e6d47849165fbbd28f4c6b848f02109561e4f0deaea8a4cf7b80da00a"
