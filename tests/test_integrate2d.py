"""Two-variable germ integrals cross-checked against solution counting."""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from igusa import charts, integrate2d
from igusa.charts import integrate_univariate
from igusa.context import PadicContext
from igusa.counting import verify_zeta_against_counts
from igusa.families import theorem_membership, zeta_sum_squares
from igusa.integrate2d import zeta_two_var
from igusa.poly import MultiPoly, is_squarefree, parse_poly
from igusa.resolve import resolution_candidate_poles, resolve_germ
from igusa.zeta import ZetaRational, eval_at_one, laurent_at, series_coeffs

CORPUS = [
    "y^2-x^3",
    "y^2-x^5",
    "x^2+y^3",
    "x^2+y^5",
    "x*y*(x+y)+x^4",
    "x^2+y^2",
    "x*y",
]


# SHA-256 of json.dumps(zeta_two_var(f, PadicContext(p, 2)).to_json(),
# sort_keys=True); every digest was recorded before the code change that
# the case guards, except x^2+y^3 at p = 2: the descent now rescales an
# origin class with f(0, 0) != 0 instead of blowing it up and sums the
# product terms before the subproblems, which moved that digest (same Z) to
# the one of the isomorphic y^2-x^3
GOLDEN = [
    ("y^2-x^3", 2, "fab357188f054e82f9b70b9b67d436cd2f452cf0dcfb28f9ccd3c1ef6a644a0a"),
    ("y^2-x^3", 3, "d78a3c4821bf1ad129ed3f4e10416e6117b5d43af48df13179d30623b6f0ec31"),
    ("y^2-x^5", 2, "20229e49dfab4e18bd99dc93bf6efbf9b33b540c33d19919242a75208dc4d5be"),
    ("y^2-x^5", 3, "e6af608a5888a3582c4a20fbb915456bed324135c372ebc8df5bf6d781f8b5f4"),
    ("x*y*(x+y)+x^4", 2, "01e8dfe72cbb15af4192ff950ebc2b7caa809462947dc8d41e6f5f5f13a5173f"),
    ("x*y*(x+y)+x^4", 3, "8a32b92e4b5d856d4404ef3feb29ad75d79f66f76accbffe00687bb3fbe61958"),
    ("x^2+y^2", 2, "6e00f5618509d14b39cb3c07f0137bc7677840a91eb366697f4146d39f11e2c4"),
    ("x^2+y^2", 3, "9ed484528089c19ca8638ef132000d35ca79030bfe9875a96763112327ff1a10"),
    ("x^2+y^3", 2, "fab357188f054e82f9b70b9b67d436cd2f452cf0dcfb28f9ccd3c1ef6a644a0a"),
    ("x^3-y^4", 2, "22fa0ddc3661916b5d4b365628cb89129ce05229d445a7181b2e9fd90b644616"),
]

# the same digest of zeta_sum_squares(PadicContext(p, 2))[0], whose
# unit-factor integrals run the descent on a polynomial free of y
GOLDEN_SUM_SQUARES = [
    (5, "1080712cd4e565cd5cd61a93951f45fee6198edd9e52c803bd9c205dc9e39a8b"),
    (17, "de0ccf9ea3c5833914e079080f616e44830e0682d9c096c4c00ebe435a8d32d1"),
]

# digest of {"numerical_data": ..., "adjacency": ...} of resolve_germ(f);
# both germs blow up at rational centers tau0 != 0
GOLDEN_RESOLVE = [
    ("y^2-x^3+x^2*y", "78de9532bc2ff94a313b82a0a15803c1ba24109952e20e2de2aa8443516bd42d"),
    ("(y-2*x)^2-x^5", "2243f9e27c91a61b5fca484ac926c58c643cdc936de70239e205c2b228ca2648"),
]


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("text, p, digest", GOLDEN, ids=[f"{t}-{p}" for t, p, _ in GOLDEN])
def test_json_golden(text, p, digest):
    z = zeta_two_var(parse_poly(text, vars=("x", "y")), PadicContext(p, 2))
    assert _digest(z.to_json()) == digest


def _random_terms(rng, count):
    """count term dicts of 2-4 terms, exponents <= 4, coefficients in +-1..3,
    no constant term."""
    out = []
    while len(out) < count:
        terms = {(rng.randint(0, 4), rng.randint(0, 4)): rng.choice([-3, -2, -1, 1, 2, 3])
                 for _ in range(rng.randint(2, 4))}
        terms.pop((0, 0), None)
        if len(terms) >= 2:
            out.append(terms)
    return out


NAMED_GERMS = ["y^2-x^3", "y^2-x^5", "x^2+y^3", "x^2+y^4", "x^2+y^5", "x^2+y^6", "x^2+y^7",
               "x*y*(x+y)+x^4", "x^2+y^2", "y^2-x^7", "y^5+x^3*y^2+x^8"]


def test_descent_corpus_json_golden():
    # one digest over the sorted-key JSON of Z for 150 random f at p = 2, 3
    # and the named germs at p = 2, 3, 5, each in the orders (x, y) and
    # (y, x); recorded before the descent summed its terms as integer triples
    def digest(polys, primes):
        h = hashlib.sha256()
        for f in polys:
            for p in primes:
                h.update(json.dumps(zeta_two_var(f, PadicContext(p, 2)).to_json(), sort_keys=True).encode())
        return h.hexdigest()

    randoms = [MultiPoly(names, {e[::step]: c for e, c in terms.items()})
               for terms in _random_terms(random.Random(7), 150)
               for names, step in ((("x", "y"), 1), (("y", "x"), -1))]
    named = [parse_poly(text, vars=order) for text in NAMED_GERMS for order in (("x", "y"), ("y", "x"))]
    assert digest(randoms, (2, 3)) == "b1ed1e6aa78cf2e2fd7935741acd154cfc0a455a08e0ea3a411e89b9138a4f86"
    assert digest(named, (2, 3, 5)) == "fa347c0e2a0dd5d0ae78333a5da580aee19720041655124e8f85ff1c21c58884"


@pytest.mark.parametrize("f, message", [
    (parse_poly("x^2-x"), "two variables required"),
    (parse_poly("0", vars=("x", "y")), "f must be nonzero"),
])
def test_zeta_two_var_rejects(f, message):
    with pytest.raises(ValueError, match=message):
        zeta_two_var(f, PadicContext(3, 2))


@pytest.mark.parametrize("p, digest", GOLDEN_SUM_SQUARES, ids=[str(p) for p, _ in GOLDEN_SUM_SQUARES])
def test_sum_squares_json_golden(p, digest):
    z, _ = zeta_sum_squares(PadicContext(p, 2))
    assert _digest(z.to_json()) == digest


@pytest.mark.parametrize("text, digest", GOLDEN_RESOLVE, ids=[t for t, _ in GOLDEN_RESOLVE])
def test_resolve_golden(text, digest):
    tree = resolve_germ(parse_poly(text, vars=("x", "y")))
    data = {
        "numerical_data": tree.numerical_data(),
        "adjacency": sorted(sorted(e) for e in tree.adjacency),
    }
    assert _digest(data) == digest


def _descent_calls(monkeypatch, compute):
    """Run compute() with `_W` wrapped where it is bound; return the number
    of recursive calls whose arguments repeat those of an earlier call by
    the same parent.  Calls are numbered, since ids of finished frames are
    reused."""
    orig = integrate2d._W
    calls = itertools.count()
    stack: list[int] = []
    children: dict[int, set] = {}
    repeats = 0

    def wrapper(f, p, A, a, B, b, j1, j2, depth):
        nonlocal repeats
        n = next(calls)
        if stack:
            siblings = children.setdefault(stack[-1], set())
            key = (f, p, A, a, B, b, j1, j2)
            repeats += key in siblings
            siblings.add(key)
        stack.append(n)
        try:
            return orig(f, p, A, a, B, b, j1, j2, depth)
        finally:
            stack.pop()

    monkeypatch.setattr(integrate2d, "_W", wrapper)
    monkeypatch.setattr(charts, "_W", wrapper)
    compute()
    return repeats


@pytest.mark.parametrize(
    "compute",
    [
        lambda: zeta_two_var(parse_poly("y^2-x^5", vars=("x", "y")), PadicContext(3, 2)),
        # the Newton closure declines this f, so its descent runs
        lambda: zeta_two_var(parse_poly("(y-x^2)^2-x^7", vars=("x", "y")), PadicContext(3, 2)),
        lambda: integrate_univariate(parse_poly("v^2+3", ("v",)), 0, PadicContext(3, 1)),
        lambda: integrate_univariate(parse_poly("v^2+v+1", ("v",)), 0, PadicContext(3, 1)),
    ],
    ids=["y^2-x^5", "(y-x^2)^2-x^7", "v^2+3", "v^2+v+1"],
)
def test_descent_integrates_each_subproblem_once_per_parent(monkeypatch, compute):
    # equal sibling subproblems are integrated once and scaled by their count
    assert _descent_calls(monkeypatch, compute) == 0


def test_descent_rescales_origin_class_with_constant_term(monkeypatch):
    # the first chart of (y-2x)^2-x^5 at p = 2 is (v-2)^2-u^3, whose origin
    # class has f(0, 0) = 4: blowing up that smooth class separates nothing
    # and made the descent fan out without end
    orig = integrate2d._W
    calls = itertools.count(1)

    def counted(*args):
        if next(calls) > 1000:
            raise RuntimeError("more than 1000 _W calls")
        return orig(*args)

    monkeypatch.setattr(integrate2d, "_W", counted)
    f = parse_poly("(y-2*x)^2-x^5", vars=("x", "y"))
    z = zeta_two_var(f, PadicContext(2, 2))
    assert eval_at_one(z) == 1
    ok, predicted, actual = verify_zeta_against_counts(z, f, 4)
    assert ok, (predicted, actual)


# inputs whose descent chased the point where a branch crosses a weighted
# axis one p-adic digit per level, past the depth limit or for minutes;
# four are squarefree f drawn at random
CROSSINGS = [
    ("y*(y+3*x+3)", 3, "xy"),
    ("y*(y+x^3+1)", 3, "xy"),
    ("y^2-x^7", 3, "xy"),
    ("(y-x^2)^2-x^7", 3, "xy"),
    ("(y-x^2)^2-x^7", 3, "yx"),
    ("-2*x^4*y^2-x^4*y+2*x^2*y^3+y", 2, "xy"),
    ("2*x^4*y-3*x^2*y-2*x*y^2-x*y", 3, "xy"),
    ("x^2*y^2-x*y^3+3*x^3+x*y", 2, "xy"),
    ("-2*x^4*y^3+2*x*y^4+2*x*y^3+3*x^2", 2, "xy"),
    ("x*y^2*(x*y+3)", 3, "xy"),
]


@pytest.mark.parametrize("text, p, order", CROSSINGS, ids=[f"{t}-{p}-{o}" for t, p, o in CROSSINGS])
def test_weighted_axis_crossings_close(text, p, order):
    f = parse_poly(text, vars=tuple(order))
    z = zeta_two_var(f, PadicContext(p, 2))
    assert eval_at_one(z) == 1
    ok, predicted, actual = verify_zeta_against_counts(z, f, 4)
    assert ok, (predicted, actual)


def test_crossings_of_both_axes_share_one_call(monkeypatch):
    # the crossings of the x axis and of the y axis of x y^2 (x y + 3) at
    # p = 3 both reduce to the constant h' = 3, under different weights
    f = parse_poly("x*y^2*(x*y+3)", vars=("x", "y"))
    assert _descent_calls(monkeypatch, lambda: zeta_two_var(f, PadicContext(3, 2))) == 0


def test_crossings_bound_the_descent(monkeypatch):
    # y^2-x^5 at p = 3 in (x, y) order took 170 calls while each crossing
    # of a weighted axis descended digit by digit; the Newton closure now
    # closes it at the root.  The closure declines (y-x^2)^2-x^7, whose
    # descent still crosses weighted axes: 1,684 calls when it was added
    orig = integrate2d._W
    calls = []

    def counted(*args):
        calls.append(None)
        return orig(*args)

    monkeypatch.setattr(integrate2d, "_W", counted)
    for text, bound in [("y^2-x^5", 80), ("(y-x^2)^2-x^7", 1684)]:
        calls.clear()
        zeta_two_var(parse_poly(text, vars=("x", "y")), PadicContext(3, 2))
        assert len(calls) <= bound, text


def _zeta_json(f, p):
    """The JSON text of Z_f at p, or None where the descent exceeds its depth."""
    try:
        return json.dumps(zeta_two_var(f, PadicContext(p, 2)).to_json())
    except ArithmeticError:
        return None


_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.sampled_from([-3, -2, -1, 1, 2, 3]),
    min_size=2,
    max_size=4,
).map(lambda terms: MultiPoly(("x", "y"), terms))


@settings(max_examples=120)
@given(_POLYS, st.sampled_from([2, 3, 5]))
def test_newton_closure_keeps_json(f, p):
    # the closure replaces whole subtrees of the descent, so Z's JSON must
    # not depend on whether it closes or declines a class
    closed = _zeta_json(f, p)
    with mock.patch.object(integrate2d, "_newton_closure", lambda *args: None):
        descended = _zeta_json(f, p)
    if descended is not None:
        assert closed == descended
    if closed is not None:
        z = ZetaRational.from_json(json.loads(closed))
        ok, predicted, actual = verify_zeta_against_counts(z, f, 3)
        assert ok, (predicted, actual)


def test_newton_closure_at_deep_call_weights():
    # the descent asks the closure under the weights (A, a), (B, b) that its
    # blowups and crossings collect, not only the root's (0, 1, 0, 1):
    # wherever it closes, it must equal the descent without it
    rng = random.Random(24)
    closed = 0
    for _ in range(300):
        terms = {(rng.randint(0, 5), rng.randint(0, 5)): rng.choice([-3, -2, -1, 1, 2, 3])
                 for _ in range(rng.randint(2, 4))}
        ex, ey = (min(e[i] for e in terms) for i in (0, 1))
        g = gcd(*terms.values())
        f = MultiPoly(("x", "y"), {(i - ex, j - ey): c // g for (i, j), c in terms.items()})
        p = rng.choice([2, 3, 5])
        A, a, B, b = rng.randint(0, 3), rng.randint(1, 3), rng.randint(0, 3), rng.randint(1, 3)
        z = integrate2d._newton_closure(f, p, A, a, B, b)
        if z is None:
            continue
        with mock.patch.object(integrate2d, "_newton_closure", lambda *args: None):
            try:
                descended = integrate2d._W(f, p, A, a, B, b, 0, 0, 0)
            except ArithmeticError as e:
                if str(e) != "integration recursion depth exceeded":
                    raise
                continue
        closed += 1
        assert z == descended, (f, p, A, a, B, b)
    assert closed >= 150


# before the closure these took 104 to 21,533 `_W` calls, or did not
# finish in 20 s, depending on the order; it closes each at the root.  At
# p = 1009 the root call scanned all p^2 classes and enumerated the torus
# of each face before it closed: 3.3-3.9 s.  The last two have two compact
# edges and cones that are not unimodular, of dets 1, 3, 2 and 1, 2, 1
HARD_ROWS = [("y^2-x^9", 3, 3), ("y^2-x^13", 3, 3), ("y^2-x^21", 3, 3), ("y^2-x^3", 101, 2),
             ("y^2-x^3", 1009, 3), ("y^3-x^4", 1009, 3), ("y^5+x^3*y^2+x^8", 2, 4),
             ("y^3+x^2*y+x^5", 3, 4)]


@pytest.mark.parametrize("text, p, k", HARD_ROWS, ids=[f"{t}-{p}" for t, p, _ in HARD_ROWS])
def test_newton_closure_hard_rows(monkeypatch, text, p, k):
    orig = integrate2d._W
    calls = itertools.count(1)

    def counted(*args):
        if next(calls) > 20:
            raise RuntimeError("more than 20 _W calls")
        return orig(*args)

    monkeypatch.setattr(integrate2d, "_W", counted)
    ctx = PadicContext(p, 2)
    xy = zeta_two_var(parse_poly(text, vars=("x", "y")), ctx)
    yx = zeta_two_var(parse_poly(text, vars=("y", "x")), ctx)
    assert next(calls) == 3  # one call, the root, in each order
    assert json.dumps(xy.to_json()) == json.dumps(yx.to_json())
    assert eval_at_one(xy) == 1
    ok, predicted, actual = verify_zeta_against_counts(xy, parse_poly(text, vars=("x", "y")), k)
    assert ok, (predicted, actual)


@pytest.mark.parametrize("text", ["y^2-x^3", "y^3-x^4"])
def test_closure_before_the_class_scan(monkeypatch, text):
    # the origin class descends, so the closure closes the root call before
    # the scan reaches the other p^2 - 1 classes, and its binomial faces
    # are counted in closed form: a bound on work, not on time
    orig = MultiPoly.eval_int
    calls = []

    def counted(self, pt):
        calls.append(pt)
        return orig(self, pt)

    monkeypatch.setattr(MultiPoly, "eval_int", counted)
    for order in ("xy", "yx"):
        calls.clear()
        zeta_two_var(parse_poly(text, vars=tuple(order)), PadicContext(1009, 2))
        assert len(calls) < 100, order


def _brute_torus_zeros(c1, e1, c2, e2, p):
    """Zeros of c1 x^a y^b + c2 x^c y^d on (F_p^*)^2, or None if one is singular."""
    (a, b), (c, d) = e1, e2
    zeros = 0
    for x, y in itertools.product(range(1, p), repeat=2):
        if (c1 * x**a * y**b + c2 * x**c * y**d) % p == 0:
            gx = a * c1 * pow(x, a - 1, p) * y**b + c * c2 * pow(x, c - 1, p) * y**d
            gy = b * c1 * x**a * pow(y, b - 1, p) + d * c2 * x**c * pow(y, d - 1, p)
            if gx % p == 0 and gy % p == 0:
                return None
            zeros += 1
    return zeros


def test_torus_zeros_of_binomials_in_closed_form():
    rng = random.Random(5)
    seen = set()
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for _ in range(40):
            e1, e2 = (tuple(rng.randint(0, 30) for _ in range(2)) for _ in range(2))
            if e1 == e2:
                continue
            c1, c2 = rng.randint(1, p - 1), rng.randint(1, p - 1)
            n = integrate2d._binomial_zeros({e1: c1, e2: c2}, p)
            assert n == _brute_torus_zeros(c1, e1, c2, e2, p), (p, e1, c1, e2, c2)
            seen.add(n if n is None else min(n, 1))
    assert seen == {None, 0, 1}  # singular zeros, no zeros and smooth zeros all drawn


def test_torus_zeros_cache_is_bounded():
    # binomial faces are counted without a cache; longer faces go through a
    # bounded one.  An unbounded cache kept 11,074 entries after 20,000
    # closures of such f; 2,000 draw more distinct faces than the bound.
    rng = random.Random(25)
    integrate2d._torus_zeros.cache_clear()
    for _ in range(2000):
        terms = {(0, rng.randint(1, 9)): rng.randint(1, 9), (rng.randint(1, 9), 0): rng.randint(1, 9)}
        for _ in range(rng.randint(0, 3)):
            terms[rng.randint(0, 9), rng.randint(1, 9)] = rng.randint(1, 9)
        integrate2d._newton_closure(MultiPoly(("x", "y"), terms), rng.choice((2, 3, 5, 7)), 0, 1, 0, 1)
    info = integrate2d._torus_zeros.cache_info()
    assert info.maxsize is not None and info.misses > info.maxsize >= info.currsize


def _box_scan(r, s):
    """The lattice points x r + y s, 0 < x, y <= 1, by a scan of the box
    around the parallelepiped: the reference for `_parallelepiped`."""
    D = r[0] * s[1] - r[1] * s[0]
    xs, ys = zip((0, 0), r, s, (r[0] + s[0], r[1] + s[1]))
    box = itertools.product(range(min(xs), max(xs) + 1), range(min(ys), max(ys) + 1))
    return sorted(q for q in box if 0 < q[0] * s[1] - q[1] * s[0] <= D and 0 < r[0] * q[1] - r[1] * q[0] <= D)


def test_parallelepiped_points_match_box_scan():
    rng = random.Random(24)
    pairs = [((1, 0), (0, 1)), ((1, 0), (2, 5)), ((2, 5), (0, 1)), ((0, 1), (-1, 0)), ((1, 0), (3, 80))]
    while len(pairs) < 300:
        r, s = ((rng.randint(-12, 12), rng.randint(-12, 12)) for _ in range(2))
        if rng.random() < 0.3:  # an axis ray, as at the ends of the fan
            r = rng.choice([(1, 0), (0, 1), (-1, 0), (0, -1)])
        if 1 <= r[0] * s[1] - r[1] * s[0] <= 80 and gcd(*r) == gcd(*s) == 1:
            pairs.append((r, s))
    for r, s in pairs:
        assert sorted(integrate2d._parallelepiped(r, s)) == _box_scan(r, s), (r, s)
    assert {r[0] * s[1] - r[1] * s[0] for r, s in pairs} >= {1, 2, 3, 80}


# digests recorded before the closure was added.  Both edge rays of
# x^3+y^3-x*y have (N, nu) = (3, 3): the binomial 1 - p^-3 t^3 would stand
# where the descent's factors cancel, and the JSON would move.  The class
# scan of x*y+3*y^2 closes every class, so the closure is not asked
DECLINED = [
    ("x^3+y^3-x*y", 2, "0573b6342c49c2fc04046a79ce6667a6c5553b70af7e03a78645819b478abf5a"),
    ("x*y+3*y^2", 5, "f6ef9b82557d7acfaff15965f35ea47ca8e95087d71cba4f8118787677bd871a"),
]


@pytest.mark.parametrize("text, p, digest", DECLINED, ids=[t for t, _, _ in DECLINED])
def test_newton_closure_declines_an_edge_with_common_divisor(monkeypatch, text, p, digest):
    orig, orig_W = integrate2d._newton_closure, integrate2d._W
    results, askers = [], []
    calls = itertools.count()
    stack: list[int] = []

    def recorded(*args):
        askers.append(stack[-1])
        results.append(orig(*args))
        return results[-1]

    def numbered(*args):
        stack.append(next(calls))
        try:
            return orig_W(*args)
        finally:
            stack.pop()

    monkeypatch.setattr(integrate2d, "_newton_closure", recorded)
    monkeypatch.setattr(integrate2d, "_W", numbered)
    z = zeta_two_var(parse_poly(text, vars=("x", "y")), PadicContext(p, 2))
    assert not results or results[0] is None  # the root call, if asked, declines
    assert len(askers) == len(set(askers))  # no call asks the closure twice
    assert _digest(z.to_json()) == digest


def _check_poles_against_resolution(f, p):
    """Every real pole of the local Z of f over (pZ_p)^2 is -1 or the real
    part of a candidate pole of f's embedded resolution, and is allowed by
    the paper's theorem for n = 2."""
    z = integrate2d._W(f, p, 0, 1, 0, 1, 1, 1, 0).reduced()
    allowed = {c.real_part for c in resolution_candidate_poles(resolve_germ(f))} | {-1}
    for s0, _ in z.candidate_poles():
        if z.is_real_pole(s0):
            assert s0 in allowed, (s0, sorted(allowed))
            assert theorem_membership(s0, 2), s0


# The strategy holds germs on which the descent exceeds its depth, such as
# each entry of DEPTH_FAILURES below, and germs on which it runs for
# minutes, such as -(x-y)^2-2*x^4*y^4 at p = 3 (ROADMAP items 1 and 4).  The
# derandomized draw of the `igusa` profile in conftest misses both; check
# that again when Hypothesis is upgraded or the strategy changes.
_GERMS = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda e: sum(e) >= 2),
    st.sampled_from([-3, -2, -1, 1, 2, 3]),
    min_size=2,
    max_size=4,
).map(lambda terms: MultiPoly(("x", "y"), terms)).filter(is_squarefree)


@settings(max_examples=100)
@given(_GERMS, st.sampled_from([2, 3, 5]))
def test_poles_against_the_resolution(f, p):
    try:
        _check_poles_against_resolution(f, p)
    except ArithmeticError as e:
        # the depth failure (ROADMAP items 1 and 4) is pinned by DEPTH_FAILURES;
        # any other error, a ZeroDivisionError included, is a fault
        if str(e) != "integration recursion depth exceeded":
            raise
        event("descent depth exceeded (ROADMAP items 1 and 4)")


# squarefree germs on which the descent exceeds its depth (ROADMAP items
# 1 and 4): where the tangent is not an axis, it never blows up the singular
# point; the last row's tangent cone is the axis y^3
DEPTH_FAILURES = [("(x+y)^2+x^3", 3), ("(x+y)^2-x^3", 5), ("(x+2*y)^2+x^3", 2),
                  ("x^3*y^2-x^4*y-2*x^2*y^2-y^3", 3)]


@pytest.mark.xfail(strict=True, raises=ArithmeticError,
                   reason="ROADMAP items 1 and 4: the descent exceeds its depth")
@pytest.mark.parametrize("text, p", DEPTH_FAILURES, ids=[f"{t}-{p}" for t, p in DEPTH_FAILURES])
def test_poles_against_the_resolution_depth_failures(text, p):
    _check_poles_against_resolution(parse_poly(text, vars=("x", "y")), p)


@pytest.mark.parametrize("text", CORPUS)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_matches_counts(text, p):
    f = parse_poly(text, vars=("x", "y"))
    z = zeta_two_var(f, PadicContext(p, 2))
    ok, predicted, actual = verify_zeta_against_counts(z, f, 3)
    assert ok, (text, p, predicted, actual)
    assert eval_at_one(z) == 1



@pytest.mark.parametrize(
    "p, text",
    [(p, text) for text in CORPUS[:-1] for p in (2, 3)]
    + [(3, "y^2-x^4"), (3, "y^4-x^2"), (2, "y^2-x^7"), (3, "y^2-x^7")],
)
def test_variable_order_does_not_change_z(p, text):
    # the descent's class sums depend on which variable comes first, so its
    # factors arrive in another order; neither Z nor its JSON may
    ctx = PadicContext(p, 2)
    xy = zeta_two_var(parse_poly(text, vars=("x", "y")), ctx)
    yx = zeta_two_var(parse_poly(text, vars=("y", "x")), ctx)
    assert json.dumps(xy.to_json()) == json.dumps(yx.to_json())

def test_descent_is_repeatable():
    # the second run reuses the measures the first one built
    f = parse_poly("y^2-x^5")
    runs = [json.dumps(zeta_two_var(f, PadicContext(3, 2)).to_json()) for _ in range(2)]
    assert runs[0] == runs[1]


def test_xy_product_form():
    # Z of x*y is the square of the one-variable zeta
    from igusa.zeta import one_var_integral

    z = zeta_two_var(parse_poly("x*y"), PadicContext(7, 2))
    expected = one_var_integral(7, 0, 1, 1) * one_var_integral(7, 0, 1, 1)
    assert series_coeffs(z, 8) == series_coeffs(expected, 8)


def test_cusp_pole_at_resolution_candidate():
    # the cusp has a genuine pole at -5/6 for every p
    for p in (2, 3, 5):
        z = zeta_two_var(parse_poly("y^2-x^3", vars=("x", "y")), PadicContext(p, 2))
        le = laurent_at(z, Fraction(-5, 6))
        assert le.pole_order == 1
        assert not le.b(1).is_zero()


def test_scaling_by_constant():
    # replacing f by 4f at p=2 shifts the zeta function by t^(2*ord)
    p = 2
    f = parse_poly("x^2+y^3", vars=("x", "y"))
    g = parse_poly("4*x^2+4*y^3", vars=("x", "y"))
    zf = zeta_two_var(f, PadicContext(p, 2))
    zg = zeta_two_var(g, PadicContext(p, 2))
    sf = series_coeffs(zf, 8)
    sg = series_coeffs(zg, 10)
    # |4|^s = t^2 at p=2, so the series is shifted by two places
    assert sg[0] == 0 and sg[1] == 0
    assert all(sg[i + 2] == sf[i] for i in range(7))
