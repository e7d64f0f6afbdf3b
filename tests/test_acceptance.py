"""Acceptance gate: one test and one printed pass/fail line per criterion."""

from fractions import Fraction
from functools import lru_cache

from igusa.context import PadicContext
from igusa.counting import (
    count_hensel,
    count_naive,
    poincare_truncation,
    verify_zeta_against_counts,
)
from igusa.divisibility import (
    check_divisibility,
    constructive_shift,
    divisibility_property_check,
    min_shift,
)
from igusa.families import (
    is_square_qp,
    real_pole_parts,
    residue_x2_ayl_even,
    residue_x2_ayl_odd,
    theorem_membership,
    zeta_sum_squares,
    zeta_x2_ayl,
    zeta_xy_zi,
)
from igusa.integrate2d import zeta_two_var
from igusa.poly import parse_poly
from igusa.qpoly import QPoly
from igusa.resolve import relations_check, resolution_candidate_poles, resolve_germ
from igusa.zeta import ZetaRational, eval_at_one, laurent_at, series_coeffs

CORPUS_2VAR = [
    "y^2-x^3",
    "y^2-x^5",
    "x^2+y^3",
    "x^2+y^4",
    "x^2+y^5",
    "x^2+y^6",
    "x^2+y^7",
    "x*y*(x+y)+x^4",
    "x^2+y^2",
]


def _criterion(num, ok, detail=""):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


@lru_cache(maxsize=None)
def _two_var_zeta(text, p):
    return zeta_two_var(parse_poly(text, vars=("x", "y")), PadicContext(p, 2))


def test_criterion_1_xy_zi_formula_vs_counting_oracle():
    failures = []
    for i, p in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 5)]:
        z = zeta_xy_zi(PadicContext(p, 3), i)
        kmax = 4 if p ** 12 <= 10 ** 8 else 3
        f = parse_poly(f"x*y+z^{i}")
        ok_h, pred, act = verify_zeta_against_counts(z, f, kmax)
        ok_n = pred[:4] == [count_naive(f, p, k) for k in range(4)]
        if not (ok_h and ok_n):
            failures.append((i, p, pred, act))
    _criterion(1, not failures, "xy+z^i vs brute force and Hensel counts")


def test_criterion_2_sum_of_squares_residues():
    ok = True
    for p in (5, 13):
        _, [(s0, lead)] = zeta_sum_squares(PadicContext(p, 2))
        ok &= s0 == Fraction(-1) and lead.logpow == 2
        ok &= lead.value.as_rational() == Fraction((p - 1) ** 2, p * p)
    for p in (3, 7):
        _, [(s0, lead)] = zeta_sum_squares(PadicContext(p, 2))
        ok &= s0 == Fraction(-1) and lead.logpow == 1
        ok &= lead.value.as_rational() == Fraction(p * p - 1, 2 * p * p)
    _, [(s0, lead)] = zeta_sum_squares(PadicContext(2, 2))
    ok &= s0 == Fraction(-1) and lead.logpow == 1
    ok &= lead.value.as_rational() == Fraction(1, 2)
    _criterion(2, ok, "b_-2 and b_-1 of x^2+y^2 for p in {5,13,3,7,2}")


def test_criterion_3_resolution_tables():
    ok = True
    cusp = resolve_germ(parse_poly("y^2-x^3", vars=("x", "y")))
    ok &= cusp.numerical_data() == [(2, 2), (3, 3), (6, 5)]
    for r in (1, 2, 3):
        tree = resolve_germ(parse_poly(f"x^2+y^{2 * r + 1}", vars=("x", "y")))
        expected = [(2 * i, i + 1) for i in range(1, r + 1)]
        expected += [(2 * r + 1, r + 2), (4 * r + 2, 2 * r + 3)]
        ok &= tree.numerical_data() == expected
        distinguished = max(c.real_part for c in resolution_candidate_poles(tree))
        ok &= distinguished == Fraction(-1, 2) - Fraction(1, 2 * r + 1)
    _criterion(3, ok, "cusp and x^2+y^(2r+1) numerical data, r in {1,2,3}")


def test_criterion_4_blowup_relations_on_corpus():
    failures = []
    for text in CORPUS_2VAR:
        tree = resolve_germ(parse_poly(text, vars=("x", "y")))
        for step in range(1, len(tree.log) + 1):
            report = relations_check(tree, step)
            if not report["ok"]:
                failures.append((text, step))
    _criterion(4, not failures, "relations 1 and 2 at every blowup step")


def test_criterion_5_residue_positivity():
    ok = True
    for r in (1, 2, 3):
        for p in (2, 3, 5):
            residue = residue_x2_ayl_odd(PadicContext(p, 2), 1, r)
            ok &= residue.value.sign() == 1
    for r in (2, 3):
        for p, a in ((3, 1), (5, 3)):
            assert not is_square_qp(-a, p)
            residue = residue_x2_ayl_even(PadicContext(p, 2), a, r)
            ok &= residue.value.sign() == 1
        residue = residue_x2_ayl_even(PadicContext(2, 2), 1, r)
        ok &= residue.value.sign() == 1
    _criterion(5, ok, "residues strictly positive, odd and even cases")


def test_criterion_6_vanishing_at_intermediate_candidates():
    # For x^2+y^5 the curves E_1(2,2), E_2(4,3), E_3(5,4) carry candidate
    # real parts -1, -3/4, -4/5 and contribute no pole: their denominator
    # factors cancel from Z entirely, and the expansion at -3/4 and -4/5
    # has b_-1 = 0 exactly.  At -1 the strict transform of the curve keeps
    # a genuine first-order pole, so the E_1 cancellation is certified by
    # the factor (2,2) disappearing rather than by a zero residue there.
    ok = True
    for p in (2, 3, 5):
        z = _two_var_zeta("x^2+y^5", p).reduced()
        den = dict(z.denominator)
        ok &= (2, 2) not in den and (4, 3) not in den and (5, 4) not in den
        for s0 in (Fraction(-3, 4), Fraction(-4, 5)):
            le = laurent_at(z, s0)
            ok &= le.pole_order == 0
            ok &= le.b(1).is_zero()
        le = laurent_at(z, Fraction(-1))
        ok &= le.pole_order == 1
    _criterion(6, ok, "b_-1 = 0 at the E_2, E_3 candidates; E_1 factor cancels")


def test_criterion_7_divisibility_of_counts():
    ok = True
    l = Fraction(-3, 2)
    f = parse_poly("x*y+z^2")
    for p in (2, 3):
        M = poincare_truncation(f, p, 6)
        a_min = min_shift(M, l)
        ok &= check_divisibility(M, l, a_min).ok
        z = zeta_xy_zi(PadicContext(p, 3), 2)
        a_con, _ = constructive_shift(z, 3, l)
        ok &= check_divisibility(M, l, a_con).ok
        factor = series_coeffs(
            ZetaRational(p, QPoly.const(Fraction(1)), {(2, 3): 1}), 10
        )
        ok &= divisibility_property_check(factor, 3, l, p, 10)
        product = series_coeffs(
            ZetaRational(p, QPoly.const(Fraction(1)), {(2, 3): 1, (4, 6): 1}), 10
        )
        ok &= divisibility_property_check(product, 3, l, p, 10)
    _criterion(7, ok, "xy+z^2 counts divisible by p^ceil(3i/2 - a), lemmas hold")


def test_criterion_8_universal_invariants():
    ok = True
    detail = []

    # every emitted Z evaluates to 1 at t = 1
    emitted = []
    for p in (2, 3, 5):
        emitted.append((zeta_sum_squares(PadicContext(p, 2))[0], 2))
        emitted.append((zeta_xy_zi(PadicContext(p, 3), 2), 3))
        emitted.append((zeta_x2_ayl(PadicContext(p, 2), 1, 5)[2], 2))
        for text in CORPUS_2VAR:
            emitted.append((_two_var_zeta(text, p), 2))
    if not all(eval_at_one(z) == 1 for z, _ in emitted):
        ok = False
        detail.append("eval_at_one")

    # Hensel counting agrees with naive counting on the corpus
    for text in CORPUS_2VAR + ["x*y+z^2"]:
        f = parse_poly(text)
        for p in (2, 3, 5):
            for i in (1, 2, 3):
                if count_hensel(f, p, i) != count_naive(f, p, i):
                    ok = False
                    detail.append(f"counts {text} p={p} i={i}")

    # every real pole part obeys the pole-location theorems
    for z, n in emitted:
        for s0 in real_pole_parts(z):
            if not theorem_membership(s0, n):
                ok = False
                detail.append(f"membership {s0} n={n}")

    # candidate real parts always lie in [-n, 0)
    for text in CORPUS_2VAR:
        tree = resolve_germ(parse_poly(text, vars=("x", "y")))
        for c in resolution_candidate_poles(tree):
            if not (Fraction(-2) <= c.real_part < 0):
                ok = False
                detail.append(f"range {text} {c.real_part}")

    _criterion(8, ok, "; ".join(detail) if detail else "all invariants hold")
