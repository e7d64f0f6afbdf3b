"""Closed-form zeta families and their pole/residue bookkeeping."""

import hashlib
import json
from fractions import Fraction

import pytest

from igusa.context import PadicContext
from igusa.counting import verify_zeta_against_counts
from igusa.families import (
    combine_sum_poles,
    is_square_qp,
    residue_x2_ayl_even,
    residue_x2_ayl_odd,
    theorem_membership,
    zeta_sum_squares,
    zeta_x2_ayl,
    zeta_xy_zi,
)
from igusa.poly import parse_poly
from igusa.qpoly import QPoly
from igusa.zeta import eval_at_one, laurent_at, series_coeffs


def test_sum_squares_split_case():
    # p = 1 mod 4: product of two linear integrals, double pole at -1
    z, poles = zeta_sum_squares(PadicContext(5, 2))
    [(s0, lead)] = poles
    assert s0 == Fraction(-1)
    assert lead.logpow == 2
    assert lead.value.as_rational() == Fraction(16, 25)


def test_sum_squares_inert_case():
    z, poles = zeta_sum_squares(PadicContext(3, 2))
    # Z = (1 - 1/9) / (1 - t^2/9)
    red = z.reduced()
    assert red.numerator == QPoly.const(Fraction(8, 9))
    assert dict(red.denominator) == {(2, 2): 1}
    [(s0, lead)] = poles
    assert s0 == Fraction(-1)
    assert lead.logpow == 1
    assert lead.value.as_rational() == Fraction(8, 18)
    ok, _, _ = verify_zeta_against_counts(z, parse_poly("x^2+y^2"), 2)
    assert ok


def test_sum_squares_dyadic_case():
    z, poles = zeta_sum_squares(PadicContext(2, 2))
    [(s0, lead)] = poles
    assert s0 == Fraction(-1)
    assert lead.logpow == 1
    assert lead.value.as_rational() == Fraction(1, 2)
    ok, _, _ = verify_zeta_against_counts(z, parse_poly("x^2+y^2"), 3)
    assert ok


def test_is_square_qp():
    assert is_square_qp(4, 5)
    assert is_square_qp(-1, 5)
    assert not is_square_qp(-1, 3)
    assert not is_square_qp(5, 5)
    assert is_square_qp(25, 5)
    assert is_square_qp(1, 2) and is_square_qp(9, 2)
    assert not is_square_qp(3, 2) and not is_square_qp(2, 2)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("r", [1, 2])
def test_x2_ayl_odd_residue_matches_closed_form(p, r):
    ctx = PadicContext(p, 2)
    l = 2 * r + 1
    parts, residue, z = zeta_x2_ayl(ctx, 1, l)
    assert Fraction(-1, 2) - Fraction(1, l) in parts
    closed = residue_x2_ayl_odd(ctx, 1, r)
    assert residue == closed
    assert residue.value.sign() == 1
    ok, _, _ = verify_zeta_against_counts(z, parse_poly(f"x^2+y^{l}"), 3)
    assert ok


def test_x2_ayl_odd_scaled_coefficient():
    # |a| enters through |a|^(-1/(2r+1)); a = p gives a radical factor
    ctx = PadicContext(3, 2)
    parts, residue, z = zeta_x2_ayl(ctx, 3, 3)
    closed = residue_x2_ayl_odd(ctx, 3, 1)
    assert residue == closed
    assert residue.value.sign() == 1
    ok, _, _ = verify_zeta_against_counts(z, parse_poly("x^2+3*y^3"), 3)
    assert ok


@pytest.mark.parametrize("p,a", [(3, 1), (5, 3)])
def test_x2_ayl_even_nonsquare_case(p, a):
    # -a must be a non-square unit
    assert not is_square_qp(-a, p)
    ctx = PadicContext(p, 2)
    r = 2
    parts, residue, z = zeta_x2_ayl(ctx, a, 2 * r)
    assert Fraction(-1, 2) - Fraction(1, 2 * r) in parts
    assert residue == residue_x2_ayl_even(ctx, a, r)
    assert residue.value.sign() == 1
    ok, _, _ = verify_zeta_against_counts(z, parse_poly(f"x^2+{a}*y^4"), 3)
    assert ok


def test_x2_ayl_even_dyadic_case():
    # p = 2 with a = 1 = 1 mod 8
    ctx = PadicContext(2, 2)
    parts, residue, z = zeta_x2_ayl(ctx, 1, 4)
    assert residue == residue_x2_ayl_even(ctx, 1, 2)
    assert residue.value.sign() == 1
    ok, _, _ = verify_zeta_against_counts(z, parse_poly("x^2+y^4"), 3)
    assert ok


# SHA-256 of the list of to_json() of the closed-form residues: odd l = 2r+1
# for r = 1..16 with a = 1 (M up to lcm(2, 33) = 66), and both character-free
# even subcases for r = 1..8
GOLDEN_RESIDUES = {
    ("odd", 2, 1): "36cafa953c2bac90a5ac94b844e95a847135473eb48e9b18d539f138b240741a",
    ("odd", 3, 1): "d4c55eb04c8b0aef69ef32f10251e9b43a9a802c87ccefd9b4d8c2ef9a7e97ad",
    ("odd", 5, 1): "b3d4a8feb78b42484582e8452e4e02f6dbc976cb586091c6d6c8a8a26275191b",
    ("odd", 7, 1): "d23d9dbcef97b2a60b2d18cb5337ad6f79f73f0f1325055e07049d0cff99f433",
    ("even", 3, 1): "2eef662ad5e155f379d0dc6015a3e0e995722203ec53f24f40cf1f1908611f76",
    ("even", 5, 3): "f4925f1be437cea52d9b74819550f47828c8564eed9a1bdbb9ac8eff0cdc7b19",
    ("even", 2, 1): "3d896e86c3ccac0acddaf9e7ced7994df4560654724804d2e3988b3fc885e918",
}


@pytest.mark.parametrize("case, p, a", sorted(GOLDEN_RESIDUES))
def test_residue_json_golden(case, p, a):
    ctx = PadicContext(p, 2)
    if case == "odd":
        recs = [residue_x2_ayl_odd(ctx, a, r).to_json() for r in range(1, 17)]
    else:
        recs = [residue_x2_ayl_even(ctx, a, r).to_json() for r in range(1, 9)]
    digest = hashlib.sha256(json.dumps(recs, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_RESIDUES[case, p, a]


# SHA-256 of the list of [to_json(), value.sign()] of the odd residues for
# r = 1..16 with p | a, recorded before the closed form on integers: the
# factor |a|^(-1/(2r+1)) = w^(2 v_p(a)) shifts every term, and the terms
# near w^(M-1) wrap past w^M = p
GOLDEN_SCALED_RESIDUES = {
    (2, 2): "752607395bcc617b27e35256dc24d79894a08324415c13521d942e0514f6012b",
    (2, -4): "6fefa7456388477ce115911d5e80a436395671919676b94ac564d8f075fb9509",
    (3, 3): "447543a7d01b5f9d0cf44dd1eba0c6626420b6bd389ccdb7e4e11cc3fef52352",
    (3, -9): "7842abb7298d471d1f6549f4f493129c71c95583b76efd05a5645b9fcc430864",
    (5, 5): "1ddfb93dade2024464cb624e45c0527de52a5009c6e77686979a7849c9f92180",
    (5, -25): "bb82fdaf15740a4c1dbe3a56d96150fd0746024c36cb22aca7833d2c542b8e61",
}


@pytest.mark.parametrize("p, a", sorted(GOLDEN_SCALED_RESIDUES))
def test_residue_json_golden_scaled(p, a):
    recs = []
    for r in range(1, 17):
        res = residue_x2_ayl_odd(PadicContext(p, 2), a, r)
        recs.append([res.to_json(), res.value.sign()])
    digest = hashlib.sha256(json.dumps(recs, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_SCALED_RESIDUES[p, a]


@pytest.mark.parametrize("family", [residue_x2_ayl_odd, residue_x2_ayl_even])
@pytest.mark.parametrize("r", [0, -1])
def test_residue_families_reject_small_r(family, r):
    # r = 0 gave a zero odd "residue" and r = -1 a nonzero one
    with pytest.raises(ValueError, match="need r >= 1"):
        family(PadicContext(3, 2), 1, r)


@pytest.mark.parametrize("call, message", [
    (lambda: is_square_qp(0, 3), "a must be nonzero"),
    (lambda: zeta_x2_ayl(PadicContext(3, 2), 0, 3), "a must be nonzero"),
    # -a = 1 is a square, and a = 3 is no unit at p = 3
    (lambda: residue_x2_ayl_even(PadicContext(3, 2), -1, 1), "non-square unit"),
    (lambda: residue_x2_ayl_even(PadicContext(3, 2), 3, 1), "non-square unit"),
    (lambda: residue_x2_ayl_even(PadicContext(2, 2), 3, 1), "a = 1 mod 8"),
    (lambda: theorem_membership(Fraction(-2), 4), "n must be 2 or 3"),
], ids=["is-square-of-zero", "x2-ayl-a-zero", "even-a-minus-square", "even-a-no-unit",
        "even-p2-a-not-1-mod-8", "membership-n4"])
def test_families_reject_inputs_outside_their_class(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_x2_ayl_l2_reduces_to_sum_squares():
    ctx = PadicContext(3, 2)
    parts, residue, z = zeta_x2_ayl(ctx, 1, 2)
    assert set(parts) <= {Fraction(-1)}
    ok, _, _ = verify_zeta_against_counts(z, parse_poly("x^2+y^2"), 3)
    assert ok


def test_x2_ayl_rejects_small_l():
    with pytest.raises(ValueError):
        zeta_x2_ayl(PadicContext(3, 2), 1, 1)


def test_x2_ayl_odd_rejects_zero_coefficient():
    # x^2 + 0*y^3 is not in the family; v_p(0) is undefined
    with pytest.raises(ValueError):
        residue_x2_ayl_odd(PadicContext(3, 2), 0, 1)


def test_xy_zi_formula_i2():
    z = zeta_xy_zi(PadicContext(3, 3), 2)
    # (2/3) * (1 - t/27) / ((1 - t/3)(1 - t^2/27))
    expected_num = QPoly([Fraction(2, 3), Fraction(-2, 81)])
    assert z.numerator == expected_num
    assert dict(z.denominator) == {(1, 1): 1, (2, 3): 1}
    assert eval_at_one(z) == 1


def test_xy_zi_formula_i3():
    # (1/2)(1 - 2^{-s-3} + 2^{-2s-4}) / ((1-2^{-s-1})(1-2^{-3s-4})) at p=2
    z = zeta_xy_zi(PadicContext(2, 3), 3)
    expected_num = QPoly([Fraction(1, 2), Fraction(-1, 16), Fraction(1, 32)])
    assert z.numerator == expected_num
    assert dict(z.denominator) == {(1, 1): 1, (3, 4): 1}
    ok, _, _ = verify_zeta_against_counts(z, parse_poly("x*y+z^3"), 4)
    assert ok


# SHA-256 of the list of to_json() of zeta_xy_zi for i = 2..20
GOLDEN_XY_ZI = {
    2: "abf11e4c7efcb321f6dba968a0428a2d8ed63a97f1d7ffffb9ed758199206575",
    3: "146d5547e15d5e434332f5bb990d01621ee3d67ffe4eebe6cb9e7ab04e98e87c",
    5: "2e9a3a97243560aa6b64810bff27227ea1580a981b83c817f0ba9c6eb9dbda38",
    7: "2ebfc587d468730d5c6f8ad486cc25387d5ef6c5012fa018d2cf8981cece6b97",
    11: "a79f8b3fabd380df931973238cca95033149ef243f2abbae3753d8d6b8b1285c",
}


@pytest.mark.parametrize("p", sorted(GOLDEN_XY_ZI))
def test_xy_zi_json_golden(p):
    recs = [zeta_xy_zi(PadicContext(p, 3), i).to_json() for i in range(2, 21)]
    digest = hashlib.sha256(json.dumps(recs, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_XY_ZI[p]


def test_xy_zi_real_poles():
    from igusa.families import real_pole_parts

    z = zeta_xy_zi(PadicContext(3, 3), 4)
    assert set(real_pole_parts(z)) == {Fraction(-1), Fraction(-5, 4)}


def test_xy_zi_rejects_small_i():
    with pytest.raises(ValueError):
        zeta_xy_zi(PadicContext(3, 3), 1)


def test_combine_sum_poles():
    F = {Fraction(-1, 2)}
    G = {Fraction(-1, 2), Fraction(-1, 2) - Fraction(1, 3)}
    assert combine_sum_poles(F, G) == {Fraction(-1), Fraction(-1) - Fraction(1, 3)}

    assert combine_sum_poles({Fraction(-1)}, set()) == set()
    assert combine_sum_poles({Fraction(-1, 2)}, {Fraction(-1, 2)}) == {Fraction(-1)}


def test_theorem_membership():
    assert theorem_membership(Fraction(-5, 6), 2)
    assert not theorem_membership(Fraction(-9, 10), 2)
    assert theorem_membership(Fraction(-3, 2), 3)
    assert theorem_membership(Fraction(-1, 4), 2)
    assert not theorem_membership(Fraction(-5, 4), 2)
    assert theorem_membership(Fraction(-5, 4), 3)


def test_laurent_of_family_distinguished_pole():
    # the reported residue agrees with a direct Laurent expansion
    ctx = PadicContext(5, 2)
    parts, residue, z = zeta_x2_ayl(ctx, 1, 5)
    le = laurent_at(z, Fraction(-1, 2) - Fraction(1, 5))
    assert le.pole_order == 1
    assert le.b(1) == residue
