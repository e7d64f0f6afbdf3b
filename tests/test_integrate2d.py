"""Two-variable germ integrals cross-checked against solution counting."""

import hashlib
import json
from fractions import Fraction

import pytest

from igusa.context import PadicContext
from igusa.counting import verify_zeta_against_counts
from igusa.integrate2d import zeta_two_var
from igusa.poly import parse_poly
from igusa.zeta import eval_at_one, laurent_at, series_coeffs

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
# sort_keys=True), recorded before the integer rational-function core
GOLDEN = [
    ("y^2-x^3", 2, "fab357188f054e82f9b70b9b67d436cd2f452cf0dcfb28f9ccd3c1ef6a644a0a"),
    ("y^2-x^3", 3, "d78a3c4821bf1ad129ed3f4e10416e6117b5d43af48df13179d30623b6f0ec31"),
    ("y^2-x^5", 2, "20229e49dfab4e18bd99dc93bf6efbf9b33b540c33d19919242a75208dc4d5be"),
    ("y^2-x^5", 3, "e6af608a5888a3582c4a20fbb915456bed324135c372ebc8df5bf6d781f8b5f4"),
    ("x*y*(x+y)+x^4", 2, "01e8dfe72cbb15af4192ff950ebc2b7caa809462947dc8d41e6f5f5f13a5173f"),
    ("x*y*(x+y)+x^4", 3, "8a32b92e4b5d856d4404ef3feb29ad75d79f66f76accbffe00687bb3fbe61958"),
    ("x^2+y^2", 2, "6e00f5618509d14b39cb3c07f0137bc7677840a91eb366697f4146d39f11e2c4"),
    ("x^2+y^2", 3, "9ed484528089c19ca8638ef132000d35ca79030bfe9875a96763112327ff1a10"),
]


@pytest.mark.parametrize("text, p, digest", GOLDEN, ids=[f"{t}-{p}" for t, p, _ in GOLDEN])
def test_json_golden(text, p, digest):
    z = zeta_two_var(parse_poly(text, vars=("x", "y")), PadicContext(p, 2))
    got = json.dumps(z.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(got).hexdigest() == digest


@pytest.mark.parametrize("text", CORPUS)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_matches_counts(text, p):
    f = parse_poly(text, vars=("x", "y"))
    z = zeta_two_var(f, PadicContext(p, 2))
    ok, predicted, actual = verify_zeta_against_counts(z, f, 3)
    assert ok, (text, p, predicted, actual)
    assert eval_at_one(z) == 1


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
