"""Command-line interface: dispatch, exit codes, JSON schemas."""

import argparse
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr

import pytest
from hypothesis import given, settings, strategies as st

from igusa import cli, counting
from igusa.cli import run
from igusa.context import PadicContext
from igusa.families import zeta_xy_zi
from igusa.integrate2d import zeta_two_var
from igusa.poly import parse_poly
from igusa.zeta import one_var_integral


def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_count(capsys):
    code, out = _run(capsys, "count", "-f", "x^2+y^2", "--p", "5", "-i", "1")
    assert code == 0
    assert "9" in out


def test_count_modes_agree(capsys):
    code_n, out_n = _run(
        capsys, "count", "-f", "x*y+z^2", "--p", "3", "-i", "3", "--mode", "naive"
    )
    code_h, out_h = _run(
        capsys, "count", "-f", "x*y+z^2", "--p", "3", "-i", "3", "--mode", "hensel"
    )
    assert code_n == code_h == 0
    assert out_n == out_h


def test_poincare_json_golden(capsys):
    code, out = _run(capsys, "--json", "poincare", "-f", "x*y", "--p", "3", "-k", "3")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "p": 3,
        "n": 2,
        "coefficients": ["1/1", "5/9", "7/27", "1/9"],
        "counts": [1, 5, 21, 81],
    }


@pytest.mark.parametrize("f, p, k, data", [
    ("x*y+z^2", 2, 6, {"p": 2, "n": 3,
                       "coefficients": ["1/1", "1/2", "5/16", "5/32", "11/128", "11/256", "23/1024"],
                       "counts": [1, 4, 20, 80, 352, 1408, 5888]}),
    ("x*y+z^2", 3, 6, {"p": 3, "n": 3,
                       "coefficients": ["1/1", "1/3", "11/81", "11/243", "35/2187", "35/6561",
                                        "107/59049"],
                       "counts": [1, 9, 99, 891, 8505, 76545, 702027]}),
    ("x^2+y^2", 3, 2, {"p": 3, "n": 2, "coefficients": ["1/1", "1/9", "1/9"], "counts": [1, 1, 9]}),
])
def test_poincare_json_bytes(capsys, f, p, k, data):
    # the coefficients are read from the integer counts: M_i p^(-n i) in lowest terms
    code, out = _run(capsys, "--json", "poincare", "-f", f, "--p", str(p), "-k", str(k))
    assert code == 0
    assert out == json.dumps(data, indent=2) + "\n"


CELLS = [{"k": 1, "monomials": [[1, 1]], "box": [0, 0]}]


@pytest.mark.parametrize("expect, argv", [
    (0, ("count", "-f", "x*y+z^2", "--p", "3", "-i", "3", "--mode", "naive")),
    (0, ("count", "-f", "x*y+z^2", "--p", "3", "-i", "3", "--mode", "hensel")),
    (0, ("poincare", "-f", "x*y+z^2", "--p", "3", "-k", "6")),
    (0, ("zeta", "-f", "y^2-x^3", "--p", "3")),
    (0, ("zeta", "--family", "xyzi", "--i", "2", "--p", "3")),
    (0, ("zeta", "--charts", "CELLS", "--p", "3")),
    (0, ("resolve", "-f", "y^2-x^3")),
    (0, ("resolve", "-f", "y-x^2")),
    (0, ("poles", "--zeta", "ZETA")),
    (0, ("laurent", "--zeta", "ZETA", "--s0=-3/2")),
    (0, ("verify", "-f", "x*y+z^2", "--zeta", "ZETA", "--p", "3", "-k", "3")),
    (1, ("verify", "-f", "x*y+z^3", "--zeta", "ZETA", "--p", "3", "-k", "3")),
    (0, ("divisibility", "-f", "x*y+z^2", "--p", "2", "-k", "6", "--l=-3/2")),
    (0, ("divisibility", "-f", "y^2-x^3", "--p", "2", "-k", "6")),
], ids=["count-naive", "count-hensel", "poincare", "zeta-f", "zeta-family", "zeta-charts",
        "resolve", "resolve-smooth", "poles", "laurent", "verify", "verify-mismatch",
        "divisibility-l", "divisibility"])
def test_json_output_is_stdlib_indent_2(capsys, tmp_path, expect, argv):
    """Every command's --json stdout is json.dumps(value, indent=2) and a newline."""
    cells = tmp_path / "cells.json"
    cells.write_text(json.dumps(CELLS))
    files = {"ZETA": _xyzi_file(capsys, tmp_path, 2, 3), "CELLS": str(cells)}
    code, out = _run(capsys, "--json", *(files.get(a, a) for a in argv))
    assert code == expect
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


class _Str(str):
    pass


_TEXT = st.text(alphabet='"\\/\n\t\x00\x1f\x7fé€\u2028\U0001f600 a', max_size=4)
_LEAVES = st.one_of(_TEXT, st.text(), st.integers(), st.integers(-10**40, 10**40), st.booleans(),
                    st.none(), st.floats(allow_nan=True), _TEXT.map(_Str))
_KEYS = st.one_of(_TEXT, st.integers(), st.booleans(), st.none(), st.floats())
_VALUES = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(_TEXT, kids, max_size=4), st.dictionaries(_KEYS, kids, max_size=4)),
    max_leaves=24)


# hypothesis costs a few ms an example, whatever its size: a few hundred
# values of up to 24 leaves each keep the test near 1 s
@settings(max_examples=200)
@given(_VALUES)
def test_dumps_is_stdlib_indent_2(value):
    """cli._dumps writes json.dumps(value, indent=2), byte for byte, for
    nested lists, tuples and dicts (non-str keys among them), escaped and
    non-ASCII strings, str subclasses, big ints, bools, None, floats and NaN."""
    assert cli._dumps(value) == json.dumps(value, indent=2)


def test_dumps_raises_where_json_raises():
    for value in ({1, 2}, [{"a": b"x"}], {(1, 2): 3}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            cli._dumps(value)


def test_cli_import_does_not_load_numpy():
    # numpy is imported only by the counting functions that build arrays
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import igusa.cli, sys; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_zeta_family_json_golden(capsys):
    code, out = _run(
        capsys, "--json", "zeta", "--family", "xyzi", "--i", "2", "--p", "3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["p"] == 3
    assert data["numerator"] == [["2", "3"], ["-2", "81"]]
    assert data["denominator"] == [{"N": 1, "nu": 1}, {"N": 2, "nu": 3}]


@pytest.mark.parametrize("f", ["y^2-x^3", "x^2+y^2"])
def test_zeta_of_polynomial_matches_library(capsys, f):
    code, out = _run(capsys, "--json", "zeta", "-f", f, "--p", "3")
    assert code == 0
    assert json.loads(out) == zeta_two_var(parse_poly(f), PadicContext(3, 2)).to_json()


def test_zeta_round_trip_through_tools(capsys, tmp_path):
    code, out = _run(
        capsys, "--json", "zeta", "--family", "xyzi", "--i", "2", "--p", "3"
    )
    zfile = tmp_path / "z.json"
    zfile.write_text(out)

    code, out = _run(capsys, "poles", "--zeta", str(zfile))
    assert code == 0
    assert "-3/2" in out

    code, out = _run(capsys, "laurent", "--zeta", str(zfile), "--s0=-3/2", "-m", "2")
    assert code == 0
    assert "b_-1" in out

    code, out = _run(
        capsys, "verify", "-f", "x*y+z^2", "--zeta", str(zfile), "--p", "3", "-k", "3"
    )
    assert code == 0


def test_verify_mismatch_exit_code(capsys, tmp_path):
    code, out = _run(
        capsys, "--json", "zeta", "--family", "xyzi", "--i", "2", "--p", "3"
    )
    zfile = tmp_path / "z.json"
    zfile.write_text(out)
    code, out = _run(
        capsys, "verify", "-f", "x*y+z^3", "--zeta", str(zfile), "--p", "3", "-k", "3"
    )
    assert code == 1


def test_zeta_sum_squares(capsys):
    code, out = _run(capsys, "zeta", "--family", "sum-squares", "--p", "3")
    assert code == 0
    assert "t^2" in out


def test_resolve_text_and_dot(capsys, tmp_path):
    dot = tmp_path / "cusp.dot"
    code, out = _run(capsys, "resolve", "-f", "y^2-x^3", "--dot", str(dot))
    assert code == 0
    assert "E1: (N,nu) = (2,2)" in out
    assert "E3: (N,nu) = (6,5)" in out
    text = dot.read_text()
    assert 'E1 [label="E1(2,2)"]' in text


def test_resolve_non_rational_exit_code(capsys):
    code, out = _run(capsys, "resolve", "-f", "(y^2-2*x^2)^2+x^5")
    assert code == 3


def test_resolve_non_squarefree_exit_code(capsys):
    # a non-squarefree germ is unsupported input, not a usage error
    assert run(["resolve", "-f", "(x+y)^2*(x-y)"]) == 3
    assert "unsupported: non-squarefree input" in capsys.readouterr().err


def test_divisibility(capsys):
    code, out = _run(
        capsys, "divisibility", "-f", "x*y+z^2", "--p", "2", "-k", "6", "--l=-3/2"
    )
    assert code == 0
    assert "a_min" in out


@pytest.mark.parametrize("f", ["y^2-x^3", "x^2+y^5"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_divisibility_without_l_reads_the_zeta(capsys, f, p):
    # with 2 variables and no --l, l is the smallest real pole of Z
    code, out = _run(capsys, "--json", "divisibility", "-f", f, "--p", str(p), "-k", "6")
    data = json.loads(out)
    assert code == 0 and data["violations"] == []
    assert data["a_min_constructive"] >= data["a_min_empirical"]


def test_divisibility_without_l_flags_a_too_small_shift(capsys, monkeypatch):
    # with Z known, the counts are checked against Z's constructive shift;
    # a_min_empirical = 1 here, so a shift of 0 must be violated
    monkeypatch.setattr(cli, "constructive_shift", lambda z, n, l: (0, None))
    code, out = _run(capsys, "--json", "divisibility", "-f", "y^2-x^3", "--p", "2", "-k", "6")
    data = json.loads(out)
    assert code == 1
    assert data["a_min"] == data["a_min_constructive"] == 0 < data["a_min_empirical"]
    assert data["violations"]
    code, out = _run(capsys, "divisibility", "-f", "y^2-x^3", "--p", "2", "-k", "6")
    assert code == 1 and out.rstrip().endswith("VIOLATIONS")


def test_hensel_budget_is_an_error_not_a_crash(capsys, monkeypatch):
    # refused one level ahead, at the default budget
    assert run(["poincare", "-f", "x^2+0*y+0*z", "--p", "101", "-k", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: level 3: 10510100501 lifts exceed budget")
    monkeypatch.setattr(counting, "NAIVE_BUDGET", 1000)
    assert run(["poincare", "-f", "x*y+z^2", "--p", "3", "-k", "6"]) == 2
    assert capsys.readouterr().err.startswith("error: level 5: 2673 lifts exceed budget")


def test_zeta_from_chart_file(capsys, tmp_path):
    cells = tmp_path / "cells.json"
    cells.write_text(json.dumps([{"k": 1, "monomials": [[1, 1]], "box": [0, 0]}]))
    code, out = _run(capsys, "--json", "zeta", "--charts", str(cells), "--p", "3")
    assert code == 0
    assert json.loads(out) == one_var_integral(3, 0, 1, 1).to_json()


def _xyzi_file(capsys, tmp_path, i, p):
    zfile = tmp_path / "z.json"
    zfile.write_text(_run(capsys, "--json", "zeta", "--family", "xyzi", "--i", str(i), "--p", str(p))[1])
    return str(zfile)


def test_poles_character_order_drops_odd_N(capsys, tmp_path):
    # x*y+z^2 has the factors (N, nu) = (1, 1) and (2, 3)
    zfile = _xyzi_file(capsys, tmp_path, 2, 3)
    code, out = _run(capsys, "--json", "poles", "--zeta", zfile, "--chi-order", "2")
    assert code == 0
    assert json.loads(out)["candidates"] == [{"N": 2, "nu": 3, "real_part": "-3/2", "real_pole": True}]


def test_verify_prime_mismatch_is_usage_error(capsys, tmp_path):
    zfile = _xyzi_file(capsys, tmp_path, 2, 3)
    assert run(["verify", "-f", "x*y+z^2", "--zeta", zfile, "--p", "5", "-k", "2"]) == 2
    assert "--p does not match the zeta file" in capsys.readouterr().err


def test_laurent_at_an_integer_s0(capsys, tmp_path):
    zfile = _xyzi_file(capsys, tmp_path, 2, 3)
    code, out = _run(capsys, "--json", "laurent", "--zeta", zfile, "--s0", "-1")
    data = json.loads(out)
    assert code == 0 and data["s0"] == "-1" and data["pole_order"] == 1
    assert data["coefficients"]["b_-1"] == {"M": 1, "coeffs": ["8/9"], "logpow": 1}


@pytest.mark.parametrize("s0", ["-1/1000", "-1/100000", "0", "-2", "-6/4"])
def test_laurent_off_the_candidates_is_a_usage_error(capsys, tmp_path, s0):
    """laurent expands Z at a candidate pole -nu/N only; at -1/100000 the
    exact value needs a radical degree of 100000 and ran for minutes.
    -6/4 is the candidate -3/2 in other terms."""
    zfile = _xyzi_file(capsys, tmp_path, 2, 3)
    code = run(["laurent", "--zeta", zfile, f"--s0={s0}"])
    captured = capsys.readouterr()
    if s0 == "-6/4":
        assert code == 0 and captured.out.startswith("pole order 1 at s0 = -3/2\n")
        return
    assert code == 2 and captured.out == ""
    assert "is not a candidate pole" in captured.err and "(candidates: -3/2, -1)" in captured.err


def test_resolve_smooth_germ_has_no_curves(capsys):
    code, out = _run(capsys, "--json", "resolve", "-f", "y-x^2")
    assert code == 0
    assert json.loads(out) == {"curves": [], "adjacency": [],
                               "strict_components": [{"attached_to": -1, "degree": 1}]}
    assert _run(capsys, "resolve", "-f", "y-x^2") == (0, "already normal crossings\n")


def test_deeply_nested_input_is_an_error_not_a_crash(capsys):
    assert run(["count", "-f", "(" * 3000 + "x" + ")" * 3000, "--p", "3", "-i", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_huge_exponent_parses_at_once(capsys):
    code, out = _run(capsys, "--json", "count", "-f", "x^99999999+y", "--p", "3", "-i", "3")
    assert code == 0 and json.loads(out)["count"] == 27


def test_usage_errors(capsys):
    assert _run(capsys, "count", "-f", "x^2", "--p", "4", "-i", "1")[0] == 2
    assert _run(capsys, "zeta", "--family", "xyzi", "--p", "3")[0] == 2
    # the descent takes 2 variables; -f excludes --family and --charts
    assert _run(capsys, "zeta", "-f", "x*y+z^2", "--p", "3")[0] == 2
    assert _run(capsys, "zeta", "-f", "x^2+y^2", "--family", "sum-squares", "--p", "3")[0] == 2
    assert _run(capsys, "count", "-f", "x^(", "--p", "3", "-i", "1")[0] == 2
    # without --l, divisibility reads l from the descent, which takes 2 variables
    assert run(["divisibility", "-f", "x*y+z^2", "--p", "2", "-k", "2"]) == 2
    assert "--l is required" in capsys.readouterr().err


def test_internal_error_exit_code(capsys):
    # a repeated non-axis factor sends the descent past its depth limit
    code = run(["divisibility", "-f", "(x+y)^2", "--p", "2", "-k", "2"])
    assert code == 4
    assert capsys.readouterr().err.startswith("internal error:")


def test_bad_inputs_stay_usage_errors(capsys, tmp_path):
    # arithmetic failures caused by the input are not internal errors
    assert _run(capsys, "divisibility", "-f", "x*y+z^2", "--p", "2", "-k", "2", "--l=1/0")[0] == 2
    zfile = tmp_path / "z.json"
    zfile.write_text(json.dumps({"p": 3, "numerator": [["1", "0"]], "denominator": []}))
    assert _run(capsys, "poles", "--zeta", str(zfile))[0] == 2


def test_fraction_inputs_are_exact(capsys, tmp_path):
    code, out = _run(
        capsys, "--json", "zeta", "--family", "xyzi", "--i", "3", "--p", "2"
    )
    zfile = tmp_path / "z.json"
    zfile.write_text(out)
    code, out = _run(capsys, "laurent", "--zeta", str(zfile), "--s0=-4/3", "-m", "1")
    assert code == 0


def test_laurent_json_echoes_the_reduced_s0(capsys, tmp_path):
    """--s0=-8/6 is -4/3: JSON carries the reduced value, as the text does."""
    zfile = tmp_path / "z.json"
    zfile.write_text(_run(capsys, "--json", "zeta", "--family", "xyzi", "--i", "3", "--p", "3")[1])
    code, text = _run(capsys, "laurent", "--zeta", str(zfile), "--s0=-8/6")
    assert code == 0 and text.startswith("pole order 1 at s0 = -4/3\n")
    reduced = _run(capsys, "--json", "laurent", "--zeta", str(zfile), "--s0=-4/3")[1]
    code, out = _run(capsys, "--json", "laurent", "--zeta", str(zfile), "--s0=-8/6")
    assert code == 0 and json.loads(out)["s0"] == "-4/3" and out == reduced


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "-f", "x*y", "--p", "3", "-i", "-1", "--mode", "hensel"),
        ("count", "-f", "x*y", "--p", "3", "-i", "-1", "--mode", "naive"),
        ("poincare", "-f", "x*y", "--p", "3", "-k", "-1"),
        ("verify", "-f", "x*y+z^2", "--zeta", "ZETA", "--p", "3", "-k", "-1"),
        ("divisibility", "-f", "x*y+z^2", "--p", "2", "-k", "-1", "--l=-3/2"),
    ],
    ids=["count-hensel", "count-naive", "poincare", "verify", "divisibility"],
)
def test_negative_level_is_usage_error(capsys, tmp_path, argv):
    zfile = tmp_path / "z.json"
    zfile.write_text(json.dumps(zeta_xy_zi(PadicContext(3, 3), 2).to_json()))
    assert run([str(zfile) if a == "ZETA" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "level -1 < 0" in captured.err


@pytest.mark.parametrize(
    "cmd, content",
    [
        ("zeta", []),
        ("zeta", [{"k": 0, "box": [0, 0]}]),
        ("zeta", {"k": 0}),
        ("zeta", [{"k": 0, "monomials": [], "box": [-1]}]),
        ("zeta", [{"k": 0, "monomials": [], "box": [0], "ord_eta": 1.5}]),
        ("zeta", [{"k": 1, "monomials": [[1.5, 1]], "box": [0]}]),
        ("zeta", [{"k": 0, "monomials": [], "box": [0, 0]}, {"k": 0, "monomials": [], "box": [0]}]),
        ("zeta", [{"k": 0, "monomials": [], "box": [0], "ord_eps": -1}]),
        ("zeta", [{"k": 2, "monomials": [[1, 1], [1, 1]], "box": [0]}]),
        ("zeta", [{"k": 1, "monomials": [[1, 1], [1, 1]], "box": [0, 0]}]),
        ("zeta", [{"k": 1, "monomials": [[0, 1]], "box": [0]}]),
        ("poles", {"p": 3, "denominator": []}),
        ("verify", {"p": 3, "numerator": [["1", "1"]]}),
        ("laurent", {"p": 3, "numerator": [["1", "1"]], "denominator": [{"N": 0, "nu": 1}]}),
        ("poles", {"p": 3, "numerator": [["1", "1"]], "denominator": [{"N": 0, "nu": 1}]}),
        ("verify", {"p": 3, "numerator": [["1", "1"]], "denominator": [{"N": 1, "nu": 0}]}),
        ("poles", {"p": 4, "numerator": [["1", "1"]], "denominator": [{"N": 1, "nu": 1}]}),
        ("laurent", {"p": 3, "numerator": [["1", "0"]], "denominator": [{"N": 1, "nu": 1}]}),
        ("laurent", {"p": 3, "numerator": [["1.5", "2"]], "denominator": [{"N": 1, "nu": 1}]}),
        ("poles", {"p": 3.0, "numerator": [["1", "1"]], "denominator": [{"N": 1, "nu": 1}]}),
        ("laurent", {"p": 3.0, "numerator": [["1", "1"]], "denominator": [{"N": 1, "nu": 1}]}),
        ("poles", {"p": 3, "numerator": [["1", "1"]], "denominator": [{"N": 2.0, "nu": 1}]}),
        ("laurent", {"p": 3, "numerator": [["1", "1"]], "denominator": [{"N": 2.0, "nu": 1}]}),
        ("poles", {"p": 3, "numerator": [["1", "1"]], "denominator": [{"N": 2, "nu": 1.5}]}),
        ("laurent", {"p": 3, "numerator": [["1", "1"]], "denominator": [{"N": 2, "nu": 1.5}]}),
        ("poles", {"p": 3, "numerator": [["1", "1"]], "denominator": [{"N": True, "nu": 1}]}),
        ("laurent", {"p": 3, "numerator": [[1.5, 2]], "denominator": [{"N": 1, "nu": 1}]}),
        ("laurent", {"p": 3, "numerator": [[1, 2.0]], "denominator": [{"N": 1, "nu": 1}]}),
        ("poles", {"p": 3, "numerator": [[True, 1]], "denominator": [{"N": 1, "nu": 1}]}),
    ],
    ids=["no-cells", "cell-without-monomials", "cells-not-a-list", "box-negative",
         "ord-eta-not-int", "N-not-int", "boxes-of-different-lengths", "ord-eps-negative",
         "k-above-n", "monomials-not-k", "N-zero",
         "zeta-without-numerator", "zeta-without-denominator",
         "laurent-N-zero", "poles-N-zero", "verify-nu-zero", "poles-p-not-prime",
         "numerator-zero-denominator", "numerator-not-int",
         "poles-p-float", "laurent-p-float", "poles-N-float", "laurent-N-float",
         "poles-nu-float", "laurent-nu-float", "poles-N-bool",
         "laurent-numerator-float", "laurent-numerator-denominator-float", "poles-numerator-bool"],
)
def test_malformed_files_are_usage_errors(capsys, tmp_path, cmd, content):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(content))
    argv = {
        "zeta": ("zeta", "--charts", str(path), "--p", "3"),
        "laurent": ("laurent", "--zeta", str(path), "--s0", "-1"),
        "poles": ("poles", "--zeta", str(path)),
        "verify": ("verify", "-f", "x", "--zeta", str(path), "--p", "3", "-k", "2"),
    }[cmd]
    assert run(list(argv)) == 2
    assert capsys.readouterr().err.startswith("usage error: ")


COMMAND_WORDS = ["count", "poincare", "zeta", "resolve", "laurent", "poles", "verify",
                 "divisibility"]


def test_cli_grammar(capsys, tmp_path):
    """`[--json] COMMAND ...`: help exits 0, and a missing or unknown command,
    --json after the command word, a missing required flag or a bad choice
    exit 2 with argparse's message; flags may be abbreviated, and laurent's
    -m changes nothing."""
    for flag in ("-h", "--help"):
        assert run([flag]) == 0
        out = capsys.readouterr().out
        assert all(word in out for word in COMMAND_WORDS)
    assert run(["zeta", "-h"]) == 0 and "--family" in capsys.readouterr().out
    family = ["--family", "xyzi", "--i", "2", "--p", "3"]
    for argv in ([], ["nosuch"], ["--json", "nosuch"], ["zeta", "--json", *family],
                 ["zeta", "--family", "xyzi", "--i", "2"],
                 ["count", "-f", "x*y", "--p", "3", "-i", "1", "--mode", "bogus"]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "error: " in captured.err, argv
        assert "Traceback" not in captured.err, argv
    code, out = _run(capsys, "--json", "zeta", "--fam", "xyzi", "--i", "2", "--p", "3")
    assert code == 0 and out == _run(capsys, "--json", "zeta", *family)[1]
    zfile = tmp_path / "z.json"
    zfile.write_text(out)
    laurent = ["--json", "laurent", "--zeta", str(zfile), "--s0=-3/2"]
    assert _run(capsys, *laurent, "-m", "4") == _run(capsys, *laurent)


def _reference(options, argv):
    """argparse's reading of argv by a command's option table: the values,
    or None where argparse refuses argv."""
    ap = argparse.ArgumentParser(prog="igusa-zeta")
    for flag, (kind, required, default) in options.items():
        if kind:  # argparse adds -h and --help itself
            ap.add_argument(flag, required=required, default=default,
                            **({"choices": kind} if type(kind) is tuple else {"type": kind}))
    try:
        with redirect_stderr(io.StringIO()):
            ns, extra = ap.parse_known_args(argv)
    except SystemExit:
        return None
    return None if extra else vars(ns)


def _read(options, argv):
    try:
        return vars(cli._parse(options, argv))
    except cli.UsageError:
        return None


# values drawn for each kind of flag; a "-"-leading one is a negative number
# or starts with no digit: argparse's negative-number pattern is an internal
# detail, and strings such as -3/2 or -1e5 are where a change to it shows
_VALUES = {
    int: (["3", "0", "12", "+2", "007", "-1", "-12"], ["-.5", "three", "1.5", "", "-x"]),
    str: (["x*y", "y^2-x^3", "a=b", "x y", "", "-", "-1", "-2.5", "-x y"],
          ["-x^2", "-f", "--p", "--fam", "-i7", "-k=2", "--zeta=z"]),
}
# unknown flags and stray words; "--" and -h/--help are left out: argparse
# acts on help mid-parse, before later errors, and "--" is read differently
# by different argparse releases
_ODD = ["--bogus", "--bogus=1", "-z", "-z1", "stray", "-7"]


@st.composite
def _argv(draw):
    """(command word, argv) in the documented forms: flags spelt exactly or
    as unique long prefixes, values separate, after = or attached to a
    one-letter flag, flags repeated or left out, values missing, bad ints
    and choices, unknown flags and stray words."""
    cmd = draw(st.sampled_from(COMMAND_WORDS))
    options = cli.COMMANDS[cmd][1]
    items = []
    for flag, (kind, required, _) in options.items():
        if not kind:
            continue
        names = [flag] + [flag[:k] for k in range(3, len(flag)) if flag[1] == "-"
                          and sum(o.startswith(flag[:k]) for o in options) == 1]
        good, bad = _VALUES.get(kind) or (list(kind), ["bogus", kind[0][:3], ""])
        values = 3 * good + bad  # one value in three to five is bad
        for _ in range(draw(st.sampled_from([1, 1, 1, 1, 1, 2, 0] if required else [0, 1, 1, 2]))):
            name, value = draw(st.sampled_from(names)), draw(st.sampled_from(values))
            forms = [[name, value]] * 4 + [[f"{name}={value}"]] * 2 + [[name]]
            items.append(draw(st.sampled_from(forms + ([[name + value]] if len(name) == 2 else []))))
    items += draw(st.lists(st.sampled_from(_ODD).map(lambda t: [t]), max_size=1))
    return cmd, [t for item in draw(st.permutations(items)) for t in item]


@settings(max_examples=250, derandomize=True)
@given(_argv())
def test_option_reader_matches_argparse(case):
    """cli._parse accepts and refuses the argv argparse does, with the same
    values, on every command's option table."""
    cmd, argv = case
    options = cli.COMMANDS[cmd][1]
    assert _read(options, argv) == _reference(options, argv), argv


def test_option_reader_forms():
    count, zeta = cli.COMMANDS["count"][1], cli.COMMANDS["zeta"][1]
    assert vars(cli._parse(count, ["-fx*y", "--p=3", "-i", "-1", "--m", "naive", "-i=2"])) == {
        "f": "x*y", "p": 3, "i": 2, "mode": "naive"}
    assert cli._parse(zeta, ["--fam=xyzi", "--i", "2", "--p", "3"]).family == "xyzi"
    assert cli._parse(count, ["-f", "x", "--p", "3", "-i", "1", "--he"]) is None
    for argv in (["-f", "x", "--p", "three", "-i", "1"], ["-f", "x", "--p", "3"],
                 ["-f", "x", "--p", "3", "-i", "1", "--mode", "hen"],
                 ["-f", "x", "--p", "3", "-i", "1", "--"], ["-f", "--p", "3", "-i", "1"]):
        with pytest.raises(cli.UsageError):
            cli._parse(count, argv)
    with pytest.raises(cli.UsageError, match="--l: expected one argument"):
        cli._parse(cli.COMMANDS["divisibility"][1], ["-f", "x", "--p", "2", "-k", "2", "--l", "-3/2"])
    with pytest.raises(cli.UsageError, match="ambiguous option: --f could match --family, --file"):
        cli._flag({"--family": (str, False, None), "--file": (str, False, None)}, "--f")


def test_usage_errors_exit_2_and_help_exits_0(capsys):
    assert run(["count", "-f", "x", "--p", "three", "-i", "1"]) == 2
    assert capsys.readouterr().err == "usage error: argument --p: invalid int value: 'three'\n"
    assert run(["--json", "count", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: igusa-zeta [--json] count -f STR --p INT -i INT")


def test_cli_import_does_not_load_argparse():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import igusa.cli, sys; sys.exit('argparse' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_poles_of_a_huge_factor_fold_at_the_least_degree(capsys, tmp_path):
    """is_real_pole folds the numerator 1 at M = 1, not at the denominator
    10^9 of s0, which built a 10^9-entry list."""
    zfile = tmp_path / "z.json"
    zfile.write_text(json.dumps({"p": 3, "numerator": [["1", "1"]],
                                 "denominator": [{"N": 10**9, "nu": 1}]}))
    code, out = _run(capsys, "--json", "poles", "--zeta", str(zfile))
    assert code == 0 and json.loads(out)["candidates"] == [
        {"N": 10**9, "nu": 1, "real_part": "-1/1000000000", "real_pole": True}]


def test_naive_count_at_a_huge_level_is_refused_at_once(capsys):
    """count_naive refuses p^(n*i) past its budget before it computes p^i."""
    start = time.perf_counter()
    assert run(["count", "-f", "x*y", "--p", "3", "-i", "1000000000", "--mode", "naive"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.endswith("exceeds budget 100000000\n")
