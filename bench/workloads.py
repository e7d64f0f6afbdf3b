"""The benchmark's workloads: inputs drawn from a seed, the job lists, and
the output check of every job.

Each workload is a closed loop in one process: its jobs run one after
another, with no threads.  A job's `run` is timed and returns its JSON
output; its `check` runs outside the timed region and returns the problems
it found.

Why these workloads, and why the seed varies so little
------------------------------------------------------
* `germ_zeta` is the headline germ of the roadmap, u*y^2 + v*x^5 at p = 2
  and p = 3.  It loads the residue-class descent (`integrate2d._W`) and the
  rational-function arithmetic (`ZetaRational.__add__`, `QPoly.__mul__`);
  counting, radicals and resolution barely run.  For y^2 - x^5 the descent
  makes 189 `_W` calls (186 distinct) at p = 2 and 629 (459 distinct) at
  p = 3, with 2 444 and 16 052 `QPoly.__mul__` calls.
* `oracle_counts` runs `verify` (p = 3, k = 6) and `divisibility` (p = 2,
  k = 8, l = -3/2) on x*y + u*z^2 through `igusa.cli.run`, and the naive
  counts (`count --mode naive`, i <= 3) that cross-check Hensel counting.  It
  loads `count_hensel` and `MultiPoly.eval_int` (907 562 evaluations at
  p = 3, k = 6) and does no descent: l is given and the zeta comes from the
  closed form.  Every level restarts the count from i = 0.
* `residue_poles` runs the closed-form families through the CLI (`zeta`,
  `poles`, `laurent` for x*y + z^i, i = 2..20; `zeta` for x^2 + y^2),
  `resolve` with the relation checks on the plane-germ corpus, and the
  closed-form residues of x^2 + a*y^(2r+1), r <= 16, with their signs.  It
  loads Laurent expansion, `RadicalScalar` (M up to 66),
  `integrate_univariate`, `resolve` and sympy, while descent and counting
  are nearly idle.  A change aimed at `germ_zeta` should leave it flat.

The seed draws only units and prime orderings from the fixed sets below.
The exponents, primes and sizes are fixed, because they move the cost by
orders of magnitude: x^2 + y^5 needs 14 `_W` calls (0.05 s), while
x^2 + y^9 was timed at about 185 s at p = 2.  Every pair of units from
`GERM_UNITS` tried (eight at p = 2, six at p = 3) gave the same descent
tree, 189 and 629 `_W` calls, so the seed changes the inputs but not the
amount of work.  Timings that differed across unit choices (8.0-10.9 s at
p = 2, 14.8-20.5 s at p = 3) came from the host's drifting speed: at
reference speed (`refclock.py`) ten seeds spread by 1.5-3%.  Seed 0 is the reference instance (u = 1, v = -1, primes
ascending): the instance the roadmap times and the one whose JSON outputs
are pinned by SHA-256 digests.
`HELD_OUT_SEED` is kept out of development runs, so that a later claim can
be confirmed on a seed it was not tuned on.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import sympy  # noqa: E402,F401  (charts and resolve import it lazily; setup pays it once)

from igusa import cli, families, integrate2d, resolve  # noqa: E402
from igusa.context import PadicContext  # noqa: E402
from igusa.counting import count_hensel  # noqa: E402
from igusa.poly import MultiPoly, parse_poly  # noqa: E402
from igusa.radical import RadicalScalar  # noqa: E402
from igusa.zeta import ZetaRational, eval_at_one, poincare_from_zeta  # noqa: E402

REFERENCE_SEED = 0
HELD_OUT_SEED = 104729

# units for u*y^2 + v*x^5 at p = 2 and p = 3
GERM_UNITS = {2: (1, -1, 3, -3, 5, -5, 7, -7), 3: (1, -1, 2, -2, 4, -4, 5, -5)}
# units at both 2 and 3, since x*y + u*z^2 is counted at p = 3 and p = 2
ORACLE_UNITS = (1, -1, 5, -5, 7, -7, 11, -11)
RESIDUE_UNITS = (1, -1, 2, -2, 3, -3, 5, -5, 6, -6)
XYZI_PRIMES = (2, 3, 5, 7)
SUM_SQUARES_PRIMES = (2, 3, 5, 7, 13)

# the plane-germ corpus of the acceptance gate
CORPUS_2VAR = (
    "y^2-x^3", "y^2-x^5", "x^2+y^3", "x^2+y^4", "x^2+y^5", "x^2+y^6",
    "x^2+y^7", "x*y*(x+y)+x^4", "x^2+y^2",
)


@dataclass
class Workspace:
    """Files a run writes (inside the checkout) and bytes the CLI printed."""

    dir: Path
    cli_bytes: int = 0

    def cli(self, *argv: str) -> tuple[int, str]:
        """Run `igusa.cli.run` with captured output: (exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(list(argv))
        text = out.getvalue()
        self.cli_bytes += len(text.encode())
        return code, text


@dataclass
class Job:
    id: str
    run: Callable[[Workspace], object]
    check: Callable[[object], list[str]]


@dataclass
class Workload:
    jobs: list[Job]
    inputs: dict  # what the seed drew, for the result file


def _rng(seed: int) -> random.Random | None:
    return None if seed == REFERENCE_SEED else random.Random(seed)


def _pick(rng: random.Random | None, choices, reference):
    return reference if rng is None else rng.choice(choices)


def _order(rng: random.Random | None, items) -> list:
    items = list(items)
    if rng is not None:
        rng.shuffle(items)
    return items


def _cli_ok(code: int, what: str) -> list[str]:
    return [] if code == 0 else [f"{what} exited with {code}"]


def _zeta_ok(data: dict, f: MultiPoly | None = None, imax: int = 0) -> list[str]:
    """Z(1) = 1, and if f is given, the counts Z predicts equal Hensel
    counts up to p^imax."""
    z = ZetaRational.from_json(data)
    if eval_at_one(z) != 1:
        return [f"Z(1) = {eval_at_one(z)}"]
    if f is None:
        return []
    predicted = poincare_from_zeta(z, f.nvars, imax).counts()
    actual = [count_hensel(f, z.p, i) for i in range(imax + 1)]
    return [] if predicted == actual else [f"Z predicts {predicted}, Hensel gives {actual}"]


# -- germ_zeta ------------------------------------------------------------


def germ_zeta(seed: int, ws: Workspace, ex: int = 5, primes=(2, 3),
              count_to: int = 4) -> Workload:
    rng = _rng(seed)
    jobs, inputs = [], {}
    for p in primes:
        u = _pick(rng, GERM_UNITS[p], 1)
        v = _pick(rng, GERM_UNITS[p], -1)
        f = MultiPoly(("x", "y"), {(0, 2): u, (ex, 0): v})
        inputs[f"p{p}"] = str(f)

        def run(ws, f=f, p=p):
            return integrate2d.zeta_two_var(f, PadicContext(p, 2)).to_json()

        def check(out, f=f):
            return _zeta_ok(out, f, count_to)

        jobs.append(Job(f"zeta_two_var/p{p}", run, check))
    return Workload(jobs, inputs)


# -- oracle_counts ----------------------------------------------------------


def oracle_counts(seed: int, ws: Workspace, k_verify: int = 6, k_div: int = 8,
                  naive_to: int = 3) -> Workload:
    rng = _rng(seed)
    u = _pick(rng, ORACLE_UNITS, 1)
    text = "x*y" + {1: "+z^2", -1: "-z^2"}.get(u, f"{u:+d}*z^2")
    f = parse_poly(text)
    zfile = ws.dir / "xyzi_i2_p3.json"
    zfile.write_text(json.dumps(families.zeta_xy_zi(PadicContext(3, 3), 2).to_json()))

    def verify(ws):
        return ws.cli("--json", "verify", "-f", text, "--zeta", str(zfile),
                      "--p", "3", "-k", str(k_verify))

    def check_verify(out):
        code, stdout = out
        if code or not json.loads(stdout)["ok"]:
            return [f"verify exited with {code}: {stdout.strip()}"]
        return []

    def divisibility(ws):
        return ws.cli("--json", "divisibility", "-f", text, "--p", "2",
                      "-k", str(k_div), "--l=-3/2")

    def check_divisibility(out):
        code, stdout = out
        if code or json.loads(stdout)["violations"]:
            return [f"divisibility exited with {code}: {stdout.strip()}"]
        return []

    def naive_job(p):
        def run(ws):
            return [ws.cli("--json", "count", "-f", text, "--p", str(p), "-i", str(i),
                           "--mode", "naive") for i in range(1, naive_to + 1)]

        def check(out):
            if any(code for code, _ in out):
                return [f"count exited with {[code for code, _ in out]}"]
            naive = [json.loads(stdout)["count"] for _, stdout in out]
            hensel = [count_hensel(f, p, i) for i in range(1, naive_to + 1)]
            return [] if naive == hensel else [f"naive {naive} != Hensel {hensel} at p = {p}"]

        return Job(f"count_naive/p{p}", run, check)

    jobs = [Job("verify/p3", verify, check_verify), naive_job(3),
            Job("divisibility/p2", divisibility, check_divisibility), naive_job(2)]
    return Workload(jobs, {"f": text})


# -- residue_poles ----------------------------------------------------------


def _leading_sign(laurent_json: dict, p: int) -> int:
    k = laurent_json["pole_order"]
    b = laurent_json["coefficients"][f"b_-{k}" if k else "b_0"]
    coeffs = [Fraction(c) for c in b["coeffs"]]
    return RadicalScalar(p, b["M"], coeffs).sign()


def _xyzi_job(i: int, p: int) -> Job:
    def run(ws):
        path = ws.dir / f"xyzi_i{i}_p{p}.json"
        code, ztext = ws.cli("--json", "zeta", "--family", "xyzi", "--i", str(i), "--p", str(p))
        path.write_text(ztext)
        pcode, ptext = ws.cli("--json", "poles", "--zeta", str(path))
        laurents = []
        for cand in json.loads(ptext)["candidates"] if pcode == 0 else []:
            laurents.append(ws.cli("--json", "laurent", "--zeta", str(path),
                                   f"--s0={cand['real_part']}", "-m", "4"))
        return [code, ztext, pcode, ptext, laurents]

    def check(out):
        code, ztext, pcode, ptext, laurents = out
        problems = _cli_ok(code, "zeta") + _cli_ok(pcode, "poles")
        if problems:
            return problems
        problems += _zeta_ok(json.loads(ztext))
        real = {Fraction(c["real_part"]) for c in json.loads(ptext)["candidates"] if c["real_pole"]}
        if real != {Fraction(-1), Fraction(-(i + 1), i)}:
            problems.append(f"real poles {sorted(real)}")
        # Z > 0 to the right of its largest pole -1, so the residue there is
        # positive; at -(i+1)/i the factor 1 - t/p of the denominator is
        # negative, so the residue is negative.
        for lcode, ltext in laurents:
            problems += _cli_ok(lcode, "laurent")
            if lcode:
                continue
            data = json.loads(ltext)
            want = 1 if Fraction(data["s0"]) == -1 else -1
            if _leading_sign(data, p) != want:
                problems.append(f"residue sign at {data['s0']} is not {want:+d}")
        return problems

    return Job(f"xyzi/i{i}/p{p}", run, check)


def _sum_squares_job(p: int) -> Job:
    def run(ws):
        return ws.cli("--json", "zeta", "--family", "sum-squares", "--p", str(p))

    def check(out):
        code, text = out
        return _cli_ok(code, "zeta") or _zeta_ok(json.loads(text))

    return Job(f"sum_squares/p{p}", run, check)


def _resolve_job(text: str) -> Job:
    def run(ws):
        code, out = ws.cli("--json", "resolve", "-f", text)
        tree = resolve.resolve_germ(parse_poly(text, vars=("x", "y")))
        reports = [resolve.relations_check(tree, step) for step in range(1, len(tree.log) + 1)]
        return [code, out, [{"step": r["step"], "ok": r["ok"]} for r in reports]]

    def check(out):
        code, _, reports = out
        bad = [r["step"] for r in reports if not r["ok"]]
        return _cli_ok(code, "resolve") + ([f"relations fail at steps {bad}"] if bad else [])

    return Job(f"resolve/{text}", run, check)


def _residue_job(p: int, a: int, rmax: int) -> Job:
    def run(ws):
        out = []
        for r in range(1, rmax + 1):
            res = families.residue_x2_ayl_odd(PadicContext(p, 2), a, r)
            out.append([res.to_json(), res.value.sign()])
        return out

    def check(out):
        bad = [r + 1 for r, (_, sign) in enumerate(out) if sign != 1]
        return [f"residue sign not +1 for r in {bad}"] if bad else []

    return Job(f"residue_x2_ayl_odd/p{p}", run, check)


def residue_poles(seed: int, ws: Workspace, imax: int = 20, rmax: int = 16,
                  corpus=CORPUS_2VAR) -> Workload:
    rng = _rng(seed)
    primes = _order(rng, XYZI_PRIMES)
    squares = _order(rng, SUM_SQUARES_PRIMES)
    units = {p: _pick(rng, [a for a in RESIDUE_UNITS if a % p], 1) for p in primes}
    jobs = [_xyzi_job(i, p) for p in primes for i in range(2, imax + 1)]
    jobs += [_sum_squares_job(p) for p in squares]
    jobs += [_resolve_job(text) for text in corpus]
    jobs += [_residue_job(p, units[p], rmax) for p in primes]
    return Workload(jobs, {"primes": primes, "sum_squares_primes": squares,
                           "a": {str(p): a for p, a in units.items()}})


# -- smoke: the smallest instance of all three, for the self-test ----------


def smoke(seed: int, ws: Workspace) -> Workload:
    """y^2 + x^3 (as u*y^2 + v*x^3) at p = 2, k = 3, i = 2; seconds per pass."""
    parts = [
        germ_zeta(seed, ws, ex=3, primes=(2,), count_to=3),
        oracle_counts(seed, ws, k_verify=3, k_div=3, naive_to=2),
        residue_poles(seed, ws, imax=2, rmax=1, corpus=CORPUS_2VAR[:1]),
    ]
    return Workload([j for w in parts for j in w.jobs],
                    {k: v for w in parts for k, v in w.inputs.items()})


WORKLOADS = {
    "germ_zeta": germ_zeta,
    "oracle_counts": oracle_counts,
    "residue_poles": residue_poles,
    "smoke": smoke,
}
