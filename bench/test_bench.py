"""Self-test of the benchmark on its smallest inputs (the `smoke` workload:
the cusp y^2 - x^3 at p = 2, k = 3, i = 2).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from igusa import counting
from tracer import PER_LAYER, Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def work_dir():
    """A workspace inside the checkout, as the benchmark's own runs use."""
    path = run.OUT / f"selftest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench(*argv):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), *argv],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    lines = _bench("--workload", "smoke", "--seed", "0", "--seconds", "1", "--trace", str(trace))
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert any(line.startswith("failed_frac") for line in lines)


def test_spec_lists_every_per_layer_metric_of_the_tracer():
    assert [m["name"] for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert all(m["unit"] == PER_LAYER[m["name"]][0] for m in SPEC["per_layer"])


def test_wrong_zeta_makes_failed_frac_positive(work_dir):
    ws = workloads.Workspace(work_dir)
    wl = workloads.smoke(workloads.REFERENCE_SEED, ws)
    germ = next(j for j in wl.jobs if j.id.startswith("zeta_two_var/"))
    good = germ.run

    def doubled(ws):
        data = good(ws)
        data["numerator"] = [[str(2 * int(a)), b] for a, b in data["numerator"]]
        return data

    germ.run = doubled
    # verify against the zeta of x*y + z^3 instead of x*y + z^2
    wrong = workloads.families.zeta_xy_zi(workloads.PadicContext(3, 3), 3)
    (work_dir / "xyzi_i2_p3.json").write_text(json.dumps(wrong.to_json()))
    golden = json.loads(run.DIGESTS.read_text())["smoke"]

    (p,) = run.run_passes(wl.jobs, ws, 0, golden=golden)
    assert len(p.failed) / len(wl.jobs) > 0
    assert set(p.failed) == {germ.id, "verify/p3"}
    assert any("Z(1) = 2" in problem for problem in p.failed[germ.id])


def test_tracer_restores_every_binding(work_dir):
    before_w = workloads.integrate2d._W
    before_defaults = counting.poincare_truncation.__defaults__
    before_cli = workloads.integrate2d.zeta_two_var
    ws = workloads.Workspace(work_dir)
    wl = workloads.smoke(5, ws)
    tracer = Tracer()
    run.run_pass(wl.jobs, ws, tracer)
    assert workloads.integrate2d._W is before_w
    assert counting.poincare_truncation.__defaults__ is before_defaults
    assert workloads.cli.zeta_two_var is before_cli is workloads.families.zeta_two_var
    metrics = tracer.layer_metrics()
    # counts reach the layers through every binding: default arguments,
    # `from ... import` names and the recursion of _W
    assert metrics["counting.hensel.calls"] > 0
    assert metrics["integrate2d.W.calls"] > 1
    assert metrics["resolve.blowup_steps"] > 0


def test_seed_draws_units_only_from_the_fixed_sets(work_dir):
    ws = workloads.Workspace(work_dir)
    ref = workloads.germ_zeta(workloads.REFERENCE_SEED, ws).inputs
    assert ref == {"p2": "-x^5 + y^2", "p3": "-x^5 + y^2"}
    for seed in (1, 2, workloads.HELD_OUT_SEED):
        a = workloads.residue_poles(seed, ws).inputs
        assert a == workloads.residue_poles(seed, ws).inputs
        assert sorted(a["primes"]) == list(workloads.XYZI_PRIMES)
        assert all(int(u) in workloads.RESIDUE_UNITS for u in a["a"].values())
