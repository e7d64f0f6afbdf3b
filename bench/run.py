"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload germ_zeta --seed 0 --seconds 30 --trace 0

Workloads are defined in `bench/workloads.py`.  A run repeats the
workload's job list ("a pass") until another pass would end after
`--seconds`, with at least one pass, and reports medians over passes:

* `wall_s`: seconds for one pass, tracing off;
* `ref_wall_s`: the same pass at the reference machine speed of
  `refclock.py`; the shared cores drift too much for raw `wall_s` to be a
  regression gate, so `BENCHMARK.json` gates this one;
* `setup_s`: seconds from starting a fresh interpreter until the first job
  is ready (Python start-up, `import igusa.cli`, sympy, input generation),
  the median over 2 * SETUP_PROBES fresh interpreters, half of them started
  before the passes and half after, so that the median spans the run;
* `peak_rss_mb`: peak resident memory of the process that ran the passes.

All five are printed; the final JSON line carries the three in END_TO_END.
Every job's output is checked after its pass, outside the timed region; a
job that raises, exits nonzero or fails its check counts as failed.  For
the reference seed the SHA-256 digest of each job's JSON output must also
equal the one in `bench/digests.json`.

With `--trace 1` the run spends half its time on untraced passes and half
on passes under `tracer.Tracer`, and reports the per-layer metrics of the
traced passes instead.  Each run writes its full result (versions, load,
per-job numbers) to `bench/out/`, and a traced run also its spans.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from refclock import SpeedSampler

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END = ("ref_wall_s", "setup_s", "peak_rss_mb")


def digest(out) -> str:
    return hashlib.sha256(json.dumps(out, sort_keys=True, default=str).encode()).hexdigest()


@dataclass
class Pass:
    wall_s: float  # without the reference samples
    ref_s: float  # wall_s at reference speed
    job_s: dict
    outs: dict
    errors: dict
    tracer: object = None
    cli_bytes: int = 0
    failed: dict = field(default_factory=dict)


def run_pass(jobs, ws, tracer=None) -> Pass:
    """Run every job once under a SpeedSampler.  The tracer, if given, is
    installed only for this pass; its spans then include the reference
    samples taken inside them (about 2% of the time)."""
    gc.collect()
    job_s, outs, errors = {}, {}, {}
    ws.cli_bytes = 0
    if tracer is not None:
        tracer.install()
    try:
        with SpeedSampler() as speed:
            for job in jobs:
                tj = perf_counter()
                try:
                    if tracer is None:
                        outs[job.id] = job.run(ws)
                    else:
                        with tracer.job_span(job.id):
                            outs[job.id] = job.run(ws)
                except Exception:  # a failing job is counted, the run goes on
                    errors[job.id] = traceback.format_exc()
                job_s[job.id] = perf_counter() - tj
    finally:
        if tracer is not None:
            tracer.remove()
    return Pass(speed.raw_s, speed.ref_s, job_s, outs, errors, tracer, ws.cli_bytes)


def check_pass(jobs, p: Pass, golden=None) -> dict[str, list[str]]:
    """Problems per failed job id (untimed)."""
    failed = {}
    for job in jobs:
        if job.id in p.errors:
            failed[job.id] = [p.errors[job.id].strip().splitlines()[-1]]
            continue
        try:
            problems = job.check(p.outs[job.id])
        except Exception:
            problems = ["check raised: " + traceback.format_exc().strip().splitlines()[-1]]
        if golden is not None and golden.get(job.id) != digest(p.outs[job.id]):
            problems.append("JSON output digest differs from bench/digests.json")
        if problems:
            failed[job.id] = problems
    return failed


def run_passes(jobs, ws, seconds: float, tracer_factory=None, golden=None) -> list[Pass]:
    """Checked passes until the next would end after `seconds` (at least
    one).  With a tracer factory, the first half of the time is untraced
    and the second half traced, each with at least one pass."""
    start = perf_counter()
    phases = [(seconds / 2, None), (seconds, tracer_factory)] if tracer_factory else [(seconds, None)]
    passes = []
    for limit, factory in phases:
        while True:
            p = run_pass(jobs, ws, factory() if factory else None)
            p.failed = check_pass(jobs, p, golden)
            p.outs = None  # checked; keep memory flat across passes
            passes.append(p)
            if perf_counter() - start + p.wall_s > limit:
                break
    return passes


def per_layer(passes: list[Pass]) -> tuple[dict, dict]:
    """Median per-layer metrics over the traced passes, and the per-job
    numbers of the first traced pass."""
    from tracer import PER_LAYER

    traced = [p for p in passes if p.tracer]
    runs = [dict(p.tracer.layer_metrics(), **{"cli.json_bytes": p.cli_bytes}) for p in traced]
    metrics = {k: statistics.median(m[k] for m in runs) for k in runs[0]}
    metrics["trace.overhead_s"] = (statistics.median(p.ref_s for p in traced)
                                   - statistics.median(p.ref_s for p in passes if not p.tracer))
    first = traced[0].tracer
    jobs = {job: first.layer_metrics(job) for job in dict.fromkeys(s[4] for s in first.spans)}
    return {k: metrics[k] for k in PER_LAYER}, jobs


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it reports its
    first job ready, for SETUP_PROBES interpreters run one after another.
    (Start-up cost swings between two levels ~30% apart as the host's load
    changes, and does not follow the speed of `refclock`'s loop.)"""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                t1 = perf_counter()
                proc.stdout.read()
                code = proc.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                raise
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited with {code}")
        times.append(t1 - t0)
    return times


def environment(loadavg_at_start) -> dict:
    import numpy
    import sympy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(loadavg_at_start),
        "platform": platform.platform(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (used to time setup_s)")
    ap.add_argument("--write-digests", action="store_true",
                    help="run one pass of the reference seed and store its digests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    if not (ROOT / "src" / "igusa" / "__init__.py").is_file():
        print(f"error: no igusa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads  # puts src/ on sys.path and imports igusa and sympy

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ws = workloads.Workspace(work)
        wl = workloads.WORKLOADS[args.workload](args.seed, ws)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.write_digests:
            return write_digests(args, wl, ws)
        return report(args, wl, ws, loadavg)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_digests(args, wl, ws) -> int:
    import workloads

    if args.seed != workloads.REFERENCE_SEED:
        print("error: digests are recorded for the reference seed only", file=sys.stderr)
        return 2
    p = run_pass(wl.jobs, ws)
    failed = check_pass(wl.jobs, p)
    if failed:
        print(f"error: jobs failed, digests not written: {failed}", file=sys.stderr)
        return 1
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    data[args.workload] = {job.id: digest(p.outs[job.id]) for job in wl.jobs}
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(wl.jobs)} digests for {args.workload}")
    return 0


def report(args, wl, ws, loadavg) -> int:
    import workloads
    from tracer import PER_LAYER, Tracer

    setup = measure_setup(args.workload, args.seed)
    golden = None
    if args.seed == workloads.REFERENCE_SEED:
        golden = json.loads(DIGESTS.read_text()).get(args.workload, {})
    passes = run_passes(wl.jobs, ws, args.seconds, Tracer if args.trace else None, golden)
    setup += measure_setup(args.workload, args.seed)
    plain = [p for p in passes if not p.tracer]
    attempted = len(wl.jobs) * len(passes)
    failed = sum(len(p.failed) for p in passes)
    failures = {}
    for p in passes:
        for jid, problems in p.failed.items():
            failures.setdefault(jid, problems)
    shown = {
        "wall_s": statistics.median(p.wall_s for p in plain),
        "ref_wall_s": statistics.median(p.ref_s for p in plain),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = {k: "MB" if k == "peak_rss_mb" else "s" for k in shown}
    if args.trace:
        metrics, per_job = per_layer(passes)
        units.update((k, u) for k, (u, _) in PER_LAYER.items())
    else:
        metrics, per_job = {k: shown[k] for k in END_TO_END}, {}
    env = environment(loadavg)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": wl.inputs, "environment": env,
        "untraced": shown, "passes": len(plain),
        "pass_s": [[p.wall_s, p.ref_s] for p in plain],
        "traced_pass_s": [[p.wall_s, p.ref_s] for p in passes if p.tracer],
        "job_s": {j.id: statistics.median(p.job_s[j.id] for p in plain) for j in wl.jobs},
        "setup_probes_s": setup,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "failures": failures, "metrics": metrics, "per_job": per_job,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str) + "\n")
    if args.trace:
        first = next(p for p in passes if p.tracer)
        (OUT / f"{stem}-spans.json").write_text(json.dumps(first.tracer.dump()))

    print(f"workload {args.workload}  seed {args.seed}  inputs {json.dumps(wl.inputs)}")
    print("environment " + json.dumps(env))
    print(f"passes {len(plain)} untraced, {len(passes) - len(plain)} traced; "
          f"setup probes {len(setup)}")
    for jid, problems in failures.items():
        print(f"FAILED {jid}: {'; '.join(problems)}")
    for name, value in {**shown, **metrics}.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    print(f"{'failed_frac':40s} {failed / attempted:>16.6g} ({failed} of {attempted} jobs)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
