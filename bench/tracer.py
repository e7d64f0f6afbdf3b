"""Span tracer for the benchmark's traced run.

The tracer replaces attributes of the public functions and methods of
`igusa` (and three `sympy` entry points) with timing wrappers, and puts the
originals back when it is removed.  Nothing under `src/` is edited.

* A span records name, start, end, parent span and job id.  Spans stay in
  memory until the run writes them out.
* The hot leaves `MultiPoly.eval_int`, `QPoly.__mul__` and
  `RadicalScalar.__mul__` are called up to ~10^6 times per pass, so they are
  aggregated into a count and a total time per parent span instead.
* A span's self time is its duration minus the time its child spans and
  leaves cover.

A function imported with `from ... import name` is bound in several
modules, and `count_hensel` is also a default argument of two functions;
`install` rebinds every one of those places.  `_W` recurses through its
module global, so rebinding `igusa.integrate2d._W` also catches recursion.
"""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

import sympy

from igusa import (
    charts, cli, counting, divisibility, integrate2d, poly, qpoly, radical, resolve, zeta,
)

# (owner, attribute, span name): span wrappers
SPAN_TARGETS = [
    (integrate2d, "_W", "integrate2d.W"),
    (zeta.ZetaRational, "__add__", "zeta.add"),
    (zeta.ZetaRational, "reduced", "zeta.reduced"),
    (zeta, "laurent_at", "zeta.laurent_at"),
    (zeta, "series_coeffs", "zeta.series"),
    (qpoly.QPoly, "divmod", "qpoly.divmod"),
    (poly.MultiPoly, "subs", "poly.subs"),
    (counting, "count_hensel", "counting.hensel"),
    (counting, "count_naive", "counting.naive"),
    (radical.RadicalScalar, "inverse", "radical.inverse"),
    (charts, "integrate_univariate", "charts.integrate_univariate"),
    (resolve, "resolve_germ", "resolve.resolve_germ"),
    (resolve, "relations_check", "resolve.relations_check"),
    (divisibility, "smallest_real_pole", "divisibility.smallest_real_pole"),
    (divisibility, "check_divisibility", "divisibility.check_divisibility"),
    (divisibility, "min_shift", "divisibility.min_shift"),
    (divisibility, "constructive_shift", "divisibility.constructive_shift"),
    (cli, "run", "cli.run"),
    (sympy, "factor_list", "sympy.factor_list"),
    (sympy, "gcd", "sympy.gcd"),
    (sympy, "resultant", "sympy.resultant"),
]

# (owner, attribute, leaf name): aggregated per parent span
LEAF_TARGETS = [
    (poly.MultiPoly, "eval_int", "poly.eval_int"),
    (qpoly.QPoly, "__mul__", "qpoly.mul"),
    (radical.RadicalScalar, "__mul__", "radical.mul"),
]

# name -> (unit, better) for every per-layer metric the traced run reports
PER_LAYER = {
    "integrate2d.W.calls": ("count", "lower"),
    "integrate2d.W.distinct": ("count", "lower"),
    "integrate2d.W.max_depth": ("count", "lower"),
    "integrate2d.W.self_s": ("s", "lower"),
    "zeta.add.calls": ("count", "lower"),
    "zeta.add.self_s": ("s", "lower"),
    "zeta.add.max_num_degree": ("count", "lower"),
    "zeta.reduced.self_s": ("s", "lower"),
    "zeta.laurent_at.calls": ("count", "lower"),
    "zeta.laurent_at.self_s": ("s", "lower"),
    "zeta.series.self_s": ("s", "lower"),
    "qpoly.mul.calls": ("count", "lower"),
    "qpoly.mul.coeff_products": ("count", "lower"),
    "qpoly.mul.self_s": ("s", "lower"),
    "qpoly.divmod.self_s": ("s", "lower"),
    "poly.subs.calls": ("count", "lower"),
    "poly.subs.self_s": ("s", "lower"),
    "poly.eval_int.calls": ("count", "lower"),
    "poly.eval_int.self_s": ("s", "lower"),
    "counting.hensel.calls": ("count", "lower"),
    "counting.hensel.self_s": ("s", "lower"),
    "counting.naive.self_s": ("s", "lower"),
    "radical.mul.calls": ("count", "lower"),
    "radical.inverse.calls": ("count", "lower"),
    "radical.self_s": ("s", "lower"),
    "radical.max_M": ("count", "lower"),
    "charts.integrate_univariate.self_s": ("s", "lower"),
    "resolve.resolve_germ.self_s": ("s", "lower"),
    "resolve.relations_check.self_s": ("s", "lower"),
    "resolve.blowup_steps": ("count", "lower"),
    "sympy.self_s": ("s", "lower"),
    "divisibility.self_s": ("s", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "cli.json_bytes": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),  # traced minus untraced pass, at reference speed
}


def _qpoly_products(a, b) -> int:
    """Coefficient products `QPoly.__mul__` performs: it skips zero
    coefficients of the left factor only."""
    if not a.coeffs or not b.coeffs:
        return 0
    return (len(a.coeffs) - a.coeffs.count(0)) * len(b.coeffs)


class Tracer:
    """Spans and counters of one traced pass; `install` patches, `remove`
    restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.leaves: dict[tuple[int, str], list] = {}  # (parent, name) -> [calls, total_s]
        self.stack: list[int] = []
        self.job = ""
        self.counters: dict[str, int] = {}
        self.w_keys: set = set()
        self._undo: list = []

    # -- recording ----------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.job])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def bump(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def peak(self, name: str, value: int) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    @contextmanager
    def job_span(self, job_id: str):
        """The root span of one job."""
        self.job = job_id
        idx = self.begin("job")
        try:
            yield
        finally:
            self.end(idx)

    # -- wrappers -----------------------------------------------------------

    def _span(self, orig, name: str, observe=None):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self.end(idx)
            if observe is not None:
                observe(args, out)
            return out

        return wrapper

    def _leaf(self, orig, name: str, observe=None):
        leaves = self.leaves
        stack = self.stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = orig(*args, **kwargs)
            dt = perf_counter() - t0
            key = (stack[-1] if stack else -1, name)
            rec = leaves.get(key)
            if rec is None:
                leaves[key] = [1, dt]
            else:
                rec[0] += 1
                rec[1] += dt
            if observe is not None:
                observe(args, out)
            return out

        return wrapper

    def _observers(self):
        def w_args(args, out):
            f, p, A, a, B, b, j1, j2, depth = args
            self.w_keys.add((f, p, A, a, B, b, j1, j2))
            self.peak("integrate2d.W.max_depth", depth)

        def add_degree(args, out):
            self.peak("zeta.add.max_num_degree", out.numerator.degree)

        def mul_products(args, out):
            self.bump("qpoly.mul.coeff_products", _qpoly_products(args[0], args[1]))

        def radical_M(args, out):
            self.peak("radical.max_M", out.M)

        def blowups(args, out):
            self.bump("resolve.blowup_steps", len(out.log))

        return {
            "integrate2d.W": w_args,
            "zeta.add": add_degree,
            "qpoly.mul": mul_products,
            "radical.mul": radical_M,
            "radical.inverse": radical_M,
            "resolve.resolve_germ": blowups,
        }

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        obs = self._observers()
        for targets, make in ((SPAN_TARGETS, self._span), (LEAF_TARGETS, self._leaf)):
            for owner, attr, name in targets:
                orig = vars(owner)[attr]
                self._rebind(orig, make(orig, name, obs.get(name)))

    def remove(self) -> None:
        for kind, holder, key, orig in reversed(self._undo):
            if kind == "attr":
                setattr(holder, key, orig)
            else:
                holder.__defaults__ = orig
        self._undo.clear()

    def _rebind(self, orig, new) -> None:
        """Replace `orig` by `new` wherever an igusa module, an igusa class
        or a default argument of an igusa function holds it."""
        holders = [m for n, m in sys.modules.items() if n == "igusa" or n.startswith("igusa.")]
        holders += [c for m in list(holders) for c in vars(m).values()
                    if inspect.isclass(c) and c.__module__.startswith("igusa")]
        if getattr(orig, "__module__", "").startswith("sympy"):
            holders.append(sympy)
        for holder in holders:
            for key, val in list(vars(holder).items()):
                if val is orig:
                    self._undo.append(("attr", holder, key, orig))
                    setattr(holder, key, new)
                elif inspect.isfunction(val) and val.__defaults__ and any(
                    d is orig for d in val.__defaults__
                ):
                    self._undo.append(("defaults", val, None, val.__defaults__))
                    val.__defaults__ = tuple(new if d is orig else d for d in val.__defaults__)

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (parent, _), (_, total) in self.leaves.items():
            if parent >= 0:
                covered[parent] += total
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]

    def layer_metrics(self, job: str | None = None) -> dict[str, float]:
        """PER_LAYER metrics over all jobs, or calls and self times of one
        job.  `trace.overhead_s` and `cli.json_bytes` are measured by the
        caller and read 0 here."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for span, st in zip(self.spans, self.self_times()):
            if job is not None and span[4] != job:
                continue
            calls[span[0]] = calls.get(span[0], 0) + 1
            self_s[span[0]] = self_s.get(span[0], 0.0) + st
        for (parent, name), (n, total) in self.leaves.items():
            if job is not None and (parent < 0 or self.spans[parent][4] != job):
                continue
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + total

        out = {}
        for name in PER_LAYER:
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = calls.get(base, 0)
            elif kind == "self_s":  # a span, or every span of a layer
                out[name] = sum(v for k, v in self_s.items() if k == base or k.startswith(base + "."))
            elif job is None:
                out[name] = len(self.w_keys) if name == "integrate2d.W.distinct" else self.counters.get(name, 0)
        return out

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [[parent, name, n, total] for (parent, name), (n, total) in self.leaves.items()],
        }
