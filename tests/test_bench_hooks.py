"""The benchmark's traced run patches igusa by attribute name, and its
workloads import igusa names; every name it patches or imports must still
exist, so a refactor cannot break `bench/run.py` without failing here."""

import inspect
import sys
from pathlib import Path

import pytest

from igusa import integrate2d

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracer  # noqa: E402
import workloads  # noqa: E402,F401  (fails collection if a name it imports is gone)

TARGETS = tracer.SPAN_TARGETS + tracer.LEAF_TARGETS


@pytest.mark.parametrize("owner, attr, name", TARGETS, ids=[t[2] for t in TARGETS])
def test_trace_target_exists(owner, attr, name):
    assert attr in vars(owner)


def test_descent_signature_matches_observer():
    # the tracer's observer unpacks (f, p, A, a, B, b, j1, j2, depth)
    assert len(inspect.signature(integrate2d._W).parameters) == 9
