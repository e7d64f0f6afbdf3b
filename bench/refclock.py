"""Seconds rescaled to a fixed machine speed.

On a virtual machine whose cores are shared with other guests (measured on
a 2-vCPU KVM guest, Xeon at 2.0 GHz), core speed drifts by up to 50% over
tens of seconds, so two passes of identical work can differ by a third in
wall time.  To separate the program's cost from that drift, `SpeedSampler`
interrupts a pass every SAMPLE_PERIOD_S (SIGALRM, same thread) and times
`reference_loop`, a fixed piece of `Fraction` arithmetic like the program's
own.  Each stretch of work between two samples is rescaled by
REFERENCE_LOOP_S / (time the loop took at its start), giving the seconds
the pass would take at the speed at which the loop takes REFERENCE_LOOP_S.
The loop calls no code of the program, so a change to the program cannot
move the reference.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

SAMPLE_PERIOD_S = 0.1
# time of one reference_loop on that guest in its fast phase
REFERENCE_LOOP_S = 0.0022

_TERMS = [Fraction(i, i + 2) for i in range(1, 60)]


def reference_loop() -> Fraction:
    acc = Fraction(0)
    for a in _TERMS:
        for b in _TERMS[:8]:
            acc += a * b
    return acc


class SpeedSampler:
    """Samples the reference loop while a block of work runs.

        with SpeedSampler() as s:
            work()
        s.raw_s, s.ref_s
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, loop seconds)
        self.raw_s = self.ref_s = 0.0

    def _sample(self, *_) -> None:
        t0 = perf_counter()
        reference_loop()
        self.samples.append((t0, perf_counter() - t0))

    def __enter__(self) -> "SpeedSampler":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = perf_counter()
        signal.signal(signal.SIGALRM, self._old)
        starts = [t for t, _ in self.samples] + [end]
        for (t0, loop), t1 in zip(self.samples, starts[1:]):
            work = t1 - t0 - loop
            self.raw_s += work
            self.ref_s += work * REFERENCE_LOOP_S / loop
        return False
