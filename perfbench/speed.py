"""The machine's speed, sampled through a run by a fixed reference loop.

A shared 2-vCPU VM can run at about half speed for stretches from under a
second to minutes, under load from outside it.  Such a drift moves every
wall-clock figure of a run.  On one such VM the spread of pairing
checks_per_s over ten seeds reached 0.25 of the median, though each run did
the same work, and running twice as long did not narrow it.

`Sampler` times a short reference loop from a SIGPROF handler, every tenth
of a second of the process's CPU time (every fiftieth during set-up), so the
samples fall inside checks and set-up as well as between them.  The loop is
pure Python exact arithmetic, as gaugelab is, and it shares no code with
gaugelab: a change to gaugelab cannot move it, while the machine's drift
moves it and the checks alike.

run.py scales the run's times by NOMINAL_S / (harmonic mean of the
samples): the figures it gates are those the run would have given with the
machine at its nominal speed.  The mean is harmonic because each sample
stands for an equal stretch of CPU time, and a stretch whose pass took r
seconds did NOMINAL_S / r of a stretch's nominal work.  The time the handler
takes is subtracted from the check or the set-up it interrupted.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# One reference pass on the VM above when it runs at full speed (Python
# 3.11); the constant only sets the scale of the corrected figures.
NOMINAL_S = 0.0025
REFERENCE_STEPS = 500
# CPU seconds between passes, while checks run and while set-up runs.  A pass
# costs 3% of the first; set-up takes a few tenths of a second, so it is
# sampled more densely to get ten or so samples.
SAMPLE_EVERY_S = 0.1
SETUP_SAMPLE_EVERY_S = 0.02


def _reference_work() -> Fraction:
    acc, seen = Fraction(0), {}
    for i in range(1, REFERENCE_STEPS):
        x = Fraction(i % 251 - 125, 1 << (i % 17))
        acc = acc + x * x
        seen[i % 509] = (acc.numerator & 0xFFFF, [i, i + 1])
    return acc


def reference_s() -> float:
    """Seconds for one reference pass.  The cyclic garbage collector is off
    while it runs, so the size of the program's heap cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Reference passes every `every_s` of CPU time, between start() and
    stop().  `spent` is the wall time the passes took, handler included."""

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.samples: list[float] = []
        self.spent = 0.0

    def _on_sigprof(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_s())
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGPROF, self._on_sigprof)
        signal.setitimer(signal.ITIMER_PROF, self.every_s, self.every_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
