"""Wall time at a fixed machine speed.

On a shared host the speed one thread gets drifts by up to 2x, in phases
that last from a second to minutes, and every kind of work (interpreted
Python, BLAS, sparse factorization, memory sweeps) slows in step.  A
``SpeedProbe`` measures that speed while the program runs: a timer signal
runs a fixed pure-Python probe in the main thread every ``PERIOD``
seconds and keeps each probe's start and duration.  ``scaled(t0, t1)``
is the wall time of ``[t0, t1]`` less the probes run inside it, times
``REF_PROBE_S`` over the median probe duration around the interval: the
seconds the interval would have taken at the speed where one probe takes
``REF_PROBE_S``.  A change that makes the program do more work raises the
scaled time in proportion; a slow phase of the host raises the probe
durations with it and cancels out.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

PERIOD = 0.03  # seconds between probes
PAD = 0.25  # probes up to this far outside an interval also give its speed
MIN_PROBES = 9  # fewer probes than this around an interval: take the nearest ones
REF_PROBE_S = 3.0e-4  # one probe's duration on the 2-vCPU machine the benchmark was tuned on, when quiet
_SHUFFLED = random.Random(0).sample(range(1000), 1000)


def probe():
    """Fixed interpreted work: integer arithmetic and a sort."""
    acc = 0
    for i in range(2000):
        acc += (i * i) % 7
    return acc + sorted(_SHUFFLED)[acc % 1000]


class SpeedProbe:
    """Runs ``probe`` every ``period`` seconds while inside the ``with`` block."""

    def __init__(self, period=PERIOD, clock=time.perf_counter):
        self.period = period
        self.clock = clock
        self.starts = []
        self.durations = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        t0 = self.clock()
        probe()
        self.starts.append(t0)
        self.durations.append(self.clock() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _around(self, t0, t1):
        """Durations of the probes near ``[t0, t1]``: within PAD, else the MIN_PROBES nearest."""
        lo = bisect.bisect_left(self.starts, t0 - PAD)
        hi = bisect.bisect_left(self.starts, t1 + PAD)
        if hi - lo >= MIN_PROBES or len(self.starts) <= MIN_PROBES:
            return self.durations[lo:hi] or self.durations
        mid = 0.5 * (t0 + t1)
        nearest = sorted(range(len(self.starts)), key=lambda i: abs(self.starts[i] - mid))[:MIN_PROBES]
        return [self.durations[i] for i in nearest]

    def scaled(self, t0, t1):
        """Seconds ``[t0, t1]`` would take at the reference speed, probes excluded."""
        if not self.durations:
            raise RuntimeError("no probe ran: the interval's speed is unknown")
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        own = (t1 - t0) - sum(self.durations[lo:hi])
        return own * REF_PROBE_S / statistics.median(self._around(t0, t1))
