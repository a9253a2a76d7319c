"""Host-speed probe: takes the shared machine's speed swings out of the timings.

On a few cores of a shared host the same work costs up to twice as much CPU
time from one minute to the next, and the state changes within seconds, so a
run's raw time says as much about its neighbours as about the program.  While
a pass runs, an interval timer interrupts it every ``INTERVAL_S`` and times a
fixed probe: Python bytecode, numpy calls on small arrays and a complex
exponential on an array that fits in the core's cache.  The probe does not
touch the package.  The timer counts real time, not CPU time: while a
process-wide CPU timer is armed, Linux reads the process's CPU clock only to
the scheduler tick (4 ms here), too coarse for one ``propagate`` call.

A pass is CPU-bound, so the probes fall evenly over its CPU time, and their
harmonic mean is the probe's cost averaged over the pass the way the pass's
own work was (a state that halves the speed doubles both).  A pass's CPU
time, less the probes' own, times ``REFERENCE_S`` over that mean, is the
pass's CPU time at the reference speed: the speed at which one probe costs
``REFERENCE_S``.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05        # seconds between probes
REFERENCE_S = 0.003      # probe cost that defines the reference speed

_SMALL = np.linspace(0.0, 3.0, 256)
_VECTOR = np.linspace(0.0, 3.0, 1 << 14)


def probe_kernel():
    """The fixed work whose cost is the host's current speed."""
    total = 0.0
    for i in range(100):
        total += float(np.cos(_SMALL * (1.0 + i * 1e-3)).sum())
        total += sum(j * j for j in range(20))
    for _ in range(3):
        total += float(np.exp(1j * _VECTOR).sum().real)
    return total


def timed_probe():
    """CPU seconds that one run of the probe kernel takes now."""
    start = time.thread_time()
    probe_kernel()
    return time.thread_time() - start


def factor(probes):
    """Reference speed over measured speed, from probe costs in seconds."""
    return REFERENCE_S / statistics.harmonic_mean(probes)


class SpeedProbe:
    """Probes the host speed while active; use as a context manager.

    ``clock()`` is the process's CPU time less the probes' own, so an
    operation timed with it leaves the probes out.  Only one may be active,
    in the main thread.
    """

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.probes = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def clock(self):
        return time.process_time() - self.spent

    def _probe(self, *_):
        if self._busy:      # a probe slower than the interval: skip, don't nest
            return
        self._busy = True
        cost = timed_probe()
        self._busy = False
        self.probes.append(cost)
        self.spent += cost

    def factor(self):
        """Reference speed over the speed seen so far (probes once if none)."""
        if not self.probes:
            self._probe()
        return factor(self.probes)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
