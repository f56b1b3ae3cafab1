"""Run time in reference seconds, for a shared host whose speed drifts.

On a shared host the same work can take 20-40% longer for seconds to minutes
at a time while other tenants load the cores; process CPU time grows with the
wall time and the kernel reports no stolen time, so neither clock hides it.
``RefClock`` times a fixed probe every ``interval_s`` of wall time
while a repetition runs, from a SIGALRM handler in the same thread. The
repetition's time in reference seconds is its wall time scaled by
``REFERENCE_PROBE_S`` over the median probe time: what it would have taken had
the host run the probe at the reference speed throughout. The benchmark pins
its process to one CPU, so the probes and the work they scale share a core.
The probe calls nothing in classvec, so a change to the program moves the
wall time and not the probe.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_LOOPS = 3000
PROBE_ARRAY = np.random.default_rng(0).random(1 << 16)  # 512 KiB; read, never written
# Near the probe's median on a 2-vCPU Intel Xeon VM under CPython 3.11 and
# NumPy 2.4; it only sets the scale, so reference seconds read close to wall
# seconds there.
REFERENCE_PROBE_S = 5.0e-4
# A scale needs this many probes; at the default interval, two seconds of run.
MIN_PROBES = 20


def probe() -> float:
    """Seconds taken by a fixed loop of Python arithmetic and a few NumPy
    sorts and sums: the workloads spend their time in both, and a host
    slowdown need not hit both alike."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    for _ in range(2):
        np.argsort(PROBE_ARRAY[:4096])
        PROBE_ARRAY.sum()
    return time.perf_counter() - start


class RefClock:
    """Probe the host's speed while a ``with`` block runs; main thread only."""

    def __init__(self, interval_s: float = 0.1, probe=probe):
        self.interval_s = interval_s
        self.probe = probe
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(self.probe())

    def __enter__(self) -> "RefClock":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, wall_s: float) -> float:
        """``wall_s`` of the last block scaled to the reference speed.

        Refuses, with ValueError, a block too short to have ``MIN_PROBES``.
        """
        if len(self.samples) < MIN_PROBES:
            raise ValueError(f"{len(self.samples)} probes; a scale needs {MIN_PROBES}")
        return wall_s * REFERENCE_PROBE_S / statistics.median(self.samples)
