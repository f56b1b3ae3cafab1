"""Tests of the host-speed reference clock.

    python3 -m pytest -q perfbench
"""

import signal
import time

import pytest

from refclock import MIN_PROBES, REFERENCE_PROBE_S, RefClock


def test_reference_seconds_scale_by_the_median_probe():
    clock = RefClock()
    # the host runs the probe at half the reference speed, with one outlier
    clock.samples = [2 * REFERENCE_PROBE_S] * (MIN_PROBES - 1) + [50 * REFERENCE_PROBE_S]
    assert clock.reference_seconds(10.0) == pytest.approx(5.0)


def test_reference_seconds_refuse_too_few_probes():
    clock = RefClock()
    clock.samples = [REFERENCE_PROBE_S] * (MIN_PROBES - 1)
    with pytest.raises(ValueError, match="probes"):
        clock.reference_seconds(1.0)


def test_timer_probes_during_the_block_and_stops_after():
    calls = []
    clock = RefClock(interval_s=0.005, probe=lambda: calls.append(1) or REFERENCE_PROBE_S)
    before = signal.getsignal(signal.SIGALRM)
    with clock:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(clock.samples) >= MIN_PROBES
    assert clock.reference_seconds(0.3) == pytest.approx(0.3)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    seen = len(calls)
    time.sleep(0.03)
    assert len(calls) == seen
