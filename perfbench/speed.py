"""Host-speed sampling, to report host times at a reference host speed.

On a shared virtual machine the speed of a CPU drifts by tens of percent
over seconds to minutes, so raw host times of identical work differ that
much between runs. A wall-clock timer interrupts the process every few
milliseconds and times a short fixed probe of dict, float and small-array
NumPy work, the mix the simulator's hot loops are made of. The mean probe
duration over an interval says how fast the host ran during it, and the
interval's host time is scaled to the speed at which the probe takes
:data:`REFERENCE_PROBE_S`. The probes' own time is taken out first. The
probe runs in the main thread between bytecodes, so no other thread or
process competes with the workload.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter
from typing import List

import numpy as np

#: Probe duration that defines the reference host speed (a fast period of
#: a 2-vCPU x86-64 virtual machine, Python 3.11).
REFERENCE_PROBE_S = 50e-6
#: Wall-clock seconds between probes (~1.4% of the time goes to probing).
PROBE_INTERVAL_S = 0.005
#: Fewest probes a scaling factor is averaged over.
MIN_PROBES = 40


_ROWS = np.zeros((64, 8), dtype=np.float32)
_KEYS = [np.arange(i, i + 40, 5) % 64 for i in range(8)]


def _probe() -> float:
    """A fixed mix of dict, float and small-array work (~50-70 us)."""
    table = {}
    total = 0.0
    for i in range(100):
        key = (i * 7919) % 61
        table[key] = table.get(key, 0.0) + i * 0.5
        total += table[key]
    for keys in _KEYS:
        block = _ROWS[keys]
        _ROWS[keys] = block * 0.5 + 0.25
    return total


class SpeedSampler:
    """Times :func:`_probe` every :data:`PROBE_INTERVAL_S` of wall-clock time."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        _probe()
        self.durations.append(perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, begin: float, end: float) -> float:
        """Host seconds of ``[begin, end)`` at the reference speed."""
        lo = bisect.bisect_left(self.starts, begin)
        hi = bisect.bisect_left(self.starts, end)
        probing = sum(self.durations[lo:hi])
        if hi - lo < MIN_PROBES:  # too few inside: average around it
            middle = (lo + hi) // 2
            lo = max(0, middle - MIN_PROBES // 2)
            hi = min(len(self.durations), lo + MIN_PROBES)
        if hi <= lo:
            return end - begin - probing
        mean = sum(self.durations[lo:hi]) / (hi - lo)
        return (end - begin - probing) * REFERENCE_PROBE_S / mean
