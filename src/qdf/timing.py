"""Wall-clock and CPU-time accumulation for training phases.

Wall time is what a user experiences; CPU time (process clock) is far more
stable on contended machines and is what reproducibility checks compare.

Phases are timed as laps: ``start`` reads both clocks, and each ``lap``
charges the time since the last reading to one phase and restarts from
there.  Phases that run back to back, as the inner steps of a hypergradient
do, thus cost one pair of clock reads per boundary.
"""

from __future__ import annotations

import time
from collections import defaultdict


class PhaseTimer:
    """Accumulates elapsed milliseconds and step counts per named phase."""

    def __init__(self):
        self.totals_ms: dict[str, float] = defaultdict(float)
        self.cpu_ms: dict[str, float] = defaultdict(float)
        self.steps: dict[str, int] = defaultdict(int)

    def start(self) -> None:
        """Begin the first of a run of back-to-back phases."""
        self._wall, self._cpu = time.perf_counter(), time.process_time()

    def lap(self, phase: str) -> None:
        """End one phase, begun by ``start`` or by the previous lap."""
        wall, cpu = time.perf_counter(), time.process_time()
        self.totals_ms[phase] += (wall - self._wall) * 1e3
        self.cpu_ms[phase] += (cpu - self._cpu) * 1e3
        self.steps[phase] += 1
        self._wall, self._cpu = wall, cpu


class _Untimed:
    """Stands in for a PhaseTimer where none is given; reads no clock."""

    def start(self) -> None:
        pass

    def lap(self, phase: str) -> None:
        pass


UNTIMED = _Untimed()
