"""Wall-clock and CPU-time accumulation for training phases.

Wall time is what a user experiences; CPU time (process clock) is far more
stable on contended machines and is what reproducibility checks compare.
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

    def observe(self, phase: str, wall_s: float, cpu_s: float) -> None:
        self.totals_ms[phase] += wall_s * 1e3
        self.cpu_ms[phase] += cpu_s * 1e3
        self.steps[phase] += 1


class phase:
    """Context manager feeding one timed block into a PhaseTimer; without a
    timer it reads no clock."""

    def __init__(self, timer: "PhaseTimer | None", name: str):
        self.timer = timer
        self.name = name

    def __enter__(self):
        if self.timer is not None:
            self.t0 = time.perf_counter()
            self.c0 = time.process_time()
        return self

    def __exit__(self, *exc):
        if self.timer is not None:
            self.timer.observe(
                self.name,
                time.perf_counter() - self.t0,
                time.process_time() - self.c0,
            )
        return False
