"""Desk-scale synthetic benchmark presets and the multi-run harness.

Each preset is an autoregressive process with a known conditional covariance
of the label steps, so the learned weighting can be compared against ground
truth.  Windows are extracted with stride = history + horizon, which aligns
every window to the innovation-scale schedule: the oracle covariance from
``ar_conditional_cov`` is then exact for every window.  Aligned windows also
never overlap, so window-level splits are leak-free by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (
    ArSpec,
    SeriesFrame,
    WindowSet,
    ar_conditional_cov,
    chrono_split,
    gen_ar,
    make_windows,
    ramp_noise_schedule,
)
from .errors import InvalidConfigError
from .workflow import QdfConfig, RunReport, run_variant

HISTORY = 16
HORIZON = 8

PRESETS = ("hetero-corr", "ramp-only", "corr-only", "white")

# Per-preset training configuration (tuned once on seeds >= 5, then frozen;
# the acceptance suite runs seeds 0-4 against these exact settings).  The
# sub-benchmarks use short budgets: with a linear forecaster the weighted
# and unweighted objectives share their exact minimizer, so the weighting
# can only pay off along the optimization path, not at convergence.
PRESET_CONFIG: dict[str, dict] = {
    "hetero-corr": dict(eta=0.2, outer_rounds=8, epochs=60),
    "ramp-only": dict(eta=0.02, outer_rounds=4, epochs=3),
    "corr-only": dict(eta=0.05, outer_rounds=4, inner_steps=2, epochs=5),
    "white": dict(eta=0.05, outer_rounds=3, epochs=30),
}


def preset_spec(preset: str, seed: int, n_windows: int = 600) -> ArSpec:
    """AR spec for a named benchmark preset, seeded by the run seed.

    hetero-corr: AR(1), phi=0.6, innovation variance ramping 1 -> 3 across
        the label horizon; labels are cross-correlated AND heteroscedastic.
    ramp-only: seasonal AR with a single lag at HISTORY (phi=0.6), same
        variance ramp.  Innovations cannot propagate within one horizon, so
        the labels are conditionally independent given the history (zero
        label autocorrelation) while their variances still ramp; the signal
        lives at the seasonal lag inside the window.
    corr-only: AR(1), phi=0.6, constant innovations; the conditional
        covariance has a unit-diagonal Cholesky factor, exactly the family
        the off-diagonal ablation can represent.
    white: independent innovations, constant scale (null case).
    """
    span = HISTORY + HORIZON
    length = n_windows * span + span
    ramp = ramp_noise_schedule(HISTORY, HORIZON, 1.0, 3.0)
    if preset == "hetero-corr":
        return ArSpec((0.6,), ramp, length, seed)
    if preset == "ramp-only":
        return ArSpec(tuple([0.0] * (HISTORY - 1) + [0.6]), ramp, length, seed)
    if preset == "corr-only":
        return ArSpec((0.6,), 1.0, length, seed)
    if preset == "white":
        return ArSpec((), 1.0, length, seed)
    raise InvalidConfigError(f"unknown preset {preset!r}; expected one of {PRESETS}")


@dataclass
class BenchmarkData:
    train: WindowSet
    valid: WindowSet
    test: WindowSet
    spec: ArSpec

    @property
    def oracle_cov(self) -> np.ndarray:
        return ar_conditional_cov(self.spec, HORIZON)


# The realizations of the (preset, n_windows) pair asked for last, by seed.
_held: dict[tuple[str, int], dict[int, tuple[ArSpec, SeriesFrame]]] = {}


def benchmark_data(preset: str, seed: int, n_windows: int = 600) -> BenchmarkData:
    """Aligned windows of one preset realization, split 35/15/50.

    The small training share keeps estimation error on the table (where the
    weighting can act); the large test share keeps comparisons low-noise.

    A realization is drawn once per (preset, seed, n_windows) and held while
    its preset runs: a call for another preset or ``n_windows`` drops the
    held ones.  The series is read-only, and every call returns fresh
    ``WindowSet``s with their own read counters.
    """
    key = preset, n_windows
    by_seed = _held.get(key, {})
    if seed not in by_seed:
        # an unknown preset raises here, before the held realizations are touched
        spec = preset_spec(preset, seed, n_windows)
        by_seed[seed] = spec, gen_ar(spec)
        if key not in _held:
            _held.clear()
            _held[key] = by_seed
    spec, frame = by_seed[seed]
    windows = make_windows(frame, HISTORY, HORIZON, stride=HISTORY + HORIZON)
    train, valid, test = chrono_split(windows, [0.35, 0.15, 0.5])
    return BenchmarkData(train, valid, test, spec)


def bench_config(seed: int, preset: str) -> QdfConfig:
    """Benchmark training configuration (shared across variants): the
    values that differ from the ``QdfConfig`` defaults."""
    return QdfConfig(inner_lr=0.05, final_lr=0.02, seed=seed, **PRESET_CONFIG[preset])


def run_matrix(presets, variants, seeds, n_windows: int = 600) -> list[RunReport]:
    """Run every (preset, variant, seed) cell; one report per run.

    Runs with the same (preset, seed) share the data realization, so
    cross-variant comparisons are paired.  ``benchmark_data`` holds the
    realizations of the current preset, so calling this once per cell, in
    any order within a preset, draws each series once as well.
    """
    reports = []
    for preset in presets:
        for seed in seeds:
            data = benchmark_data(preset, seed, n_windows)
            for variant in variants:
                report, _, _ = run_variant(
                    data.train, data.valid, data.test, variant, bench_config(seed, preset)
                )
                report.config["preset"] = preset
                reports.append(report)
    return reports


def aggregate(reports) -> list[dict]:
    """Per (preset, variant) mean and std of the test metrics over seeds."""
    cells: dict[tuple[str, str], list[RunReport]] = {}
    for r in reports:
        cells.setdefault((r.config.get("preset", "?"), r.variant), []).append(r)
    rows = []
    for (preset, variant), rs in sorted(cells.items()):
        row = {"preset": preset, "variant": variant, "seeds": len(rs)}
        for metric in ("mse", "mae", "nll"):
            vals = np.array([r.metrics[metric] for r in rs])
            row[f"{metric}_mean"] = float(vals.mean())
            row[f"{metric}_std"] = float(vals.std())
        rows.append(row)
    return rows
