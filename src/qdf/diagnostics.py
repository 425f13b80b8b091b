"""Label-autocorrelation diagnostics.

Partial correlation between two label steps, controlling for the shared
history: regress each step on the history by OLS, then take the Pearson
correlation of the two residual series.  The matrix form regresses every
step once and reuses the residuals, so it costs O(T) regressions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .data import SeriesFrame, WindowSet, make_windows
from .errors import (
    InsufficientDataError,
    InvalidConfigError,
    InvalidDimensionError,
    NumericError,
    UndefinedCorrelationError,
)

log = logging.getLogger(__name__)

RIDGE_LAMBDA = 1e-8
VAR_EPS = 1e-12


@dataclass
class PartialCorrReport:
    """Symmetric partial-correlation matrix plus per-step residual variance."""

    matrix: np.ndarray
    cond_var: np.ndarray
    meta: dict
    flags: list[str] = field(default_factory=list)


def _design_and_labels(windows: WindowSet, variable: int | None):
    """Intercept-plus-history design and label matrix, optionally pooled
    across variables (each variable regressed on its own history)."""
    if variable is None:
        hist, labels = windows.as_samples()
    else:
        D = windows.n_vars
        if not 0 <= variable < D:
            raise InvalidDimensionError(f"variable {variable} out of range (D={D})")
        X, Y = windows.arrays()
        hist = X[:, :, variable]
        labels = Y[:, :, variable]
    design = np.column_stack([np.ones(hist.shape[0]), hist])
    return design, labels


def _fit_residuals(design: np.ndarray, labels: np.ndarray, flags: list[str]) -> np.ndarray:
    """Least-squares residuals of every label column on the design.

    Full rank: the residual is the label minus its projection onto the
    design's column space, U (U^T labels) from one thin SVD.  The rank rule
    is np.linalg.lstsq's with rcond=None: singular values above
    eps * max(M, N) * s_max count.
    """
    try:
        U, s, _ = np.linalg.svd(design, full_matrices=False)
        rank = np.count_nonzero(s > np.finfo(float).eps * max(design.shape) * s[0])
        if rank < design.shape[1]:
            flags.append("ridge_fallback")
            log.warning("rank-deficient design (rank %d < %d); ridge fallback",
                        rank, design.shape[1])
            gram = design.T @ design + RIDGE_LAMBDA * np.eye(design.shape[1])
            pred = design @ np.linalg.solve(gram, design.T @ labels)
        else:
            pred = U @ (U.T @ labels)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"least-squares fit failed: {exc}") from None
    return np.subtract(labels, pred, out=pred)


def partial_correlation(
    windows: WindowSet, t: int, t2: int, variable: int = 0
) -> float:
    """Partial correlation of label steps t and t2 (0-based) given history."""
    T = windows.horizon
    if t == t2:
        raise InvalidDimensionError("step indices must differ")
    if not (0 <= t < T and 0 <= t2 < T):
        raise InvalidDimensionError(f"step indices out of range (T={T})")
    design, labels = _design_and_labels(windows, variable)
    if design.shape[0] < windows.history + 3:
        raise InsufficientDataError(
            f"need at least H+3={windows.history + 3} samples, have {design.shape[0]}"
        )
    flags: list[str] = []
    resid = _fit_residuals(design, labels[:, [t, t2]], flags)
    v = resid.var(axis=0)
    if np.any(v < VAR_EPS):
        raise UndefinedCorrelationError(
            "residual variance below 1e-12; correlation undefined"
        )
    r = resid - resid.mean(axis=0)
    return float((r[:, 0] @ r[:, 1]) / np.sqrt((r[:, 0] @ r[:, 0]) * (r[:, 1] @ r[:, 1])))


def partial_corr_matrix(
    frame: SeriesFrame,
    history: int = 8,
    horizon: int = 96,
    subsample: int = 5000,
    variable: int | None = None,
    seed: int = 0,
) -> PartialCorrReport:
    """All pairwise partial correlations of the label steps.

    Windows are subsampled (seeded, without replacement) when more than
    ``subsample`` are available.  ``variable=None`` pools samples across
    variables into a single estimate.
    """
    if not subsample >= 1:
        raise InvalidConfigError(f"subsample must be >= 1, got {subsample!r}")
    if not seed >= 0:
        raise InvalidConfigError(f"seed must be nonnegative, got {seed!r}")
    windows = make_windows(frame, history, horizon)
    n = len(windows)
    if subsample < n:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(n, size=subsample, replace=False))
        windows = _select_windows(windows, keep)
    design, labels = _design_and_labels(windows, variable)
    n_windows, samples = len(windows), design.shape[0]
    # The n*D x T arrays dominate memory: each is released as soon as the next
    # one exists, and centering and scaling reuse the residual buffer.
    del windows
    if samples < history + 3:
        raise InsufficientDataError(
            f"need at least H+3={history + 3} samples after subsampling"
        )
    flags: list[str] = []
    z = _fit_residuals(design, labels, flags)
    del design, labels
    np.subtract(z, z.mean(axis=0), out=z)
    sumsq = np.einsum("ij,ij->j", z, z)
    cond_var = sumsq / samples
    dead = cond_var < VAR_EPS
    norms = np.sqrt(sumsq)
    np.divide(z, np.maximum(norms, np.sqrt(VAR_EPS * samples)), out=z)
    corr = z.T @ z
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    if not (np.all(np.isfinite(cond_var)) and np.all(np.isfinite(corr))):
        raise NumericError("residual variances or partial correlations are not finite")
    np.fill_diagonal(corr, 1.0)
    if np.any(dead):
        for t in np.nonzero(dead)[0]:
            flags.append(f"zero_variance_step_{int(t)}")
        corr[dead, :] = 0.0
        corr[:, dead] = 0.0
        np.fill_diagonal(corr, 1.0)
    meta = {
        "history": history,
        "horizon": horizon,
        "samples": samples,
        "windows": n_windows,
        "variable": variable if variable is not None else "pooled",
        "subsample": subsample,
    }
    return PartialCorrReport(corr, cond_var, meta, flags)


def _select_windows(windows: WindowSet, idx: np.ndarray) -> WindowSet:
    X, Y = windows.arrays()
    picked = WindowSet(X[idx], Y[idx], windows.starts[idx])
    return picked


def fraction_above(report: PartialCorrReport, threshold: float) -> float:
    """Share of off-diagonal coefficients with magnitude above threshold."""
    T = report.matrix.shape[0]
    if T < 2:
        return 0.0
    off = ~np.eye(T, dtype=bool)
    return float(np.mean(np.abs(report.matrix[off]) > threshold))
