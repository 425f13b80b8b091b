"""Label-autocorrelation diagnostics.

Partial correlation between two label steps, controlling for the shared
history: regress each step on the history by OLS, then take the Pearson
correlation of the two residual series.  The matrix form streams the
windows in blocks through one pass of ``WindowSet.sample_blocks``, which
writes each block's history and labels below the R factor and Q^T labels of
the blocks before: a QR of that stack, with its column of ones, carries both
on, and what the labels keep outside Q's span, taken off a chunk of rows at
a time, adds to the residuals' T x T Gram.  No samples x (H+1) design, no
samples x T array of labels or residuals, and no second label-block-sized
array is ever formed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .data import CHUNK_FLOATS, SeriesFrame, WindowSet, make_windows
from .errors import (
    InsufficientDataError,
    InvalidConfigError,
    InvalidDimensionError,
    NumericError,
    UndefinedCorrelationError,
    integer,
)

log = logging.getLogger(__name__)

RIDGE_LAMBDA = 1e-8
VAR_EPS = 1e-12
# Windows per block in partial_corr_matrix's pass over the windows.
BLOCK_WINDOWS = 128


@dataclass
class PartialCorrReport:
    """Symmetric partial-correlation matrix plus per-step residual variance."""

    matrix: np.ndarray
    cond_var: np.ndarray
    meta: dict
    flags: list[str] = field(default_factory=list)


def _check_variable(variable: int, n_vars: int) -> int:
    variable = integer("variable", variable)
    if not 0 <= variable < n_vars:
        raise InvalidDimensionError(f"variable {variable} out of range (D={n_vars})")
    return variable


def _design_and_labels(windows: WindowSet, variable: int):
    """Intercept-plus-history design and label matrix of one variable."""
    variable = _check_variable(variable, windows.n_vars)
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
    variables into a single estimate; ``variable=v`` is the pooled estimate of
    the one-column frame of column v.  One pass over blocks of
    ``BLOCK_WINDOWS`` windows holds O(block * (H + T) + H * T + T^2) memory
    beyond the window index arrays.
    """
    subsample, seed = integer("subsample", subsample), integer("seed", seed)
    if not subsample >= 1:
        raise InvalidConfigError(f"subsample must be >= 1, got {subsample!r}")
    if not seed >= 0:
        raise InvalidConfigError(f"seed must be nonnegative, got {seed!r}")
    if variable is not None:
        variable = _check_variable(variable, frame.n_vars)
        frame = SeriesFrame(frame.values[:, [variable]], [frame.names[variable]])
    windows = make_windows(frame, history, horizon)
    n = len(windows)
    if subsample < n:
        # a mask draws the sorted rows without np.sort's first-call memory
        keep = np.zeros(n, dtype=bool)
        keep[np.random.default_rng(seed).choice(n, size=subsample, replace=False)] = True
        rows = np.flatnonzero(keep)
    else:
        rows = np.arange(n)
    samples = len(rows) * windows.n_vars
    if samples < history + 3:
        raise InsufficientDataError(
            f"need at least H+3={history + 3} samples after subsampling"
        )
    width = history + 1
    # The intercept absorbs one constant off every history and label value, so
    # taking the level off leaves the residuals as they are and keeps it out of
    # the design's conditioning.  Pooled variables share the intercept.
    level = frame.values.mean()

    # The top `width` rows of these buffers carry R and Q^T labels so far, and
    # every block refills the rows below.  New arrays for each block were
    # returned to the OS and faulted in again a block later: 8.4k page faults
    # a call at the diagnose benchmark's shape, not 1.4k.
    stack_rows = width + min(BLOCK_WINDOWS, len(rows)) * windows.n_vars
    stack = np.zeros((stack_rows, width))
    stack[width:, 0] = 1.0
    label_rows = np.zeros((stack_rows, horizon))
    # Q (Q^T labels) comes off the labels a chunk of rows at a time.  A last
    # chunk of one row would take numpy's matrix-vector path, whose sums can
    # round otherwise than the matrix product's, so it joins the chunk before.
    chunk = max(2, CHUNK_FLOATS // horizon)
    fitted = np.empty((min(chunk + 1, stack_rows), horizon))

    flags: list[str] = []
    gram = np.zeros((horizon, horizon))
    try:
        # With [R; D_block] = Q R', the stacked labels split into Q^T labels,
        # which the next block carries, and the residuals, which no later
        # block can reach, so their Gram adds up block by block.
        for hist, labels in windows.sample_blocks(rows, stack[width:, 1:], label_rows[width:]):
            hist -= level
            labels -= level
            m = width + len(labels)
            Q, R = np.linalg.qr(stack[:m])
            resid = label_rows[:m]
            proj = Q.T @ resid
            edges = [*range(0, m - 1, chunk), m]
            for a, b in zip(edges, edges[1:]):
                resid[a:b] -= np.matmul(Q[a:b], proj, out=fitted[:b - a])
            gram += resid.T @ resid
            stack[:width] = R
            label_rows[:width] = proj
        # The block buffers go first: the SVD's first call faults in LAPACK code
        # pages, and with the buffers still held those pages raise the peak RSS.
        del stack, label_rows, fitted, hist, labels, resid, Q
        # R has the centred design's singular values, so the rank rule of
        # _fit_residuals applies to it unchanged.  At full rank the intercept
        # keeps the residuals' mean at 0, and the Gram is already centred.
        s = np.linalg.svd(R, compute_uv=False)
        rank = np.count_nonzero(s > np.finfo(float).eps * max(samples, width) * s[0])
        if rank < width:
            flags.append("ridge_fallback")
            log.warning("rank-deficient design (rank %d < %d); ridge fallback", rank, width)
            # D = Q_total R, so the ridge residuals add Q_total (proj - R coef)
            # to the ones above, and the intercept column is R[0, 0] q_1
            coef = np.linalg.solve(R.T @ R + RIDGE_LAMBDA * np.eye(width), R.T @ proj)
            E = proj - R @ coef
            mean = R[0, 0] * E[0] / samples
            gram += E.T @ E - samples * np.outer(mean, mean)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"least-squares fit failed: {exc}") from None
    # subtracting the ridge residuals' mean can take a dead step's sum of
    # squares a rounding below 0
    sumsq = np.maximum(np.diagonal(gram), 0.0)
    cond_var = sumsq / samples
    dead = cond_var < VAR_EPS
    scale = np.sqrt(np.maximum(sumsq, VAR_EPS * samples))
    corr = gram / np.outer(scale, scale)
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
        "windows": len(rows),
        "variable": variable if variable is not None else "pooled",
        "subsample": subsample,
    }
    return PartialCorrReport(corr, cond_var, meta, flags)


def check_threshold(threshold: float) -> None:
    """InvalidConfigError unless 0 <= threshold <= 1 (so nan is refused)."""
    if not 0.0 <= threshold <= 1.0:
        raise InvalidConfigError(f"threshold must be in [0, 1], got {threshold!r}")


def fraction_above(report: PartialCorrReport, threshold: float) -> float:
    """Share of off-diagonal coefficients with magnitude above threshold."""
    check_threshold(threshold)
    T = report.matrix.shape[0]
    if T < 2:
        return 0.0
    off = ~np.eye(T, dtype=bool)
    return float(np.mean(np.abs(report.matrix[off]) > threshold))
