"""Shared numerical test helpers, and the oracles that the tests check the
library against: the quadratic loss and its analytic gradients on a plain
residual array, the pairwise partial correlation from one whole design, and
the correlation matrix of a covariance.  No command runs these; they stay
independent of the library code they check."""

import numpy as np
import pytest

from qdf.data import WindowSet
from qdf.diagnostics import RIDGE_LAMBDA, VAR_EPS, _check_variable, log
from qdf.errors import (
    EmptyInputError,
    InsufficientDataError,
    InvalidDimensionError,
    NumericError,
    UndefinedCorrelationError,
)
from qdf.weighting import WeightingMode, WeightingParams, raw_grad


def central_diff(f, x0, step=1e-5):
    """Central finite-difference gradient of scalar f over an array argument."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x0.copy()
        xm = x0.copy()
        xp[idx] += step
        xm[idx] -= step
        grad[idx] = (f(xp) - f(xm)) / (2 * step)
        it.iternext()
    return grad


def complex_step(f, x0, h=1e-30):
    """Complex-step gradient Im f(x0 + i h E_k) / h over every entry k, for f
    analytic in its array argument: no difference is taken, so it is exact to
    rounding (Squire & Trapp 1998)."""
    grad = np.zeros(np.shape(x0))
    for idx in np.ndindex(grad.shape):
        z = np.array(x0, dtype=complex)
        z[idx] += 1j * h
        grad[idx] = f(z).imag / h
    return grad


def complex_factor(raw, mode, floor=0.0):
    """L of ``raw`` in complex arithmetic: softplus as log(1 + e^z), and a
    diagonal entry whose real part falls below ``floor`` held there, a
    constant, as the floor clamp holds it."""
    T = raw.shape[0]
    L = np.tril(raw, k=-1) if mode is not WeightingMode.DIAG_ONLY else np.zeros_like(raw)
    diag = np.ones(T) if mode is WeightingMode.OFFDIAG_ONLY else np.log(1 + np.exp(raw.diagonal()))
    return L + np.diag(np.where(diag.real < floor, floor, diag))


def row_grad(theta, A, rows):
    """The weighted-loss gradient in row form, an oracle independent of the
    moments kernel: -(2/B) A (Y - Z Theta^T)^T Z for the B rows of a sample
    block [Z | Y], Z = [X | 1] its first H + 1 columns, the parameter
    gradient of the mean of e^T A e over the rows."""
    k = theta.shape[1]
    Z, Y = rows[:, :k], rows[:, k:]
    return -(2.0 / len(rows)) * (A @ (Y - Z @ theta.T).T @ Z)


def window_samples(windows):
    """The (n*D, H) history rows and (n*D, T) label rows of a window set,
    window-major and variable-minor, by a plain loop over windows and
    variables: a layout oracle independent of the library's readers.
    Counts as one read."""
    X, Y = windows.arrays()
    xs, ys = [], []
    for i in range(len(windows)):
        for d in range(windows.n_vars):
            xs.append(X[i, :, d])
            ys.append(Y[i, :, d])
    return np.array(xs).reshape(-1, windows.history), np.array(ys).reshape(-1, windows.horizon)


def rel_err(analytic, numeric, floor=1e-6):
    """Worst-case entrywise relative error with a small-denominator floor."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


# The quadratic loss of a plain B x T residual array and its analytic gradients.
# The loss is evaluated with ``w.inverse``; the gradients solve against Sigma itself,
# so they share no Sigma^-1 arithmetic with the code they check.


def _residuals(residuals, horizon: int | None = None) -> np.ndarray:
    """Finite, non-empty 2-D float residuals, ``horizon`` wide if given."""
    r = np.atleast_2d(np.asarray(residuals, dtype=float))
    if r.ndim != 2:
        raise InvalidDimensionError(f"residuals must be 2-D, got ndim={r.ndim}")
    if not np.isfinite(r).all():
        raise NumericError("residuals contain non-finite entries")
    if r.shape[0] == 0:
        raise EmptyInputError("empty residual batch")
    if horizon is not None and r.shape[1] != horizon:
        raise InvalidDimensionError(
            f"batch horizon {r.shape[1]} != weighting horizon {horizon}"
        )
    return r


def quadratic_loss(residuals, w: WeightingParams) -> float:
    """Mean over rows of e^T Sigma^-1 e."""
    r = _residuals(residuals, w.horizon)
    return float(((r @ w.inverse) * r).sum() / r.shape[0])


def mse_loss(residuals) -> float:
    """Mean over rows of ||e||^2; the quadratic loss at Sigma = identity."""
    r = _residuals(residuals)
    return float(np.sum(r * r) / r.shape[0])


def _inv_sigma_apply(w: WeightingParams, rows: np.ndarray) -> np.ndarray:
    """Sigma^-1 applied to each row of ``rows`` (returns same layout)."""
    return np.linalg.solve(w.sigma, rows.T).T


def grad_wrt_residual(residuals, w: WeightingParams) -> np.ndarray:
    """d(mean quadratic loss)/d(residuals): row i is (2/B) Sigma^-1 e_i."""
    r = _residuals(residuals, w.horizon)
    return (2.0 / r.shape[0]) * _inv_sigma_apply(w, r)


def grad_wrt_weighting(residuals, w: WeightingParams) -> np.ndarray:
    """d(mean quadratic loss)/d(raw weighting entries).

    Uses d(e^T Sigma^-1 e)/dSigma = -Sigma^-1 e e^T Sigma^-1, then chains
    through the factorization and the softplus diagonal.  Mode-masked entries
    are exactly zero.
    """
    r = _residuals(residuals, w.horizon)
    u = _inv_sigma_apply(w, r)  # rows are Sigma^-1 e_i
    grad_sigma = -(u.T @ u) / r.shape[0]
    return raw_grad(w.factor, grad_sigma, w.mode)


# The partial correlation of two label steps from one whole design and one thin
# SVD: the oracle of partial_corr_matrix's blockwise pass.


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


def cov_to_corr(cov: np.ndarray) -> np.ndarray:
    """Correlation matrix of a square covariance matrix whose variances are positive."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise InvalidDimensionError(f"covariance must be a square 2-D array, got {cov.shape}")
    var = np.diagonal(cov)
    if not (var > 0).all():  # also rejects NaN
        raise NumericError("covariance has a variance that is not positive")
    d = np.sqrt(var)
    return cov / np.outer(d, d)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
