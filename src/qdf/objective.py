"""Quadratic-form training loss, the MSE baseline, and analytic gradients.

The residuals are a plain B x T array, one row per (window, variable).  The
quadratic loss of a row e is e^T Sigma^-1 e, averaged over the batch.  It is
evaluated with ``w.inverse``, the same Sigma^-1 that final training uses.  The
gradient oracles solve against Sigma itself, so they share no Sigma^-1
arithmetic with the code they check.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyInputError, InvalidDimensionError, NumericError
from .weighting import WeightingParams, raw_grad


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
