"""Quadratic-form training loss, the MSE baseline, and analytic gradients.

The quadratic loss of a residual row e is e^T Sigma^-1 e, averaged over the
batch.  It is evaluated with ``w.inverse``, the same Sigma^-1 that final
training uses.  The gradient oracles solve against Sigma itself, so they share
no Sigma^-1 arithmetic with the code they check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, InvalidDimensionError, NumericError
from .weighting import WeightingParams, chain_sigma_grad_to_raw


@dataclass(frozen=True)
class ResidualBatch:
    """B x T matrix of forecast residuals, one row per (window, variable)."""

    residuals: np.ndarray

    def __post_init__(self):
        r = np.atleast_2d(np.asarray(self.residuals, dtype=float))
        if r.ndim != 2:
            raise InvalidDimensionError(f"residuals must be 2-D, got ndim={r.ndim}")
        if not np.all(np.isfinite(r)):
            raise NumericError("residuals contain non-finite entries")
        r.setflags(write=False)
        object.__setattr__(self, "residuals", r)

    @property
    def size(self) -> int:
        return self.residuals.shape[0]

    @property
    def horizon(self) -> int:
        return self.residuals.shape[1]


def _check_shapes(batch: ResidualBatch, w: WeightingParams) -> None:
    if batch.size == 0:
        raise EmptyInputError("empty residual batch")
    if batch.horizon != w.horizon:
        raise InvalidDimensionError(
            f"batch horizon {batch.horizon} != weighting horizon {w.horizon}"
        )


def quadratic_loss(batch: ResidualBatch, w: WeightingParams) -> float:
    """Mean over rows of e^T Sigma^-1 e."""
    _check_shapes(batch, w)
    r = batch.residuals
    return float(np.sum((r @ w.inverse) * r) / batch.size)


def mse_loss(batch: ResidualBatch) -> float:
    """Mean over rows of ||e||^2; the quadratic loss at Sigma = identity."""
    if batch.size == 0:
        raise EmptyInputError("empty residual batch")
    r = batch.residuals
    return float(np.sum(r * r) / batch.size)


def _inv_sigma_apply(w: WeightingParams, rows: np.ndarray) -> np.ndarray:
    """Sigma^-1 applied to each row of ``rows`` (returns same layout)."""
    return np.linalg.solve(w.sigma, rows.T).T


def grad_wrt_residual(batch: ResidualBatch, w: WeightingParams) -> np.ndarray:
    """d(mean quadratic loss)/d(residuals): row i is (2/B) Sigma^-1 e_i."""
    _check_shapes(batch, w)
    return (2.0 / batch.size) * _inv_sigma_apply(w, batch.residuals)


def grad_wrt_weighting(batch: ResidualBatch, w: WeightingParams) -> np.ndarray:
    """d(mean quadratic loss)/d(raw weighting entries).

    Uses d(e^T Sigma^-1 e)/dSigma = -Sigma^-1 e e^T Sigma^-1, then chains
    through the factorization and the softplus diagonal.  Mode-masked entries
    are exactly zero.
    """
    _check_shapes(batch, w)
    u = _inv_sigma_apply(w, batch.residuals)  # rows are Sigma^-1 e_i
    grad_sigma = -(u.T @ u) / batch.size
    return chain_sigma_grad_to_raw(w, grad_sigma)
