"""Learnable weighting matrix for the quadratic-form objective.

The weighting matrix Sigma is kept positive semi-definite by construction:
we store an unconstrained lower-triangular parameter block ``raw`` and
materialize the Cholesky-style factor L with

    L[i, j] = raw[i, j]            for i > j
    L[i, i] = softplus(raw[i, i])  (clamped below at SOFTPLUS_FLOOR)

so Sigma = L @ L.T is PSD for any real ``raw``.  Ablation modes mask the
factor: DIAG_ONLY zeroes the strictly-lower part of L, OFFDIAG_ONLY pins the
diagonal of L to one.  Masked entries also receive zero gradient.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular

from .errors import ConditioningError, InvalidDimensionError

# Diagonal entries of L never drop below this, keeping Sigma invertible even
# under aggressive outer updates.
SOFTPLUS_FLOOR = 1e-6


def softplus(x):
    """Numerically safe log(1 + exp(x))."""
    return np.logaddexp(0.0, x)


def softplus_inv(y):
    """Inverse of softplus for y > 0: log(exp(y) - 1)."""
    y = np.asarray(y, dtype=float)
    return y + np.log1p(-np.exp(-y))


def _sigmoid(x):
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class WeightingMode(enum.Enum):
    FULL = "full"
    DIAG_ONLY = "diag"
    OFFDIAG_ONLY = "offdiag"


@dataclass(frozen=True)
class WeightingParams:
    """Immutable parameterization of the weighting matrix.

    ``raw`` is a dense T x T array whose upper triangle is ignored.  Updates
    produce new instances; the stored array is marked read-only, and so are
    ``factor`` (L), ``sigma`` and ``inverse`` (Sigma^-1), each derived once
    on first use and then shared by every caller.
    """

    raw: np.ndarray
    horizon: int
    mode: WeightingMode = WeightingMode.FULL

    def __post_init__(self):
        if self.horizon < 1:
            raise InvalidDimensionError(f"horizon must be >= 1, got {self.horizon}")
        raw = np.array(self.raw, dtype=float)
        if raw.shape != (self.horizon, self.horizon):
            raise InvalidDimensionError(
                f"raw must be {self.horizon}x{self.horizon}, got {raw.shape}"
            )
        if not np.all(np.isfinite(np.tril(raw))):
            raise InvalidDimensionError("raw lower triangle must be finite")
        raw.setflags(write=False)
        object.__setattr__(self, "raw", raw)

    def with_raw(self, raw: np.ndarray) -> "WeightingParams":
        return WeightingParams(raw, self.horizon, self.mode)

    @cached_property
    def factor(self) -> np.ndarray:
        """L, lower triangular with positive diagonal, mode masks applied."""
        T = self.horizon
        L = np.tril(self.raw, k=-1)
        diag = np.maximum(softplus(np.diagonal(self.raw)), SOFTPLUS_FLOOR)
        if self.mode is WeightingMode.DIAG_ONLY:
            L[:] = 0.0
        elif self.mode is WeightingMode.OFFDIAG_ONLY:
            diag = np.ones(T)
        L[np.diag_indices(T)] = diag
        return _frozen(L)

    @cached_property
    def sigma(self) -> np.ndarray:
        """Sigma = L L^T."""
        return _frozen(self.factor @ self.factor.T)

    @cached_property
    def inverse(self) -> np.ndarray:
        """Sigma^-1 = L^-T L^-1, formed from the factor."""
        Linv = solve_triangular(self.factor, np.eye(self.horizon), lower=True)
        return _frozen(Linv.T @ Linv)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def identity_params(horizon: int, mode: WeightingMode = WeightingMode.FULL) -> WeightingParams:
    """Parameters materializing to the identity matrix (the MSE baseline)."""
    if horizon < 1:
        raise InvalidDimensionError(f"horizon must be >= 1, got {horizon}")
    raw = np.zeros((horizon, horizon))
    np.fill_diagonal(raw, softplus_inv(1.0))
    return WeightingParams(raw, horizon, mode)


def materialize(params: WeightingParams) -> tuple[np.ndarray, np.ndarray]:
    """Return (L, Sigma) with mode masks applied.

    L is lower triangular with positive diagonal; Sigma = L @ L.T.  Both are
    the read-only arrays cached on ``params``.
    """
    return params.factor, params.sigma


def params_from_matrix(
    sigma: np.ndarray, mode: WeightingMode = WeightingMode.FULL
) -> WeightingParams:
    """Build params whose materialized Sigma equals the given PD matrix."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise InvalidDimensionError(f"sigma must be square, got {sigma.shape}")
    try:
        L = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"matrix is not positive definite: {exc}") from None
    raw = np.tril(L, k=-1)
    raw[np.diag_indices_from(raw)] = softplus_inv(np.diagonal(L))
    return WeightingParams(raw, sigma.shape[0], mode)


def normalize_scale(params: WeightingParams) -> WeightingParams:
    """Rescale so that trace(Sigma^-1) = T, removing the scale degeneracy.

    Scaling Sigma multiplies the quadratic loss by a constant without moving
    its argmin over model parameters, so this pins a canonical scale.  In
    OFFDIAG_ONLY mode the unit diagonal of L already pins the scale and the
    family is not closed under scaling, so params are returned unchanged.
    """
    if params.mode is WeightingMode.OFFDIAG_ONLY:
        return params
    trace = float(np.trace(params.inverse))
    if not np.isfinite(trace):
        raise ConditioningError("trace of inverse weighting is not finite")
    L = params.factor
    root = np.sqrt(trace / params.horizon)
    raw = np.tril(L * root, k=-1)
    raw[np.diag_indices_from(raw)] = softplus_inv(
        np.maximum(np.diagonal(L) * root, SOFTPLUS_FLOOR)
    )
    return params.with_raw(raw)


def frobenius_distance(a: WeightingParams, b: WeightingParams) -> float:
    """Frobenius norm of the difference of the materialized matrices."""
    if a.horizon != b.horizon:
        raise InvalidDimensionError(
            f"horizon mismatch: {a.horizon} vs {b.horizon}"
        )
    return float(np.linalg.norm(a.sigma - b.sigma, "fro"))


def grad_mask(params: WeightingParams) -> np.ndarray:
    """0/1 mask over raw entries that are free to move in this mode."""
    T = params.horizon
    mask = np.tril(np.ones((T, T)))
    if params.mode is WeightingMode.DIAG_ONLY:
        mask = np.eye(T)
    elif params.mode is WeightingMode.OFFDIAG_ONLY:
        mask = np.tril(np.ones((T, T)), k=-1)
    return mask


def chain_sigma_grad_to_raw(params: WeightingParams, grad_sigma: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. Sigma back to the raw parameter block.

    Chains through Sigma = L L^T, then through the softplus on the diagonal;
    entries frozen by the mode mask (and by the floor clamp) get zero.
    """
    grad_L = (grad_sigma + grad_sigma.T) @ params.factor
    grad_raw = np.tril(grad_L, k=-1)
    diag_raw = np.diagonal(params.raw)
    sp = softplus(diag_raw)
    active = sp > SOFTPLUS_FLOOR
    grad_raw[np.diag_indices_from(grad_raw)] = (
        np.diagonal(grad_L) * _sigmoid(diag_raw) * active
    )
    return grad_raw * grad_mask(params)


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    """Dump a matrix as plain CSV with 17 significant digits."""
    np.savetxt(path, np.atleast_2d(matrix), delimiter=",", fmt="%.17g")


def read_matrix_csv(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=","))
