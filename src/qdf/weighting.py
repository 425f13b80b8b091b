"""Learnable weighting matrix for the quadratic-form objective.

The weighting matrix Sigma is kept positive semi-definite by construction:
we store an unconstrained lower-triangular parameter block ``raw`` and
materialize the Cholesky-style factor L with

    L[i, j] = raw[i, j]            for i > j
    L[i, i] = softplus(raw[i, i])  (clamped below at SOFTPLUS_FLOOR)

so Sigma = L @ L.T is PSD for any real ``raw``.  Ablation modes mask the
factor: DIAG_ONLY zeroes the strictly-lower part of L, OFFDIAG_ONLY pins the
diagonal of L to one.  Masked entries also receive zero gradient.

Each formula lives once, in an array-level kernel on plain T x T arrays:
L from ``raw`` (``factor_from_raw``), Sigma^-1 from L by one triangular
solve (``inverse_from_factor``), the ``raw`` that rescales to
trace(Sigma^-1) = T (``normalized_raw``, the one place that leaves
OFFDIAG_ONLY mode unscaled), and the ``raw`` gradient of a Sigma gradient
(``raw_grad``, which reads the softplus derivative off L).
``WeightingParams.factor`` and ``.inverse`` are thin wrappers over it.
Sigma learning carries ``raw`` with the L and Sigma^-1 that the rescale
formed for it: ``bilevel.hypergradient`` and ``learn_weighting``'s outer
step call the kernel directly, so an atomic update forms one factor and
builds no ``WeightingParams``.
"""

from __future__ import annotations

import enum
import importlib.util
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np

from .errors import ConditioningError, InvalidConfigError, InvalidDimensionError, integer

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


class WeightingMode(enum.Enum):
    FULL = "full"
    DIAG_ONLY = "diag"
    OFFDIAG_ONLY = "offdiag"


@lru_cache(maxsize=None)
def _masks(T: int, mode: WeightingMode) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only masks of one (horizon, mode): the raw entries read (lower),
    the off-diagonal entries L keeps (strict), the raw entries that move (free, 0/1)."""
    lower = np.tri(T, dtype=bool)
    strict = np.tri(T, k=-1, dtype=bool)
    free = lower.astype(float)
    if mode is WeightingMode.DIAG_ONLY:
        strict[:] = False
        free = np.eye(T)
    elif mode is WeightingMode.OFFDIAG_ONLY:
        free = strict.astype(float)
    return _frozen(lower), _frozen(strict), _frozen(free)


@dataclass(frozen=True)
class WeightingParams:
    """Immutable parameterization of the weighting matrix.

    ``raw`` is a dense, non-empty T x T array whose upper triangle is ignored,
    and T is the horizon; ``mode`` must be a ``WeightingMode``.  Updates
    produce new instances; the stored array is marked read-only, and so are
    ``factor`` (L), ``sigma`` and ``inverse`` (Sigma^-1), each derived once
    on first use and then shared by every caller.  Masks are built once per (horizon, mode).
    """

    raw: np.ndarray
    mode: WeightingMode = WeightingMode.FULL

    def __post_init__(self):
        if not isinstance(self.mode, WeightingMode):
            raise InvalidConfigError(f"mode must be a WeightingMode, got {self.mode!r}")
        raw = np.array(self.raw, dtype=float)
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1] or raw.size == 0:
            raise InvalidDimensionError(f"raw must be a non-empty square block, got {raw.shape}")
        if not np.isfinite(np.where(_masks(raw.shape[0], self.mode)[0], raw, 0.0)).all():
            raise InvalidDimensionError("raw lower triangle must be finite")
        raw.setflags(write=False)
        object.__setattr__(self, "raw", raw)

    @property
    def horizon(self) -> int:
        return self.raw.shape[0]

    def with_raw(self, raw: np.ndarray, factor) -> "WeightingParams":
        """Parameters of ``raw`` in this mode.  ``factor``, the (L, Sigma^-1)
        already formed for ``raw``, is kept as ``factor`` and ``inverse``."""
        w = WeightingParams(raw, self.mode)
        w.__dict__.update(factor=_frozen(factor[0]), inverse=_frozen(factor[1]))
        return w

    @cached_property
    def factor(self) -> np.ndarray:
        """L, lower triangular with positive diagonal, mode masks applied."""
        return _frozen(factor_from_raw(self.raw, self.mode))

    @cached_property
    def sigma(self) -> np.ndarray:
        """Sigma = L L^T."""
        return _frozen(self.factor @ self.factor.T)

    @cached_property
    def inverse(self) -> np.ndarray:
        """Sigma^-1 = L^-T L^-1, formed from the factor."""
        return _frozen(inverse_from_factor(self.factor))


@lru_cache(maxsize=None)
def lapack():
    """scipy's compiled LAPACK wrappers, the module scipy.linalg.lapack re-exports.

    Loaded on first use, straight from its file: the scipy.linalg package init
    takes longer than importing numpy itself, and qdf needs only two routines
    (``dtrtrs`` here, ``dtbtrs`` in ``gen_ar``).  If the file cannot be found
    or loaded, ``scipy.linalg.lapack`` gives the same compiled routines.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:  # scipy.linalg has loaded it
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    folders = scipy.submodule_search_locations if scipy else None
    paths = [Path(f, "linalg", "_flapack" + s) for f in folders or () for s in EXTENSION_SUFFIXES]
    for path in filter(Path.is_file, paths):
        spec = importlib.util.spec_from_file_location(name, path)
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:
            break
        # a later scipy.linalg import reuses it (a multi-phase extension
        # would not register itself)
        sys.modules[name] = module
        return module
    from scipy.linalg import lapack as module

    return module


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# The array-level kernel: plain T x T arrays in, fresh arrays out.


def factor_from_raw(raw: np.ndarray, mode: WeightingMode) -> np.ndarray:
    """L: the strictly-lower entries of ``raw`` the mode keeps, and the
    floored softplus of its diagonal (ones in OFFDIAG_ONLY mode)."""
    T = raw.shape[0]
    L = np.where(_masks(T, mode)[1], raw, 0.0)
    if mode is WeightingMode.OFFDIAG_ONLY:
        L.flat[:: T + 1] = 1.0
    else:
        L.flat[:: T + 1] = np.maximum(softplus(raw.diagonal()), SOFTPLUS_FLOOR)
    return L


@lru_cache(maxsize=None)
def _identity(T: int) -> np.ndarray:
    # Left writable: dtrtrs copies its right-hand side (overwrite_b=0), and a
    # read-only one sends it down a path ten times slower.
    return np.eye(T)


def inverse_from_factor(L: np.ndarray) -> np.ndarray:
    """Sigma^-1 = L^-T L^-1, with L^-1 from one triangular solve."""
    # The LAPACK call solve_triangular makes for a C-ordered L, without the
    # wrapper's checks, which at small T cost more than the solve.
    Linv, info = lapack().dtrtrs(L.T, _identity(L.shape[0]), lower=0, trans=1)
    if info != 0:
        raise ConditioningError(f"triangular factor is singular (LAPACK info {info})")
    return Linv.T @ Linv


def normalized_raw(raw: np.ndarray, mode: WeightingMode):
    """The ``raw`` whose Sigma is that of ``raw`` rescaled to trace(Sigma^-1) = T,
    with its factor: (raw, (L, Sigma^-1)).

    Scaling Sigma multiplies the quadratic loss by a constant without moving
    its argmin over model parameters, so this pins a canonical scale.  In
    OFFDIAG_ONLY mode the unit diagonal of L already pins the scale and
    the family is not closed under scaling, so ``raw`` itself is returned.
    L and Sigma^-1 are formed once, from ``raw``, and the rescale carries
    them along as root L and Sigma^-1 / root^2, so the next update need not
    form them again.  Where the softplus floor clamps a rescaled diagonal
    entry, L is no longer root L, and Sigma^-1 is formed again from it.
    """
    L = factor_from_raw(raw, mode)
    A = inverse_from_factor(L)
    if mode is WeightingMode.OFFDIAG_ONLY:
        return raw, (L, A)
    T = raw.shape[0]
    trace = float(A.trace())
    if not math.isfinite(trace):
        raise ConditioningError("trace of inverse weighting is not finite")
    root = math.sqrt(trace / T)
    L *= root
    # L is zero above the diagonal and wherever the mode masks it, so is the
    # copy, and a whole-block check covers the lower triangle
    raw = L.copy()
    diag = L.diagonal()  # a view: it reads the clamp below
    clamped = diag.min() < SOFTPLUS_FLOOR
    if clamped:
        L.flat[:: T + 1] = np.maximum(diag, SOFTPLUS_FLOOR)
    raw.flat[:: T + 1] = softplus_inv(diag)
    if not np.isfinite(raw).all():
        raise ConditioningError("rescaled weighting is not finite")
    if clamped:  # L is no longer root L
        A = inverse_from_factor(L)
    else:
        A /= root * root
    return raw, (L, A)


def raw_grad(L: np.ndarray, grad_sigma: np.ndarray, mode: WeightingMode) -> np.ndarray:
    """Pull a gradient w.r.t. Sigma = L L^T back to the raw block whose
    factor is L.

    Chains through Sigma = L L^T, then through the softplus on the diagonal,
    whose derivative at raw_ii is 1 - exp(-softplus(raw_ii)), read off L as
    -expm1(-L_ii); entries frozen by the mode mask (and by the floor clamp,
    where the diagonal of L sits at the floor) get zero.
    """
    T = L.shape[0]
    grad_raw = (grad_sigma + grad_sigma.T) @ L
    grad_raw *= _masks(T, mode)[2]
    d = L.diagonal()
    grad_raw.reshape(-1)[:: T + 1] *= -np.expm1(-d) * (d > SOFTPLUS_FLOOR)
    return grad_raw


def identity_params(horizon: int, mode: WeightingMode = WeightingMode.FULL) -> WeightingParams:
    """Parameters materializing to the identity matrix (the MSE baseline)."""
    if integer("horizon", horizon) < 1:
        raise InvalidDimensionError(f"horizon must be >= 1, got {horizon}")
    raw = np.zeros((horizon, horizon))
    np.fill_diagonal(raw, softplus_inv(1.0))
    return WeightingParams(raw, mode)


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
    return WeightingParams(raw, mode)


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of the difference of two materialized matrices, such
    as the ``sigma`` of two weightings."""
    if a.shape != b.shape:
        raise InvalidDimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b, "fro"))


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    """Dump a matrix as plain CSV with 17 significant digits, creating the
    parent directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path, np.atleast_2d(matrix), delimiter=",", fmt="%.17g")
