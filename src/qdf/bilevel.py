"""Atomic bilevel update: N inner model steps, one outer weighting step.

The inner loop runs plain full-batch gradient descent on the quadratic loss
over the inner split.  The outer step differentiates the outer-split loss
with respect to the weighting parameters *through the unrolled inner
trajectory only*: the weighting's direct appearance in the outer quadratic
form is held constant.  Everything here is exact reverse-mode differentiation
of the unrolled updates, with no autodiff.

The model is linear and the loss quadratic, so with Z = [X, 1] and
Theta = [W, b] the inner data enter only through G = Z^T Z and C = Y^T Z,
cached once per split pair.  With A = Sigma^-1 (cached on the weighting), an
inner step is Theta <- Theta + (2 lr / B) A (C - Theta G), and the reverse
pass needs only the residual moments M_k = C - Theta_k G of each step, so
both cost O(T^2 H + T H^2) whatever the number of inner windows.  The outer
adjoint is seeded from the real outer residuals, so a perfect outer fit
gives an exactly zero hypergradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import WindowSet
from .errors import InvalidDimensionError, InvalidSplitError, NumericError
from .model import LinearForecaster, forecast_batch
from .timing import PhaseTimer, phase
from .weighting import WeightingParams, chain_sigma_grad_to_raw, normalize_scale


@dataclass(frozen=True)
class SplitPair:
    """Inner/outer window sets, disjoint in source-row coverage."""

    inner: WindowSet
    outer: WindowSet

    def __post_init__(self):
        if len(self.inner) == 0 or len(self.outer) == 0:
            raise InvalidSplitError("inner and outer splits must be nonempty")
        if (
            self.inner.history != self.outer.history
            or self.inner.horizon != self.outer.horizon
        ):
            raise InvalidDimensionError("inner/outer window shapes disagree")
        if _coverage_overlaps(self.inner, self.outer):
            raise InvalidSplitError("inner and outer windows share source rows")

    @cached_property
    def inner_moments(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(G, C, B) of the inner samples: Z^T Z, Y^T Z and the row count."""
        X, Y = self.inner.as_samples()
        Z = np.column_stack([X, np.ones(X.shape[0])])
        return Z.T @ Z, Y.T @ Z, X.shape[0]

    @cached_property
    def outer_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) sample rows of the outer split, read once per pair."""
        return self.outer.as_samples()


def _covered_mask(ws: WindowSet, hi: int) -> np.ndarray:
    """Boolean mask over source rows [0, hi) touched by any window."""
    span = ws.history + ws.horizon
    diff = np.zeros(hi + 1, dtype=int)
    np.add.at(diff, ws.starts, 1)
    np.add.at(diff, ws.starts + span, -1)
    return np.cumsum(diff)[:hi] > 0


def _coverage_overlaps(a: WindowSet, b: WindowSet) -> bool:
    hi = max(a.coverage()[1], b.coverage()[1])
    return bool(np.any(_covered_mask(a, hi) & _covered_mask(b, hi)))


def make_split_pair(windows: WindowSet, inner_fraction: float = 0.5) -> SplitPair:
    """Chronological inner/outer split of one window set.

    The window list is cut at the given fraction; inner windows whose
    coverage runs past the first outer window's start are dropped so the two
    sides share no source rows (an embargo at the boundary).
    """
    n = len(windows)
    cut = int(np.floor(n * inner_fraction))
    if cut < 1 or cut >= n:
        raise InvalidSplitError(f"cannot split {n} windows at fraction {inner_fraction}")
    inner = windows.slice(0, cut)
    outer = windows.slice(cut, n)
    span = windows.history + windows.horizon
    boundary = int(outer.starts.min())
    keep = inner.starts + span <= boundary
    if not np.any(keep):
        raise InvalidSplitError(
            "inner split empty after dropping boundary-straddling windows"
        )
    last = int(np.max(np.nonzero(keep)[0])) + 1
    return SplitPair(inner.slice(0, last), outer)


@dataclass(frozen=True)
class AtomicConfig:
    inner_steps: int = 1
    inner_lr: float = 0.05
    eta: float = 0.05
    normalize: bool = True

    def __post_init__(self):
        if self.inner_steps < 1:
            raise InvalidDimensionError("inner_steps must be >= 1")
        if self.inner_lr <= 0:
            raise InvalidDimensionError("inner_lr must be positive")
        if self.eta < 0:
            raise InvalidDimensionError("eta must be nonnegative")


def _unroll(
    theta0: LinearForecaster,
    w: WeightingParams,
    split: SplitPair,
    cfg: AtomicConfig,
    timer: PhaseTimer | None,
):
    """Shared forward pass: N full-batch GD steps from the inner statistics.

    Returns Sigma^-1, the model after the last step, and the residual moments
    M_k = C - Theta_k G of every step, which the reverse pass consumes.
    """
    if theta0.horizon != w.horizon or split.inner.horizon != w.horizon:
        raise InvalidDimensionError("model/weighting/split horizons disagree")
    G, C, B = split.inner_moments
    A = w.inverse
    scale = 2.0 * cfg.inner_lr / B
    theta = np.column_stack([theta0.weights, theta0.bias])
    moments = []
    for _ in range(cfg.inner_steps):
        with phase(timer, "inner_fwd"):
            M = C - theta @ G
        with phase(timer, "inner_bwd"):
            theta = theta + scale * (A @ M)
            finite = bool(np.all(np.isfinite(theta)))
        if not finite:
            raise NumericError("inner loop diverged; reduce inner_lr")
        moments.append(M)
    model_n = LinearForecaster(theta[:, :-1], theta[:, -1], theta0.history, theta0.horizon)
    return A, model_n, moments


def _outer_reverse(A, model_n, moments, w, split, cfg, timer) -> np.ndarray:
    """Outer loss adjoint at theta_N, carried back through the unrolled steps.

    Each step's Jacobian is I - (2 lr / B) A (.) G, constant in theta for a
    quadratic loss; the mixed derivative of step k with respect to Sigma is
    -(2 lr / B) A M_k lambda^T A, accumulated before the two A factors apply.
    """
    Xo, Yo = split.outer_samples
    Bo = Xo.shape[0]
    with phase(timer, "outer_fwd"):
        R = Yo - forecast_batch(model_n, Xo)  # exactly 0 where Yo was forecast by model_n
        V = R @ A  # rows are Sigma^-1 r_i
        outer_loss = float(np.sum(V * R) / Bo)
    if not np.isfinite(outer_loss):
        raise NumericError("outer loss diverged; reduce inner_lr")
    with phase(timer, "outer_bwd"):
        G, _, B = split.inner_moments
        scale = 2.0 * cfg.inner_lr / B
        lam = -(2.0 / Bo) * np.column_stack([V.T @ Xo, V.sum(axis=0)])
        P = np.zeros_like(A)
        for M in reversed(moments):
            P += M @ lam.T
            lam = lam - scale * (A @ lam @ G)
        return chain_sigma_grad_to_raw(w, -scale * (A @ P @ A))


def hypergradient(
    theta0: LinearForecaster,
    w: WeightingParams,
    split: SplitPair,
    cfg: AtomicConfig,
    timer: PhaseTimer | None = None,
) -> np.ndarray:
    """Gradient of the outer loss w.r.t. raw weighting entries, through the
    inner trajectory only (direct outer occurrence of Sigma held fixed)."""
    return _outer_reverse(*_unroll(theta0, w, split, cfg, timer), w, split, cfg, timer)


def atomic_update(
    model: LinearForecaster,
    w: WeightingParams,
    split: SplitPair,
    cfg: AtomicConfig,
    timer: PhaseTimer | None = None,
) -> tuple[WeightingParams, LinearForecaster]:
    """N inner GD steps on the model, then one hypergradient step on the
    weighting.  With eta = 0 the weighting is returned untouched."""
    A, model_n, moments = _unroll(model, w, split, cfg, timer)
    if cfg.eta == 0.0:
        return w, model_n
    grad_raw = _outer_reverse(A, model_n, moments, w, split, cfg, timer)
    new_w = w.with_raw(w.raw - cfg.eta * grad_raw)
    if cfg.normalize:
        new_w = normalize_scale(new_w)
    return new_w, model_n
