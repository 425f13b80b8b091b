"""Channel-independent linear forecaster with analytic gradients.

The model maps H history steps to T future steps with one weight matrix and
bias shared across the D variables: output[:, d] = weights @ x[:, d] + bias.
Its parameters are one T x (H+1) block Theta = [W | b]; gradients, SGD and
Adam all work on that block, and ``weights`` and ``bias`` are views of it.

The formulas live once, in an array-level kernel on plain blocks: the
forecast, the weighted-loss gradient of a set of sample rows from their
moments (``moment_grad``), and the SGD and Adam updates, each checked
finite.  The model is linear, so the gradient depends on the rows only
through G = Z^T Z and C = Y^T Z with Z = [X | 1]: final training steps on
each minibatch's moments, and Sigma learning seeds its outer adjoint from
the outer split's.  The training loops call the kernel directly.
``forecast_batch`` is the one model-level function, the validated forecast.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidConfigError, InvalidDimensionError, NumericError, integer


@dataclass(frozen=True)
class LinearForecaster:
    theta: np.ndarray  # T x (H+1): weights, then the bias column

    def __post_init__(self):
        # A copy: the constructor freezes what it stores, not the caller's array.
        th = np.array(self.theta, dtype=float)
        if th.ndim != 2 or th.shape[0] < 1 or th.shape[1] < 2:
            raise InvalidDimensionError(f"theta must be T x (H+1) with H, T >= 1, got {th.shape}")
        _finite(th)
        th.setflags(write=False)
        object.__setattr__(self, "theta", th)

    @property
    def weights(self) -> np.ndarray:  # T x H
        return self.theta[:, :-1]

    @property
    def bias(self) -> np.ndarray:  # length T
        return self.theta[:, -1]

    @property
    def history(self) -> int:
        return self.theta.shape[1] - 1

    @property
    def horizon(self) -> int:
        return self.theta.shape[0]


def init_forecaster(history: int, horizon: int, rng: np.random.Generator) -> LinearForecaster:
    """Uniform[-1/sqrt(H), 1/sqrt(H)] weights, zero bias."""
    if integer("history", history) < 1 or integer("horizon", horizon) < 1:
        raise InvalidDimensionError(f"history and horizon must be >= 1, got {history}, {horizon}")
    bound = 1.0 / np.sqrt(history)
    w = rng.uniform(-bound, bound, size=(horizon, history))
    return LinearForecaster(np.column_stack([w, np.zeros(horizon)]))


def forecast_batch(m: LinearForecaster, xs: np.ndarray) -> np.ndarray:
    """Predict B x T from B x H sample rows (variables already flattened)."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != m.history:
        raise InvalidDimensionError(
            f"samples must be B x {m.history}, got {xs.shape}"
        )
    return forecast(m.theta, xs)


# The array-level kernel: plain T x (H+1) blocks, no checks but the
# finiteness of an update.


def forecast(theta: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """B x T forecasts of B x H sample rows by the parameter block ``theta``."""
    return xs @ theta[:, :-1].T + theta[:, -1]


def moment_grad(theta, A, G, C) -> np.ndarray:
    """A (Theta G - C), the weighted-loss gradient from moments.

    With G = (2/B) Z^T Z and C = (2/B) Y^T Z, the moments of B rows [Z | Y]
    scaled by 2/B, this is the parameter gradient of the mean of e^T A e
    over the rows, e = y - Theta z."""
    P = theta @ G
    P -= C
    return A @ P


def _finite(theta: np.ndarray) -> np.ndarray:
    if not np.isfinite(theta).all():
        raise NumericError("model parameters must be finite")
    return theta


def sgd_update(theta, grad, lr, out=None) -> np.ndarray:
    """theta - lr * grad, into ``out`` if given; NumericError if not finite."""
    return _finite(np.subtract(theta, lr * grad, out=out))


class AdamState:
    """Adam accumulator: first and second moments of the parameter block."""

    def __init__(self, m: LinearForecaster, lr: float):
        self.lr = lr
        self.t = 0
        self.m1 = np.zeros_like(m.theta)
        self.m2 = np.zeros_like(m.theta)

    def update(self, theta, grad, out=None) -> np.ndarray:
        """One update of the parameter block, into ``out`` if given.  A
        non-finite result raises NumericError, and the state advances only
        on a finite one."""
        t = self.t + 1
        b1, b2 = 0.9, 0.999
        m1 = b1 * self.m1 + (1 - b1) * grad
        m2 = b2 * self.m2 + (1 - b2) * grad * grad
        step = self.lr * (m1 / (1 - b1**t)) / (np.sqrt(m2 / (1 - b2**t)) + 1e-8)
        new = _finite(np.subtract(theta, step, out=out))
        self.t, self.m1, self.m2 = t, m1, m2
        return new


def save_checkpoint(m: LinearForecaster, prefix, meta: dict | None = None) -> None:
    """Write <prefix>_weights.csv, <prefix>_bias.csv and a JSON header."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(f"{prefix}_weights.csv", m.weights, delimiter=",", fmt="%.17g")
    np.savetxt(f"{prefix}_bias.csv", m.bias[None, :], delimiter=",", fmt="%.17g")
    header = {"history": m.history, "horizon": m.horizon}
    header.update(meta or {})
    with open(f"{prefix}_header.json", "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=2, allow_nan=False)


def load_checkpoint(prefix) -> tuple[LinearForecaster, dict]:
    """The model and header ``save_checkpoint`` wrote; InvalidConfigError for a bad header."""
    path = f"{prefix}_header.json"
    with open(path, encoding="utf-8") as fh:
        try:
            header = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise InvalidConfigError(f"checkpoint header {path} is not JSON: {exc}") from None
    if not isinstance(header, dict):
        raise InvalidConfigError(f"checkpoint header {path} is not a JSON object")
    H, T = (integer(name, header.get(name)) for name in ("history", "horizon"))
    w = np.loadtxt(f"{prefix}_weights.csv", delimiter=",", ndmin=2)
    b = np.loadtxt(f"{prefix}_bias.csv", delimiter=",", ndmin=1)
    if w.shape != (T, H) or b.shape != (T,):
        raise InvalidDimensionError(
            f"checkpoint weights {w.shape} and bias {b.shape} do not match "
            f"history {H}, horizon {T}"
        )
    return LinearForecaster(np.column_stack([w, b])), header
