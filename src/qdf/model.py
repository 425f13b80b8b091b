"""Channel-independent linear forecaster with analytic gradients.

The model maps H history steps to T future steps with one weight matrix and
bias shared across the D variables: output[:, d] = weights @ x[:, d] + bias.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidDimensionError, NumericError


@dataclass(frozen=True)
class LinearForecaster:
    weights: np.ndarray  # T x H
    bias: np.ndarray  # length T
    history: int
    horizon: int

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        b = np.array(self.bias, dtype=float)
        if w.shape != (self.horizon, self.history):
            raise InvalidDimensionError(
                f"weights must be {self.horizon}x{self.history}, got {w.shape}"
            )
        if b.shape != (self.horizon,):
            raise InvalidDimensionError(f"bias must have length {self.horizon}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise NumericError("model parameters must be finite")
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)


def init_forecaster(history: int, horizon: int, rng: np.random.Generator) -> LinearForecaster:
    """Uniform[-1/sqrt(H), 1/sqrt(H)] weights, zero bias."""
    bound = 1.0 / np.sqrt(history)
    w = rng.uniform(-bound, bound, size=(horizon, history))
    return LinearForecaster(w, np.zeros(horizon), history, horizon)


def forecast_batch(m: LinearForecaster, xs: np.ndarray) -> np.ndarray:
    """Predict B x T from B x H sample rows (variables already flattened)."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != m.history:
        raise InvalidDimensionError(
            f"samples must be B x {m.history}, got {xs.shape}"
        )
    return xs @ m.weights.T + m.bias


def grad_params_batch(
    m: LinearForecaster, xs: np.ndarray, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Chain-rule gradients (dW, db) from B x H inputs and B x T upstreams.

    ``upstream`` is d(loss)/d(forecast) row by row and carries all loss
    reduction factors; this applies the linear map's Jacobian, summing over
    rows.
    """
    if xs.shape[0] != upstream.shape[0]:
        raise InvalidDimensionError("batch sizes differ")
    return upstream.T @ xs, upstream.sum(axis=0)


def sgd_step(
    m: LinearForecaster, grads: tuple[np.ndarray, np.ndarray], lr: float
) -> LinearForecaster:
    """Plain gradient-descent update; returns a new model."""
    dw, db = grads
    if not (np.all(np.isfinite(dw)) and np.all(np.isfinite(db))):
        raise NumericError("non-finite gradients")
    return LinearForecaster(
        m.weights - lr * dw, m.bias - lr * db, m.history, m.horizon
    )


class AdamState:
    """Adam accumulator over the (weights, bias) pair."""

    def __init__(self, m: LinearForecaster, lr=1e-3):
        self.lr = lr
        self.t = 0
        self.m_w = np.zeros_like(m.weights)
        self.v_w = np.zeros_like(m.weights)
        self.m_b = np.zeros_like(m.bias)
        self.v_b = np.zeros_like(m.bias)

    def step(
        self, m: LinearForecaster, grads: tuple[np.ndarray, np.ndarray]
    ) -> LinearForecaster:
        dw, db = grads
        if not (np.all(np.isfinite(dw)) and np.all(np.isfinite(db))):
            raise NumericError("non-finite gradients")
        self.t += 1
        b1, b2 = 0.9, 0.999
        self.m_w = b1 * self.m_w + (1 - b1) * dw
        self.v_w = b2 * self.v_w + (1 - b2) * dw * dw
        self.m_b = b1 * self.m_b + (1 - b1) * db
        self.v_b = b2 * self.v_b + (1 - b2) * db * db
        c1 = 1 - b1**self.t
        c2 = 1 - b2**self.t
        step_w = self.lr * (self.m_w / c1) / (np.sqrt(self.v_w / c2) + 1e-8)
        step_b = self.lr * (self.m_b / c1) / (np.sqrt(self.v_b / c2) + 1e-8)
        return LinearForecaster(
            m.weights - step_w, m.bias - step_b, m.history, m.horizon
        )


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
    with open(f"{prefix}_header.json", encoding="utf-8") as fh:
        header = json.load(fh)
    w = np.atleast_2d(np.loadtxt(f"{prefix}_weights.csv", delimiter=","))
    b = np.atleast_1d(np.loadtxt(f"{prefix}_bias.csv", delimiter=","))
    m = LinearForecaster(w, b, header["history"], header["horizon"])
    return m, header
