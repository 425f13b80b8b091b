"""End-to-end training workflow.

Three phases: start the weighting at the identity, refine it by cycling
atomic bilevel updates over K chronological subsets of the training windows
until the materialized matrix stops moving (Frobenius delta under ``tol``)
or the round budget runs out, then train the final model under the frozen
learned objective with minibatches and early stopping.

Only the training split is ever read during the first two phases; validation
drives early stopping and the test split is touched exclusively by metric
evaluation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np

from .bilevel import AtomicConfig, atomic_update, make_split_pair
from .data import WindowSet, chrono_split
from .errors import InvalidConfigError, InvalidSplitError, NumericError
from .model import (
    AdamState,
    LinearForecaster,
    forecast_batch,
    grad_params_batch,
    init_forecaster,
    sgd_step,
)
from .objective import ResidualBatch, quadratic_loss
from .timing import PhaseTimer, phase
from .weighting import (
    WeightingMode,
    WeightingParams,
    frobenius_distance,
    identity_params,
    write_matrix_csv,
)

VARIANTS = ("df", "qdf", "qdf-diag", "qdf-offdiag")

_VARIANT_MODE = {
    "qdf": WeightingMode.FULL,
    "qdf-diag": WeightingMode.DIAG_ONLY,
    "qdf-offdiag": WeightingMode.OFFDIAG_ONLY,
}


@dataclass(frozen=True)
class QdfConfig:
    k_splits: int = 3
    outer_rounds: int = 10
    inner_steps: int = 1
    inner_lr: float = 0.02
    eta: float = 0.05
    tol: float = 1e-4
    epochs: int = 50
    batch_size: int = 64
    final_lr: float = 0.01
    final_optimizer: str = "sgd"  # or "adam"
    patience: int = 3
    mode: WeightingMode = WeightingMode.FULL
    normalize: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.k_splits < 1 or self.outer_rounds < 1 or self.inner_steps < 1:
            raise InvalidSplitError("k_splits, outer_rounds, inner_steps must be >= 1")
        for name in ("batch_size", "epochs", "patience", "inner_lr", "final_lr"):
            value = getattr(self, name)
            if not value > 0:  # also rejects NaN
                raise InvalidConfigError(f"{name} must be positive, got {value!r}")
        for name in ("eta", "tol"):
            value = getattr(self, name)
            if not value >= 0:
                raise InvalidConfigError(f"{name} must be nonnegative, got {value!r}")
        if self.final_optimizer not in ("sgd", "adam"):
            raise InvalidConfigError(f"unknown optimizer {self.final_optimizer!r}")

    def as_dict(self) -> dict:
        d = asdict(self)
        d["mode"] = self.mode.value
        return d


def learn_weighting(
    train: WindowSet,
    model_init: LinearForecaster,
    cfg: QdfConfig,
    timer: PhaseTimer | None = None,
) -> tuple[WeightingParams, list[float]]:
    """Phase 1-2: identity start, K-way refinement, Frobenius stopping rule.

    Returns the learned parameters and the per-round delta trace.  The model
    state persists across atomic updates.  A non-finite delta means Sigma
    diverged and raises NumericError.
    """
    if len(train) < 2 * cfg.k_splits:
        raise InvalidSplitError(
            f"{len(train)} windows cannot feed {cfg.k_splits} splits"
        )
    subsets = chrono_split(train, [1.0 / cfg.k_splits] * cfg.k_splits)
    pairs = [make_split_pair(s) for s in subsets]
    w = identity_params(train.horizon, cfg.mode)
    acfg = AtomicConfig(cfg.inner_steps, cfg.inner_lr, cfg.eta, cfg.normalize)
    theta = model_init
    trace: list[float] = []
    for _ in range(cfg.outer_rounds):
        w_prev = w
        for pair in pairs:
            w, theta = atomic_update(theta, w, pair, acfg, timer)
        delta = frobenius_distance(w, w_prev)
        if not np.isfinite(delta):
            raise NumericError("weighting diverged (Frobenius delta not finite); reduce eta")
        trace.append(delta)
        if delta < cfg.tol:
            break
    return w, trace


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for lo in range(0, n, batch_size):
        yield order[lo : lo + batch_size]


def train_final(
    train: WindowSet,
    w: WeightingParams,
    model_init: LinearForecaster,
    cfg: QdfConfig,
    valid: WindowSet | None = None,
    rng: np.random.Generator | None = None,
    timer: PhaseTimer | None = None,
) -> LinearForecaster:
    """Phase 3: minibatch training under the frozen weighting.

    Early-stops when the validation loss (under the same weighting) has not
    improved for ``patience`` consecutive epochs; returns the best snapshot.
    Without an explicit validation set, the chronologically last 20% of the
    training windows are held out for it.
    """
    if train.horizon != w.horizon:
        raise InvalidSplitError("weighting horizon does not match windows")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    if valid is None:
        train, valid = chrono_split(train, [0.8, 0.2])
    X, Y = train.as_samples()
    Xv, Yv = valid.as_samples()
    A = w.inverse
    model = model_init
    opt = AdamState(model, lr=cfg.final_lr) if cfg.final_optimizer == "adam" else None
    best_model = model
    best_val = np.inf
    stale = 0
    with phase(timer, "final_train"):
        for _ in range(cfg.epochs):
            for idx in _epoch_batches(X.shape[0], cfg.batch_size, rng):
                resid = Y[idx] - forecast_batch(model, X[idx])
                upstream = -(2.0 / idx.size) * (resid @ A)
                grads = grad_params_batch(model, X[idx], upstream)
                if opt is not None:
                    model = opt.step(model, grads)
                else:
                    model = sgd_step(model, grads, cfg.final_lr)
            val = quadratic_loss(
                ResidualBatch(Yv - forecast_batch(model, Xv)), w
            )
            if not np.isfinite(val):
                raise NumericError("validation loss diverged; reduce final_lr")
            if val < best_val:
                best_val = val
                best_model = model
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    break
    return best_model


def evaluate(model: LinearForecaster, windows: WindowSet, w: WeightingParams) -> dict:
    """Test metrics: per-element MSE/MAE plus the quadratic loss under w."""
    X, Y = windows.as_samples()
    resid = Y - forecast_batch(model, X)
    return {
        "mse": float(np.mean(resid**2)),
        "mae": float(np.mean(np.abs(resid))),
        "nll": quadratic_loss(ResidualBatch(resid), w),
    }


@dataclass
class RunReport:
    variant: str
    seed: int
    config: dict
    metrics: dict
    sigma_path: str | None = None
    timings_ms: dict = field(default_factory=dict)
    timings_cpu_ms: dict = field(default_factory=dict)
    phase_steps: dict = field(default_factory=dict)
    frobenius_trace: list[float] = field(default_factory=list)
    schema: int = 1

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True, allow_nan=False)

    def save(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")


TIMING_KEYS = ("inner_fwd", "inner_bwd", "outer_fwd", "outer_bwd", "final_train")


def run_variant(
    train: WindowSet,
    valid: WindowSet,
    test: WindowSet,
    variant: str,
    cfg: QdfConfig,
    sigma_path=None,
) -> tuple[RunReport, LinearForecaster, WeightingParams]:
    """One full run of a variant; all randomness flows from cfg.seed through
    named streams so variants with equal seeds share initialization and
    batch order."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    init_ss, batch_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    model_init = init_forecaster(
        train.history, train.horizon, np.random.default_rng(init_ss)
    )
    timer = PhaseTimer()
    trace: list[float] = []
    if variant == "df":
        w = identity_params(train.horizon)
    else:
        mode_cfg = replace(cfg, mode=_VARIANT_MODE[variant])
        w, trace = learn_weighting(train, model_init, mode_cfg, timer)
    model = train_final(
        train, w, model_init, cfg,
        valid=valid, rng=np.random.default_rng(batch_ss), timer=timer,
    )
    metrics = evaluate(model, test, w)
    if sigma_path is not None:
        write_matrix_csv(sigma_path, w.sigma)
    report = RunReport(
        variant=variant,
        seed=cfg.seed,
        config=cfg.as_dict(),
        metrics=metrics,
        sigma_path=str(sigma_path) if sigma_path is not None else None,
        timings_ms={k: timer.totals_ms.get(k, 0.0) for k in TIMING_KEYS},
        timings_cpu_ms={k: timer.cpu_ms.get(k, 0.0) for k in TIMING_KEYS},
        phase_steps={k: timer.steps.get(k, 0) for k in TIMING_KEYS},
        frobenius_trace=[float(d) for d in trace],
    )
    return report, model, w
