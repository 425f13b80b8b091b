"""End-to-end training workflow.

Three phases: start the weighting at the identity, refine it by cycling
atomic bilevel updates over K chronological subsets of the training windows
until the materialized matrix stops moving (Frobenius delta under ``tol``)
or the round budget runs out, then train the final model under the frozen
learned objective with minibatches and early stopping.

The refinement carries two plain arrays from one atomic update to the next,
the parameter block and the weighting's raw block.  An update is
``bilevel.hypergradient``, a step of -eta times its gradient, a finite check
and the ``normalized_raw`` rescale, all in ``learn_weighting``'s loop, and
one ``WeightingParams`` per outer round serves the stopping rule, the
conditioning guard and the result.

Only the training split is ever read during the first two phases; validation
drives early stopping and the test split is touched exclusively by metric
evaluation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from functools import partial
from pathlib import Path

import numpy as np

from .bilevel import hypergradient, make_split_pair
from .data import WindowSet, chrono_split
from .errors import InvalidConfigError, InvalidSplitError, NumericError, integer
from .model import (
    AdamState,
    LinearForecaster,
    bound_grad,
    forecast,
    forecast_batch,
    init_forecaster,
    sgd_update,
)
from .objective import quadratic_loss
from .timing import UNTIMED, PhaseTimer
from .weighting import (
    WeightingMode,
    WeightingParams,
    frobenius_distance,
    identity_params,
    normalized_raw,
    write_matrix_csv,
)

VARIANTS = ("df", "qdf", "qdf-diag", "qdf-offdiag")
OPTIMIZERS = ("sgd", "adam")

_VARIANT_MODE = {
    "qdf": WeightingMode.FULL,
    "qdf-diag": WeightingMode.DIAG_ONLY,
    "qdf-offdiag": WeightingMode.OFFDIAG_ONLY,
}

# A Sigma beyond this condition number has diverged, even while finite.
# Every passing benchmark cell stays below 15.
MAX_SIGMA_COND = 1e6


@dataclass(frozen=True)
class QdfConfig:
    """Every training setting, its default and its validation; the CLI's
    ``train`` flags take their defaults from here."""

    k_splits: int = 3
    outer_rounds: int = 10
    inner_steps: int = 1
    inner_lr: float = 0.02
    eta: float = 0.05
    tol: float = 1e-4
    epochs: int = 50
    batch_size: int = 64
    final_lr: float = 0.01
    final_optimizer: str = "sgd"
    patience: int = 3
    seed: int = 0

    def __post_init__(self):
        for name in ("k_splits", "outer_rounds", "inner_steps", "epochs", "batch_size",
                     "patience", "seed"):
            # stored as int, so that a numpy integer still serializes to JSON
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        for name in ("k_splits", "outer_rounds", "inner_steps", "batch_size", "epochs",
                     "patience", "inner_lr", "final_lr"):
            value = getattr(self, name)
            if not 0 < value < np.inf:  # also rejects NaN
                raise InvalidConfigError(f"{name} must be positive and finite, got {value!r}")
        for name in ("eta", "tol", "seed"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:
                raise InvalidConfigError(f"{name} must be nonnegative and finite, got {value!r}")
        if self.final_optimizer not in OPTIMIZERS:
            raise InvalidConfigError(f"unknown optimizer {self.final_optimizer!r}")

    def as_dict(self) -> dict:
        return asdict(self)


def learn_weighting(
    train: WindowSet,
    model_init: LinearForecaster,
    cfg: QdfConfig,
    mode: WeightingMode = WeightingMode.FULL,
    timer: PhaseTimer = UNTIMED,
) -> tuple[WeightingParams, list[float]]:
    """Phase 1-2: identity start, K-way refinement, Frobenius stopping rule.

    Returns the learned parameters and the per-round delta trace.  The model
    state persists across atomic updates.  With eta = 0 every step is zero,
    and the identity start is a fixed point of ``normalized_raw``, so Sigma
    stays I.  A non-finite step or delta, or a Sigma whose condition number
    exceeds ``MAX_SIGMA_COND``, means Sigma diverged and raises NumericError.
    """
    if len(train) < 2 * cfg.k_splits:
        raise InvalidSplitError(
            f"{len(train)} windows cannot feed {cfg.k_splits} splits"
        )
    subsets = chrono_split(train, [1.0 / cfg.k_splits] * cfg.k_splits)
    pairs = [make_split_pair(s) for s in subsets]
    w = identity_params(train.horizon, mode)
    theta, raw = model_init.theta, w.raw
    trace: list[float] = []
    for _ in range(cfg.outer_rounds):
        w_prev = w
        for pair in pairs:
            theta, grad = hypergradient(theta, raw, mode, pair, cfg, timer)
            raw = raw - cfg.eta * grad
            if not np.isfinite(raw).all():
                raise NumericError("outer step diverged; reduce eta or inner_lr")
            raw = normalized_raw(raw, mode)
        w = w_prev.with_raw(raw)
        delta = frobenius_distance(w, w_prev)
        if not np.isfinite(delta):
            raise NumericError(
                "weighting diverged (Frobenius delta not finite); reduce eta or inner_lr"
            )
        sv = np.linalg.svd(w.sigma, compute_uv=False)
        cond = sv[0] / sv[-1] if sv[-1] else np.inf  # np.linalg.cond, with no warning
        if not cond <= MAX_SIGMA_COND:
            raise NumericError(
                f"weighting diverged (cond(Sigma) = {cond:.3g} > {MAX_SIGMA_COND:g}); "
                "reduce eta or inner_lr"
            )
        trace.append(delta)
        if delta < cfg.tol:
            break
    return w, trace


def train_final(
    train: WindowSet,
    w: WeightingParams,
    model_init: LinearForecaster,
    cfg: QdfConfig,
    valid: WindowSet,
    rng: np.random.Generator,
    timer: PhaseTimer = UNTIMED,
) -> LinearForecaster:
    """Phase 3: minibatch training under the frozen weighting.

    Early-stops when the validation loss (under the same weighting) has not
    improved for ``patience`` consecutive epochs; returns the best snapshot.
    A non-finite parameter update raises NumericError at once.
    """
    if train.horizon != w.horizon:
        raise InvalidSplitError("weighting horizon does not match windows")
    X, Y = train.as_samples()
    Xv, Yv = valid.as_samples()
    A = w.inverse
    # The minibatch loop runs on one writable parameter block, whose gradient
    # kernel is bound once; every update is checked finite, and an epoch that
    # improves the validation loss is kept as one validated model.
    # Minibatches are gathered one at a time: a gathered epoch would be a
    # second copy of the training samples.
    theta = np.array(model_init.theta)
    grad = bound_grad(theta, A, np.empty_like(theta))
    if cfg.final_optimizer == "adam":
        update = AdamState(model_init, lr=cfg.final_lr).update
    else:
        update = partial(sgd_update, lr=cfg.final_lr)
    n, size = X.shape[0], cfg.batch_size
    best_model = model_init
    best_val = np.inf
    stale = 0
    timer.start()
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, size):
            idx = order[lo : lo + size]
            update(theta, grad(X.take(idx, 0), Y.take(idx, 0)), out=theta)
        val = quadratic_loss(Yv - forecast(theta, Xv), w)
        if not np.isfinite(val):
            raise NumericError("validation loss diverged; reduce final_lr")
        if val < best_val:
            best_val = val
            best_model = LinearForecaster(theta)
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    timer.lap("final_train")
    return best_model


def evaluate(model: LinearForecaster, windows: WindowSet, w: WeightingParams) -> dict:
    """Test metrics: per-element MSE/MAE plus the quadratic loss under w.
    NumericError if any of them is not finite (an overflowing residual)."""
    X, Y = windows.as_samples()
    resid = Y - forecast_batch(model, X)
    metrics = {
        "mse": float(np.mean(resid**2)),
        "mae": float(np.mean(np.abs(resid))),
        "nll": quadratic_loss(resid, w),
    }
    bad = [name for name, v in metrics.items() if not np.isfinite(v)]
    if bad:
        raise NumericError(f"test metrics {bad} are not finite; the test residuals overflow")
    return metrics


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
        raise InvalidConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    init_ss, batch_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    model_init = init_forecaster(
        train.history, train.horizon, np.random.default_rng(init_ss)
    )
    timer = PhaseTimer()
    trace: list[float] = []
    if variant == "df":
        w = identity_params(train.horizon)
    else:
        w, trace = learn_weighting(train, model_init, cfg, _VARIANT_MODE[variant], timer)
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
