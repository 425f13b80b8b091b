"""End-to-end training workflow.

Three phases: start the weighting at the identity, refine it by cycling
atomic bilevel updates over K chronological subsets of the training windows
until the materialized matrix stops moving (Frobenius delta under ``tol``)
or the round budget runs out, then train the final model under the frozen
learned objective with minibatches, stopping early after ``PATIENCE``
epochs without a better validation loss.

The refinement carries plain arrays from one atomic update to the next: the
parameter block, the weighting's raw block, and the L and Sigma^-1 that the
rescale formed for it.  An update is ``bilevel.hypergradient``, a step of
-eta times its gradient, a finite check and the ``normalized_raw`` rescale,
all in ``learn_weighting``'s loop, so it forms one factor.  Each outer round
forms Sigma = L L^T of the carried factor once, for the stopping rule and
the conditioning guard; the one ``WeightingParams``, holding the carried
factor, is built for the result.

Final training reads the training split once into one sample block
[X | 1 | Y] (``WindowSet.sample_block``), as evaluation reads the test split.
Each epoch gathers its permuted rows a chunk of minibatches at a time and
takes every minibatch's moments, scaled by 2/B_b, from one stacked product
per chunk (``bilevel.minibatch_moments``); each step is A (Theta G_b - C_b),
under SGD or Adam alike.  It ranks epochs by the loss from the validation
split's moments, scaled alike, under the frozen Sigma^-1 less a constant, so
it holds no validation sample.

Only the training split is ever read during the first two phases; validation
drives early stopping and the test split is touched exclusively by metric
evaluation.  ``evaluate`` reads it once into one sample block and scores the
residual rows under w itself: mse, mae and ``nll``, the mean of e^T Sigma^-1 e
with Sigma^-1 = ``w.inverse``.  The loss and its analytic gradients on a plain
residual array are the tests' oracles, in ``tests/conftest.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from functools import partial
from pathlib import Path

import numpy as np

from .bilevel import hypergradient, make_split_pair, minibatch_moments, split_moments
from .data import WindowSet, chrono_split
from .errors import (
    EmptyInputError, InvalidConfigError, InvalidDimensionError, InvalidSplitError,
    NumericError, integer,
)
from .model import (
    AdamState,
    LinearForecaster,
    forecast_batch,
    init_forecaster,
    moment_grad,
    sgd_update,
)
from .timing import UNTIMED, PhaseTimer
from .weighting import (
    WeightingMode,
    WeightingParams,
    frobenius_distance,
    identity_params,
    normalized_raw,
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

# Final training stops after this many epochs without a better validation loss.
PATIENCE = 3


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
    seed: int = 0

    def __post_init__(self):
        for name in ("k_splits", "outer_rounds", "inner_steps", "epochs", "batch_size", "seed"):
            # stored as int, so that a numpy integer still serializes to JSON
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        for name in ("k_splits", "outer_rounds", "inner_steps", "batch_size", "epochs",
                     "inner_lr", "final_lr"):
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
        # a fresh dict of the fields: their values are immutable, so no deep copy
        return dict(vars(self))


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
    start = identity_params(train.horizon, mode)
    theta, raw, factor = model_init.theta, start.raw, (start.factor, start.inverse)
    sigma = start.sigma
    trace: list[float] = []
    for _ in range(cfg.outer_rounds):
        sigma_prev = sigma
        for pair in pairs:
            theta, grad = hypergradient(theta, factor, mode, pair, cfg, timer)
            raw = raw - cfg.eta * grad
            if not np.isfinite(raw).all():
                raise NumericError("outer step diverged; reduce eta or inner_lr")
            raw, factor = normalized_raw(raw, mode)
        L = factor[0]
        sigma = L @ L.T  # WeightingParams.sigma's formula
        delta = frobenius_distance(sigma, sigma_prev)
        if not np.isfinite(delta):
            raise NumericError(
                "weighting diverged (Frobenius delta not finite); reduce eta or inner_lr"
            )
        sv = np.linalg.svd(sigma, compute_uv=False)
        cond = sv[0] / sv[-1] if sv[-1] else np.inf  # np.linalg.cond, with no warning
        if not cond <= MAX_SIGMA_COND:
            raise NumericError(
                f"weighting diverged (cond(Sigma) = {cond:.3g} > {MAX_SIGMA_COND:g}); "
                "reduce eta or inner_lr"
            )
        trace.append(delta)
        if delta < cfg.tol:
            break
    return start.with_raw(raw, factor), trace


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
    improved for ``PATIENCE`` consecutive epochs; returns the best snapshot.
    The loss is taken less its constant part <Sigma^-1, Y^T Y> / B, which
    ranks the epochs alike.  A non-finite parameter update raises
    NumericError at once.
    """
    if train.horizon != w.horizon:
        raise InvalidSplitError("weighting horizon does not match windows")
    if (valid.history, valid.horizon) != (train.history, train.horizon):
        raise InvalidSplitError("validation windows do not match training windows")
    if model_init.theta.shape != (train.horizon, train.history + 1):
        raise InvalidDimensionError("model shape does not match windows")
    A = w.inverse
    # The validation split enters only through its moments, read before the
    # training block is built, so the two blocks are never held at once.
    held_out = split_moments(valid)
    rows = train.sample_block()
    # The minibatch loop runs on one writable parameter block; every update
    # is checked finite.  Minibatch moments are taken a chunk of minibatches
    # at a time: a gathered epoch would be a second copy of the training
    # samples.
    theta = np.array(model_init.theta)
    if cfg.final_optimizer == "adam":
        update = AdamState(model_init, lr=cfg.final_lr).update
    else:
        update = partial(sgd_update, lr=cfg.final_lr)
    best = model_init.theta
    best_val = np.inf
    stale = 0
    timer.start()
    for _ in range(cfg.epochs):
        order = rng.permutation(rows.shape[0])
        for G, C in minibatch_moments(rows, theta.shape[1], order, cfg.batch_size):
            update(theta, moment_grad(theta, A, G, C), out=theta)
        val = held_out.loss_less_offset(theta, A)
        if not np.isfinite(val):
            raise NumericError("validation loss diverged; reduce final_lr")
        if val < best_val:
            best_val = val
            best = theta.copy()
            stale = 0
        else:
            stale += 1
            if stale >= PATIENCE:
                break
    timer.lap("final_train")
    return LinearForecaster(best)


def evaluate(model: LinearForecaster, windows: WindowSet, w: WeightingParams) -> dict:
    """Test metrics: per-element MSE/MAE plus ``nll``, the mean over residual
    rows of e^T Sigma^-1 e under w.  InvalidDimensionError for a model or a
    weighting of another shape than the windows; EmptyInputError on an empty
    window set, before any mean is taken; NumericError if a residual or a
    metric is not finite (an overflowing residual)."""
    if model.theta.shape != (windows.horizon, windows.history + 1):
        raise InvalidDimensionError("model shape does not match windows")
    if w.horizon != windows.horizon:
        raise InvalidDimensionError("weighting shape does not match windows")
    block = windows.sample_block()
    if not len(block):
        raise EmptyInputError("no test windows to evaluate")
    H = windows.history
    resid = block[:, H + 1:] - forecast_batch(model, block[:, :H])
    if not np.isfinite(resid).all():
        raise NumericError("test residuals contain non-finite entries")
    metrics = {"mse": float(np.mean(resid**2)), "mae": float(np.mean(np.abs(resid))),
               "nll": float(((resid @ w.inverse) * resid).sum() / len(resid))}
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
) -> tuple[RunReport, LinearForecaster, WeightingParams]:
    """One full run of a variant; all randomness flows from cfg.seed through
    named streams so variants with equal seeds share initialization and
    batch order.  It writes no file: the caller may save the report and w.sigma."""
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
    report = RunReport(
        variant=variant,
        seed=cfg.seed,
        config=cfg.as_dict(),
        metrics=metrics,
        timings_ms={k: timer.totals_ms.get(k, 0.0) for k in TIMING_KEYS},
        timings_cpu_ms={k: timer.cpu_ms.get(k, 0.0) for k in TIMING_KEYS},
        phase_steps={k: timer.steps.get(k, 0) for k in TIMING_KEYS},
        frobenius_trace=[float(d) for d in trace],
    )
    return report, model, w
