"""Direct multi-step forecasting under a learnable quadratic-form objective.

The training loss weights the residual vector of all forecast steps jointly,
e^T Sigma^-1 e, with Sigma parameterized through a positive-diagonal
triangular factor and learned by a bilevel procedure: inner gradient steps
train the forecaster, an outer hypergradient step (differentiating through
the unrolled inner updates) moves the weighting toward better holdout
performance.  Both training loops step on moments (``model.moment_grad``);
the mean of e^T Sigma^-1 e over a residual block is ``evaluate``'s test
score.  The oracles the tests check these against (the loss and its analytic
gradients on a plain residual array, the partial correlation of two label
steps, a covariance's correlation matrix) live in ``tests/conftest.py``.
"""

from .bilevel import SplitPair, hypergradient, make_split_pair
from .data import (
    ArSpec,
    SeriesFrame,
    WindowSet,
    ar_conditional_cov,
    chrono_split,
    gen_ar,
    gen_ar_frame,
    load_csv,
    make_windows,
    ramp_noise_schedule,
    standardize,
    write_csv,
)
from .diagnostics import (
    PartialCorrReport,
    fraction_above,
    partial_corr_matrix,
)
from .model import (
    AdamState,
    LinearForecaster,
    forecast_batch,
    init_forecaster,
    load_checkpoint,
    save_checkpoint,
)
from .weighting import (
    WeightingMode,
    WeightingParams,
    frobenius_distance,
    identity_params,
    normalized_raw,
    params_from_matrix,
)
from .workflow import (
    QdfConfig,
    RunReport,
    evaluate,
    learn_weighting,
    run_variant,
    train_final,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "ArSpec",
    "LinearForecaster",
    "PartialCorrReport",
    "QdfConfig",
    "RunReport",
    "SeriesFrame",
    "SplitPair",
    "WeightingMode",
    "WeightingParams",
    "WindowSet",
    "ar_conditional_cov",
    "chrono_split",
    "evaluate",
    "forecast_batch",
    "fraction_above",
    "frobenius_distance",
    "gen_ar",
    "gen_ar_frame",
    "hypergradient",
    "identity_params",
    "init_forecaster",
    "learn_weighting",
    "load_checkpoint",
    "load_csv",
    "make_split_pair",
    "make_windows",
    "normalized_raw",
    "params_from_matrix",
    "partial_corr_matrix",
    "ramp_noise_schedule",
    "run_variant",
    "save_checkpoint",
    "standardize",
    "train_final",
    "write_csv",
]
