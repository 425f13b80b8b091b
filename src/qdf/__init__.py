"""Direct multi-step forecasting under a learnable quadratic-form objective.

The training loss weights the residual vector of all forecast steps jointly,
e^T Sigma^-1 e, with Sigma parameterized through a positive-diagonal
triangular factor and learned by a bilevel procedure: inner gradient steps
train the forecaster, an outer hypergradient step (differentiating through
the unrolled inner updates) moves the weighting toward better holdout
performance.
"""

from .bilevel import SplitPair, hypergradient, make_split_pair
from .data import (
    ArSpec,
    SeriesFrame,
    WindowSet,
    ar_conditional_cov,
    chrono_split,
    cov_to_corr,
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
    partial_correlation,
)
from .model import (
    AdamState,
    LinearForecaster,
    forecast_batch,
    init_forecaster,
    load_checkpoint,
    save_checkpoint,
)
from .objective import (
    grad_wrt_residual,
    grad_wrt_weighting,
    mse_loss,
    quadratic_loss,
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
    "cov_to_corr",
    "evaluate",
    "forecast_batch",
    "fraction_above",
    "frobenius_distance",
    "gen_ar",
    "gen_ar_frame",
    "grad_wrt_residual",
    "grad_wrt_weighting",
    "hypergradient",
    "identity_params",
    "init_forecaster",
    "learn_weighting",
    "load_checkpoint",
    "load_csv",
    "make_split_pair",
    "make_windows",
    "mse_loss",
    "normalized_raw",
    "params_from_matrix",
    "partial_corr_matrix",
    "partial_correlation",
    "quadratic_loss",
    "ramp_noise_schedule",
    "run_variant",
    "save_checkpoint",
    "standardize",
    "train_final",
    "write_csv",
]
