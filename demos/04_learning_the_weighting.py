"""End-to-end: learn the weighting by bilevel updates, then train under it.

Phase 1 starts the weighting at the identity and splits the training windows
chronologically. Phase 2 cycles atomic updates until the matrix stops
moving: ``qdf.hypergradient`` runs a few inner gradient steps on the
forecaster and differentiates the holdout loss through them, and
``learn_weighting`` steps the weighting down that gradient and rescales it.
Phase 3 trains the final model under the frozen learned objective.
"""

import numpy as np

from qdf import cov_to_corr, init_forecaster
from qdf.bench import PRESET_CONFIG, bench_config, benchmark_data, HISTORY, HORIZON
from qdf.workflow import learn_weighting, run_variant

np.set_printoptions(precision=3, suppress=True)

seed = 0
data = benchmark_data("hetero-corr", seed)
print(f"benchmark windows: train {len(data.train)}, valid {len(data.valid)}, "
      f"test {len(data.test)} (aligned, non-overlapping)")
print("oracle conditional covariance diag:", np.diagonal(data.oracle_cov))

# --- phase 2 in isolation: watch the Frobenius trace
cfg = bench_config(seed, preset="hetero-corr")
model0 = init_forecaster(HISTORY, HORIZON, np.random.default_rng(seed))
w, trace = learn_weighting(data.train, model0, cfg)
sigma = w.sigma
print("\nper-round Frobenius deltas:", np.round(trace, 4))
print("learned Sigma diagonal:", np.diagonal(sigma))
print("learned correlation, first row:", cov_to_corr(sigma)[0])
print("oracle correlation, first row: ", cov_to_corr(data.oracle_cov)[0])

# --- full variants: the learned objective vs the plain-MSE baseline
print("\nfull runs (same seed, same data, same batches):")
for variant in ("df", "qdf"):
    report, _, _ = run_variant(data.train, data.valid, data.test, variant, cfg)
    print(f"  {variant:4s} test mse {report.metrics['mse']:.4f} "
          f"mae {report.metrics['mae']:.4f} nll {report.metrics['nll']:.4f}")

print("\npreset configurations used by the benchmark harness:")
for name, overrides in PRESET_CONFIG.items():
    print(f"  {name:12s} {overrides}")
