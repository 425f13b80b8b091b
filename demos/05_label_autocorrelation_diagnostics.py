"""Diagnosing label autocorrelation with partial correlations.

Raw correlation between two future steps is confounded by the shared
history; the partial correlation regresses each step on the history first
and correlates the residuals. ``partial_corr_matrix`` takes every pair of
steps from one regression per window block. On AR data the estimate
converges to the value implied by the exact conditional covariance.
"""

import numpy as np

from qdf import (
    ArSpec,
    ar_conditional_cov,
    fraction_above,
    gen_ar,
    partial_corr_matrix,
)

np.set_printoptions(precision=3, suppress=True)

# --- AR(1): closed form phi / sqrt(1 + phi^2)
spec = ArSpec(coeffs=(0.5,), noise_std=1.0, length=5200, seed=11)
frame = gen_ar(spec)
# every window (no subsampling), two label steps
rho = partial_corr_matrix(frame, history=8, horizon=2, subsample=len(frame.values)).matrix[0, 1]
print(f"estimated partial correlation of steps 1,2: {rho:.4f}")
print(f"closed form: {0.5 / np.sqrt(1.25):.4f}")

# --- the full matrix, from the same one pass
report = partial_corr_matrix(frame, history=8, horizon=5, subsample=5000)
print("\nestimated partial-correlation matrix (T=5):")
print(report.matrix)
print("implied by the oracle covariance:")
cov = ar_conditional_cov(spec, 5)
d = np.sqrt(np.diagonal(cov))
print(cov / np.outer(d, d))
print("per-step conditional variances:", report.cond_var)
print("fraction of off-diagonals above 0.1:", fraction_above(report, 0.1))

# --- independent noise: nothing but estimation noise remains
null = gen_ar(ArSpec(coeffs=(), noise_std=1.0, length=5200, seed=12))
null_report = partial_corr_matrix(null, history=8, horizon=5, subsample=5000)
print("\nwhite-noise labels, fraction above 0.05:",
      fraction_above(null_report, 0.05))
