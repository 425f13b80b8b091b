"""Synthetic autoregressive benchmarks with an exact covariance oracle.

For an AR process we can write down the exact conditional covariance of the
next T steps given the past (via the moving-average expansion), which gives
the benchmarks a ground-truth weighting matrix to compare against.
"""

import numpy as np

from qdf import (
    ArSpec,
    ar_conditional_cov,
    gen_ar,
    make_windows,
    ramp_noise_schedule,
)

np.set_printoptions(precision=4, suppress=True)

# --- AR(1): the familiar closed form
spec = ArSpec(coeffs=(0.5,), noise_std=1.0, length=30000, seed=42)
cov = ar_conditional_cov(spec, 3)
print("AR(1) phi=0.5 conditional covariance of the next 3 steps:")
print(cov)
print("implied partial correlation of steps 1 and 2:",
      cov[0, 1] / np.sqrt(cov[0, 0] * cov[1, 1]))

# --- the oracle matches what OLS residuals measure empirically
frame = gen_ar(spec)
windows = make_windows(frame, history=6, horizon=3)
# one sample block [X | 1 | Y]: its first history + 1 columns are the design
block = windows.sample_block()
design, Y = block[:, :7], block[:, 7:]
coef, *_ = np.linalg.lstsq(design, Y, rcond=None)
emp = np.cov((Y - design @ coef).T)
print("\nempirical residual covariance from", len(windows), "windows:")
print(emp)

# --- heteroscedastic schedule: variance ramps across the label horizon
H, T = 16, 8
sched = ramp_noise_schedule(H, T, var_start=1.0, var_end=3.0)
ramped = ArSpec(coeffs=(0.6,), noise_std=sched, length=1000, seed=0)
rcov = ar_conditional_cov(ramped, T)
print("\nramped AR(1): conditional variances grow with the step,")
print("diag:", np.diagonal(rcov))
print("and the steps stay correlated, corr row 0:")
d = np.sqrt(np.diagonal(rcov))
print((rcov / np.outer(d, d))[0])
