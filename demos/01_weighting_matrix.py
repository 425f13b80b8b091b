"""The learnable weighting matrix: parameterization, PSD guarantee, scaling.

The quadratic objective weights forecast residuals by the inverse of a
matrix Sigma. Sigma is stored through an unconstrained lower-triangular
block whose diagonal passes through softplus, so every parameter value
materializes to a positive semi-definite matrix.
"""

import numpy as np

from qdf import (
    WeightingMode,
    WeightingParams,
    frobenius_distance,
    identity_params,
    normalized_raw,
    params_from_matrix,
)

rng = np.random.default_rng(0)
np.set_printoptions(precision=4, suppress=True)

# --- identity start: this is what the plain-MSE baseline implicitly uses
w = identity_params(4)
sigma = w.sigma
print("identity parameterization materializes to:")
print(sigma)

# --- any raw values stay PSD; the horizon (4) is read off the square raw block
raw = rng.uniform(-2, 2, size=(4, 4))
sigma = WeightingParams(raw).sigma
eigs = np.linalg.eigvalsh(sigma)
print("\nrandom raw block -> eigenvalues all nonnegative:", eigs)

# --- ablation modes freeze part of the factor; the mode must be a WeightingMode
L_diag = WeightingParams(raw, WeightingMode.DIAG_ONLY).factor
L_off = WeightingParams(raw, WeightingMode.OFFDIAG_ONLY).factor
print("\ndiag-only factor (off-diagonals pinned to zero):")
print(L_diag)
print("offdiag-only factor (diagonal pinned to one):")
print(L_off)

# --- the loss is invariant to Sigma's scale up to a constant factor, so we
#     pin trace(Sigma^-1) = T after every update
sigma0 = np.array([[4.0, 2.0], [2.0, 5.0]])
params = params_from_matrix(sigma0)
normalized = params.with_raw(*normalized_raw(params.raw, params.mode))
sigma1 = normalized.sigma
print("\nbefore normalization:")
print(sigma0)
print("after (trace of inverse equals 2):")
print(sigma1)
print("trace(Sigma^-1) =", np.trace(np.linalg.inv(sigma1)))

# --- convergence of the learning loop is tracked in Frobenius distance
print("\nFrobenius distance to identity:",
      frobenius_distance(normalized.sigma, identity_params(2).sigma))
