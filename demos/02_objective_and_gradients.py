"""The quadratic-form loss, its MSE special case, and gradient checking.

The loss of a residual row e is e^T Sigma^-1 e (averaged over the batch),
evaluated through a triangular solve. With Sigma = I it reduces exactly to
the squared-error objective. All gradients are analytic; here we confirm
them against central finite differences. Every function takes the residuals
as a plain B x T array, one row per window.
"""

import numpy as np

from qdf import (
    WeightingParams,
    grad_wrt_residual,
    grad_wrt_weighting,
    identity_params,
    mse_loss,
    params_from_matrix,
    quadratic_loss,
)

rng = np.random.default_rng(1)
np.set_printoptions(precision=5, suppress=True)

T, B = 5, 8
residuals = rng.standard_normal((B, T))  # one row per window

# --- identity weighting is plain MSE
print("quadratic loss at identity:", quadratic_loss(residuals, identity_params(T)))
print("mse loss:                  ", mse_loss(residuals))

# --- a non-trivial weighting changes the loss value
base = rng.standard_normal((T, T))
sigma = base @ base.T + 2 * np.eye(T)
w = params_from_matrix(sigma)
print("\nquadratic loss under a correlated weighting:", quadratic_loss(residuals, w))

# --- check the residual gradient against finite differences
def fd(f, x0, step=1e-6):
    g = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp, xm = x0.copy(), x0.copy()
        xp[i] += step
        xm[i] -= step
        g[i] = (f(xp) - f(xm)) / (2 * step)
        it.iternext()
    return g

g_resid = grad_wrt_residual(residuals, w)
g_fd = fd(lambda r: quadratic_loss(r, w), residuals)
print("\nresidual gradient max |analytic - fd|:", np.max(np.abs(g_resid - g_fd)))

# --- and the gradient with respect to the raw weighting entries (a T x T
#     block; WeightingParams reads the horizon off it)
raw = WeightingParams(rng.uniform(-1, 1, (T, T)))
g_w = grad_wrt_weighting(residuals, raw)
g_w_fd = fd(lambda r: quadratic_loss(residuals, WeightingParams(r)), np.array(raw.raw))
print("weighting gradient max |analytic - fd| (lower triangle):",
      np.max(np.abs(np.tril(g_w - g_w_fd))))
