"""The quadratic-form loss, its MSE special case, and gradient checking.

The loss of a residual row e is e^T Sigma^-1 e, averaged over the batch.
With Sigma = I it reduces exactly to the squared-error objective. The
forecaster is linear, so the gradient of the loss over B sample rows
[Z | y], Z = [x | 1], depends on the rows only through their moments
G = (2/B) Z^T Z and C = (2/B) Y^T Z: ``qdf.model.moment_grad`` gives it as
A (Theta G - C), with A = Sigma^-1. Both training loops step on it; here we
confirm it against central finite differences of the loss on the rows.
"""

import numpy as np

from qdf import LinearForecaster, forecast_batch, identity_params, params_from_matrix
from qdf.model import moment_grad

rng = np.random.default_rng(1)
np.set_printoptions(precision=5, suppress=True)

H, T, B = 4, 5, 8
X = rng.standard_normal((B, H))  # one row of history per sample
Y = rng.standard_normal((B, T))  # and its T labels
theta = rng.standard_normal((T, H + 1))  # the parameter block [W | b]


def loss(theta, A):
    """Mean over the rows of e^T A e, e = y - W x - b."""
    e = Y - forecast_batch(LinearForecaster(theta), X)
    return float(((e @ A) * e).sum() / B)


# --- identity weighting is plain squared error
e = Y - forecast_batch(LinearForecaster(theta), X)
print("quadratic loss at identity:", loss(theta, identity_params(T).inverse))
print("squared error:             ", float((e * e).sum() / B))

# --- a non-trivial weighting changes the loss value
base = rng.standard_normal((T, T))
A = params_from_matrix(base @ base.T + 2 * np.eye(T)).inverse
print("\nquadratic loss under a correlated weighting:", loss(theta, A))

# --- the gradient from the batch's moments, against finite differences
Z = np.column_stack([X, np.ones(B)])
G, C = (2 / B) * Z.T @ Z, (2 / B) * Y.T @ Z
g = moment_grad(theta, A, G, C)


def fd(f, x0, step=1e-6):
    g = np.zeros_like(x0)
    for i in np.ndindex(x0.shape):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += step
        xm[i] -= step
        g[i] = (f(xp) - f(xm)) / (2 * step)
    return g


g_fd = fd(lambda th: loss(th, A), theta)
print("\nparameter gradient from the moments:")
print(g)
print("max |analytic - fd|:", np.max(np.abs(g - g_fd)))
