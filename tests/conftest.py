"""Shared numerical test helpers."""

import numpy as np
import pytest

from qdf.weighting import WeightingMode


def central_diff(f, x0, step=1e-5):
    """Central finite-difference gradient of scalar f over an array argument."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x0.copy()
        xm = x0.copy()
        xp[idx] += step
        xm[idx] -= step
        grad[idx] = (f(xp) - f(xm)) / (2 * step)
        it.iternext()
    return grad


def complex_step(f, x0, h=1e-30):
    """Complex-step gradient Im f(x0 + i h E_k) / h over every entry k, for f
    analytic in its array argument: no difference is taken, so it is exact to
    rounding (Squire & Trapp 1998)."""
    grad = np.zeros(np.shape(x0))
    for idx in np.ndindex(grad.shape):
        z = np.array(x0, dtype=complex)
        z[idx] += 1j * h
        grad[idx] = f(z).imag / h
    return grad


def complex_factor(raw, mode, floor=0.0):
    """L of ``raw`` in complex arithmetic: softplus as log(1 + e^z), and a
    diagonal entry whose real part falls below ``floor`` held there, a
    constant, as the floor clamp holds it."""
    T = raw.shape[0]
    L = np.tril(raw, k=-1) if mode is not WeightingMode.DIAG_ONLY else np.zeros_like(raw)
    diag = np.ones(T) if mode is WeightingMode.OFFDIAG_ONLY else np.log(1 + np.exp(raw.diagonal()))
    return L + np.diag(np.where(diag.real < floor, floor, diag))


def row_grad(theta, A, rows):
    """The weighted-loss gradient in row form, an oracle independent of the
    moments kernel: -(2/B) A (Y - Z Theta^T)^T Z for the B rows of a sample
    block [Z | Y], Z = [X | 1] its first H + 1 columns, the parameter
    gradient of the mean of e^T A e over the rows."""
    k = theta.shape[1]
    Z, Y = rows[:, :k], rows[:, k:]
    return -(2.0 / len(rows)) * (A @ (Y - Z @ theta.T).T @ Z)


def window_samples(windows):
    """The (n*D, H) history rows and (n*D, T) label rows of a window set,
    window-major and variable-minor, by a plain loop over windows and
    variables: a layout oracle independent of the library's readers.
    Counts as one read."""
    X, Y = windows.arrays()
    xs, ys = [], []
    for i in range(len(windows)):
        for d in range(windows.n_vars):
            xs.append(X[i, :, d])
            ys.append(Y[i, :, d])
    return np.array(xs).reshape(-1, windows.history), np.array(ys).reshape(-1, windows.horizon)


def rel_err(analytic, numeric, floor=1e-6):
    """Worst-case entrywise relative error with a small-denominator floor."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
