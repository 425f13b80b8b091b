import numpy as np
import pytest

from conftest import central_diff, rel_err
from qdf.errors import InvalidDimensionError, NumericError
from qdf.model import (
    AdamState,
    LinearForecaster,
    forecast_batch,
    grad_params_batch,
    init_forecaster,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)
from qdf.objective import ResidualBatch, grad_wrt_residual, mse_loss, quadratic_loss
from qdf.weighting import WeightingParams, identity_params


def test_zero_weights_forecast_is_bias():
    m = LinearForecaster(np.zeros((3, 2)), np.array([1.0, 2.0, 3.0]), 2, 3)
    out = forecast_batch(m, np.ones((4, 2)))
    assert np.allclose(out, np.ones((4, 1)) * np.array([1.0, 2.0, 3.0]))


def test_identity_weights_persistence_forecast(rng):
    m = LinearForecaster(np.eye(4), np.zeros(4), 4, 4)
    x = rng.standard_normal((4, 3))
    assert np.allclose(forecast_batch(m, x.T), x.T)


def test_hand_arithmetic_forecast():
    m = LinearForecaster(np.array([[0.5, 0.5]]), np.array([1.0]), 2, 1)
    assert forecast_batch(m, np.array([[2.0, 4.0]])) == pytest.approx(np.array([[4.0]]))


def test_forecast_shape_mismatch():
    m = LinearForecaster(np.zeros((2, 3)), np.zeros(2), 3, 2)
    with pytest.raises(InvalidDimensionError):
        forecast_batch(m, np.zeros((1, 4)))


def test_channel_independence(rng):
    m = init_forecaster(5, 3, rng)
    x = rng.standard_normal((5, 4))
    perm = np.array([2, 0, 3, 1])
    assert np.allclose(forecast_batch(m, x.T[perm]), forecast_batch(m, x.T)[perm])


def test_grad_params_zero_upstream():
    m = LinearForecaster(np.ones((2, 3)), np.zeros(2), 3, 2)
    dw, db = grad_params_batch(m, np.ones((2, 3)), np.zeros((2, 2)))
    assert np.all(dw == 0) and np.all(db == 0)


def test_grad_params_scalar_case():
    m = LinearForecaster(np.array([[1.0]]), np.array([0.0]), 1, 1)
    dw, db = grad_params_batch(m, np.array([[3.0]]), np.array([[2.0]]))
    assert dw == pytest.approx(np.array([[6.0]]))
    assert db == pytest.approx(np.array([2.0]))


def test_grad_params_matches_finite_differences_of_mse(rng):
    H, T, D = 4, 3, 2
    m = init_forecaster(H, T, rng)
    x = rng.standard_normal((H, D))
    y = rng.standard_normal((T, D))

    def loss_at(weights, bias):
        mm = LinearForecaster(weights, bias, H, T)
        e = y.T - forecast_batch(mm, x.T)  # rows per variable
        return mse_loss(ResidualBatch(e))

    fd_w = central_diff(lambda w: loss_at(w, m.bias), m.weights)
    fd_b = central_diff(lambda b: loss_at(m.weights, b), m.bias)

    resid = ResidualBatch(y.T - forecast_batch(m, x.T))
    upstream = -grad_wrt_residual(resid, identity_params(T))  # sign flip, D x T
    dw, db = grad_params_batch(m, x.T, upstream)
    assert np.max(np.abs(dw - fd_w)) <= 1e-6
    assert np.max(np.abs(db - fd_b)) <= 1e-6


def test_grad_params_matches_finite_differences_of_quadratic(rng):
    H, T, D = 3, 4, 2
    m = init_forecaster(H, T, rng)
    x = rng.standard_normal((H, D))
    y = rng.standard_normal((T, D))
    w = WeightingParams(rng.uniform(-1, 1, (T, T)), T)

    def loss_at(weights):
        mm = LinearForecaster(weights, m.bias, H, T)
        return quadratic_loss(ResidualBatch(y.T - forecast_batch(mm, x.T)), w)

    fd_w = central_diff(loss_at, m.weights)
    upstream = -grad_wrt_residual(ResidualBatch(y.T - forecast_batch(m, x.T)), w)
    dw, _ = grad_params_batch(m, x.T, upstream)
    assert rel_err(dw, fd_w) <= 1e-5


def test_grad_params_batch_agrees_with_per_window(rng):
    H, T = 3, 2
    m = init_forecaster(H, T, rng)
    xs = rng.standard_normal((6, H))
    up = rng.standard_normal((6, T))
    dw_b, db_b = grad_params_batch(m, xs, up)
    dw_s = np.zeros((T, H))
    db_s = np.zeros(T)
    for i in range(6):
        dw, db = grad_params_batch(m, xs[i : i + 1], up[i : i + 1])
        dw_s += dw
        db_s += db
    assert np.allclose(dw_b, dw_s, atol=1e-12)
    assert np.allclose(db_b, db_s, atol=1e-12)


def test_sgd_step_basics():
    m = LinearForecaster(np.array([[1.0]]), np.array([0.0]), 1, 1)
    same = sgd_step(m, (np.zeros((1, 1)), np.zeros(1)), 0.1)
    assert np.all(same.weights == m.weights)
    stepped = sgd_step(m, (np.array([[0.5]]), np.zeros(1)), 0.1)
    assert stepped.weights[0, 0] == pytest.approx(0.95)
    # two steps with constant grad equal one step at doubled lr
    g = (np.array([[0.3]]), np.array([0.2]))
    twice = sgd_step(sgd_step(m, g, 0.1), g, 0.1)
    once = sgd_step(m, g, 0.2)
    assert np.allclose(twice.weights, once.weights)
    assert np.allclose(twice.bias, once.bias)


def test_sgd_step_rejects_nonfinite():
    m = LinearForecaster(np.array([[1.0]]), np.array([0.0]), 1, 1)
    with pytest.raises(NumericError):
        sgd_step(m, (np.array([[np.inf]]), np.zeros(1)), 0.1)


def test_gd_fits_noiseless_linear_process(rng):
    H = T = 4
    A = rng.standard_normal((T, H)) * 0.5
    xs = rng.standard_normal((64, H))
    ys = xs @ A.T
    m = init_forecaster(H, T, rng)
    for _ in range(5000):
        pred = forecast_batch(m, xs)
        resid = ys - pred
        loss = mse_loss(ResidualBatch(resid))
        if loss < 1e-6:
            break
        upstream = -grad_wrt_residual(ResidualBatch(resid), identity_params(T))
        grads = grad_params_batch(m, xs, upstream)
        m = sgd_step(m, grads, 0.1)
    assert mse_loss(ResidualBatch(ys - forecast_batch(m, xs))) < 1e-6


def test_adam_descends(rng):
    H, T = 3, 2
    xs = rng.standard_normal((32, H))
    A = rng.standard_normal((T, H))
    ys = xs @ A.T
    m = init_forecaster(H, T, rng)
    opt = AdamState(m, lr=0.05)
    first = mse_loss(ResidualBatch(ys - forecast_batch(m, xs)))
    for _ in range(200):
        resid = ys - forecast_batch(m, xs)
        upstream = -grad_wrt_residual(ResidualBatch(resid), identity_params(T))
        m = opt.step(m, grad_params_batch(m, xs, upstream))
    assert mse_loss(ResidualBatch(ys - forecast_batch(m, xs))) < first * 0.05


def test_checkpoint_round_trip(tmp_path, rng):
    m = init_forecaster(5, 3, rng)
    prefix = tmp_path / "ckpt" / "model"
    save_checkpoint(m, prefix, meta={"n_vars": 2, "mean": [0.0, 1.0]})
    loaded, header = load_checkpoint(prefix)
    assert np.array_equal(loaded.weights, m.weights)
    assert np.array_equal(loaded.bias, m.bias)
    assert header["history"] == 5 and header["horizon"] == 3
    assert header["n_vars"] == 2
