import json
import warnings

import numpy as np
import pytest

from conftest import central_diff, complex_step, mse_loss, quadratic_loss, rel_err, row_grad
from qdf.bilevel import minibatch_moments
from qdf.errors import InvalidConfigError, InvalidDimensionError, NumericError
from qdf.model import (
    AdamState,
    LinearForecaster,
    forecast_batch,
    init_forecaster,
    load_checkpoint,
    moment_grad,
    save_checkpoint,
    sgd_update,
)
from qdf.weighting import WeightingParams


@pytest.mark.parametrize("history, horizon, error", [
    (2.5, 3, InvalidConfigError), (2, 3.0, InvalidConfigError), (True, 3, InvalidConfigError),
    (0, 3, InvalidDimensionError), (2, 0, InvalidDimensionError),
], ids=["float-history", "float-horizon", "bool-history", "zero-history", "zero-horizon"])
def test_init_forecaster_rejects_bad_sizes(history, horizon, error):
    # floats raised TypeError, and history 0 divided by zero before its error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            init_forecaster(history, horizon, np.random.default_rng(0))


def test_zero_weights_forecast_is_bias():
    m = LinearForecaster(np.column_stack([np.zeros((3, 2)), [1.0, 2.0, 3.0]]))
    out = forecast_batch(m, np.ones((4, 2)))
    assert np.allclose(out, np.ones((4, 1)) * np.array([1.0, 2.0, 3.0]))


def test_identity_weights_persistence_forecast(rng):
    m = LinearForecaster(np.column_stack([np.eye(4), np.zeros(4)]))
    x = rng.standard_normal((4, 3))
    assert np.allclose(forecast_batch(m, x.T), x.T)


def test_hand_arithmetic_forecast():
    m = LinearForecaster(np.array([[0.5, 0.5, 1.0]]))
    assert forecast_batch(m, np.array([[2.0, 4.0]])) == pytest.approx(np.array([[4.0]]))


def test_forecast_shape_mismatch():
    m = LinearForecaster(np.zeros((2, 4)))
    with pytest.raises(InvalidDimensionError):
        forecast_batch(m, np.zeros((1, 4)))


def test_channel_independence(rng):
    m = init_forecaster(5, 3, rng)
    x = rng.standard_normal((5, 4))
    perm = np.array([2, 0, 3, 1])
    assert np.allclose(forecast_batch(m, x.T[perm]), forecast_batch(m, x.T)[perm])


def grad_of(theta, xs, ys, A):
    """The row-form oracle's gradient of B input and label rows."""
    return row_grad(theta, A, block(xs, ys))


def moments_grad_of(theta, xs, ys, A):
    """Final training's gradient of B rows taken as one minibatch: their
    scaled moments, then the moments kernel."""
    ((G, C),) = minibatch_moments(block(xs, ys), theta.shape[1], np.arange(len(xs)), len(xs))
    return moment_grad(theta, A, G, C)


def block(xs, ys):
    """The sample block [X | 1 | Y] of B input and label rows."""
    return np.column_stack([xs, np.ones(len(xs)), ys])


def test_grad_params_zero_upstream():
    theta = np.column_stack([np.ones((2, 3)), np.zeros(2)])
    grad = grad_of(theta, np.ones((2, 3)), np.full((2, 2), 3.0), np.eye(2))  # zero residual
    assert grad.shape == (2, 4) and np.all(grad == 0)


def test_grad_params_scalar_case():
    # forecast 3, target 2: residual -1, so -(2/1) [-1 * 3 | -1] = [6 | 2]
    grad = grad_of(np.array([[1.0, 0.0]]), np.array([[3.0]]), np.array([[2.0]]), np.eye(1))
    assert grad == pytest.approx(np.array([[6.0, 2.0]]))


def test_grad_params_matches_finite_differences_of_mse(rng):
    H, T, D = 4, 3, 2
    m = init_forecaster(H, T, rng)
    x = rng.standard_normal((H, D))
    y = rng.standard_normal((T, D))

    def loss_at(theta):
        e = y.T - forecast_batch(LinearForecaster(theta), x.T)  # rows per variable
        return mse_loss(e)

    fd = central_diff(loss_at, m.theta)  # [dW | db]
    grad = grad_of(m.theta, x.T, y.T, np.eye(T))
    assert np.max(np.abs(grad[:, :-1] - fd[:, :-1])) <= 1e-6
    assert np.max(np.abs(grad[:, -1] - fd[:, -1])) <= 1e-6


def test_grad_params_matches_finite_differences_of_quadratic(rng):
    H, T, D = 3, 4, 2
    m = init_forecaster(H, T, rng)
    x = rng.standard_normal((H, D))
    y = rng.standard_normal((T, D))
    w = WeightingParams(rng.uniform(-1, 1, (T, T)))

    def loss_at(theta):
        return quadratic_loss(y.T - forecast_batch(LinearForecaster(theta), x.T), w)

    fd = central_diff(loss_at, m.theta)
    assert rel_err(grad_of(m.theta, x.T, y.T, w.inverse), fd) <= 1e-5


@pytest.mark.parametrize("T", [1, 2, 8, 33])
def test_row_grad_matches_complex_step(rng, T):
    # normwise, against an oracle exact to rounding, under a symmetric positive
    # definite A as Sigma^-1 is: the row form and the moments kernel on one
    # minibatch both
    for H, B in [(1, 1), (3, 2), (8, 40)]:
        theta = rng.standard_normal((T, H + 1))
        xs, ys = rng.standard_normal((B, H)), rng.standard_normal((B, T))
        M = rng.standard_normal((T, T))
        A = M @ M.T / T + np.eye(T)

        def loss_at(z):
            R = ys - xs @ z[:, :-1].T - z[:, -1]
            return ((R @ A) * R).sum() / B

        oracle = complex_step(loss_at, theta)
        for grad in grad_of, moments_grad_of:
            got = grad(theta, xs, ys, A)
            assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_grad_params_batch_agrees_with_per_window(rng):
    H, T = 3, 2
    theta = init_forecaster(H, T, rng).theta
    xs = rng.standard_normal((6, H))
    ys = rng.standard_normal((6, T))
    A = WeightingParams(rng.uniform(-1, 1, (T, T))).inverse
    batch = grad_of(theta, xs, ys, A)
    rows = [grad_of(theta, xs[i : i + 1], ys[i : i + 1], A) for i in range(6)]
    assert np.allclose(batch, np.mean(rows, axis=0), atol=1e-12)


def test_sgd_step_basics():
    theta = np.array([[1.0, 0.0]])
    assert np.all(sgd_update(theta, np.zeros((1, 2)), 0.1) == theta)
    assert sgd_update(theta, np.array([[0.5, 0.0]]), 0.1)[0, 0] == pytest.approx(0.95)
    # two steps with constant grad equal one step at doubled lr
    g = np.array([[0.3, 0.2]])
    twice = sgd_update(sgd_update(theta, g, 0.1), g, 0.1)
    assert np.allclose(twice, sgd_update(theta, g, 0.2))
    assert np.array_equal(theta, [[1.0, 0.0]])  # without out=, theta is left alone
    out = np.empty_like(theta)
    assert sgd_update(theta, g, 0.1, out=out) is out
    assert np.array_equal(out, theta - 0.1 * g)
    assert sgd_update(theta, g, 0.1, out=theta) is theta  # in place, as training runs it
    assert np.array_equal(theta, out)


def test_sgd_step_rejects_nonfinite():
    with pytest.raises(NumericError):
        sgd_update(np.array([[1.0, 0.0]]), np.array([[np.inf, 0.0]]), 0.1)


def test_gd_fits_noiseless_linear_process(rng):
    H = T = 4
    A = rng.standard_normal((T, H)) * 0.5
    xs = rng.standard_normal((64, H))
    ys = xs @ A.T
    theta = np.array(init_forecaster(H, T, rng).theta)
    for _ in range(5000):
        if mse_loss(ys - forecast_batch(LinearForecaster(theta), xs)) < 1e-6:
            break
        sgd_update(theta, moments_grad_of(theta, xs, ys, np.eye(T)), 0.1, out=theta)
    assert mse_loss(ys - forecast_batch(LinearForecaster(theta), xs)) < 1e-6


def test_adam_descends(rng):
    H, T = 3, 2
    xs = rng.standard_normal((32, H))
    A = rng.standard_normal((T, H))
    ys = xs @ A.T
    m = init_forecaster(H, T, rng)
    opt = AdamState(m, lr=0.05)
    first = mse_loss(ys - forecast_batch(m, xs))
    theta = np.array(m.theta)
    for _ in range(200):
        opt.update(theta, moments_grad_of(theta, xs, ys, np.eye(T)), out=theta)
    assert mse_loss(ys - forecast_batch(LinearForecaster(theta), xs)) < first * 0.05


def test_adam_rejects_nonfinite_without_advancing():
    m = LinearForecaster(np.array([[1.0, 0.0]]))
    opt = AdamState(m, lr=0.1)
    with pytest.raises(NumericError):
        opt.update(m.theta, np.array([[np.nan, 0.0]]))
    assert opt.t == 0 and not np.any(opt.m1) and not np.any(opt.m2)
    assert opt.update(m.theta, np.array([[1.0, 0.0]]))[0, 0] == pytest.approx(0.9)


def test_checkpoint_round_trip(tmp_path, rng):
    m = init_forecaster(5, 3, rng)
    prefix = tmp_path / "ckpt" / "model"
    save_checkpoint(m, prefix, meta={"n_vars": 2, "mean": [0.0, 1.0]})
    loaded, header = load_checkpoint(prefix)
    assert np.array_equal(loaded.weights, m.weights)
    assert np.array_equal(loaded.bias, m.bias)
    assert header["history"] == 5 and header["horizon"] == 3
    assert header["n_vars"] == 2


def test_weights_and_bias_are_read_only_views_of_theta(rng):
    theta = rng.standard_normal((3, 5))
    m = LinearForecaster(theta)
    assert (m.history, m.horizon) == (4, 3)
    assert np.array_equal(m.weights, theta[:, :-1]) and np.array_equal(m.bias, theta[:, -1])
    assert np.shares_memory(m.weights, m.theta) and np.shares_memory(m.bias, m.theta)
    assert not np.shares_memory(m.theta, theta)  # the caller's array stays writable
    for view in (m.theta, m.weights, m.bias):
        with pytest.raises(ValueError):
            view[0] = 1.0


@pytest.mark.parametrize("theta, error", [
    (np.array([[1.0, np.nan]]), NumericError),
    (np.array([[np.inf, 0.0]]), NumericError),
    (np.zeros(3), InvalidDimensionError),
    (np.zeros((2, 3, 1)), InvalidDimensionError),
    (np.zeros((2, 1)), InvalidDimensionError),  # no history column
    (np.zeros((0, 3)), InvalidDimensionError),  # no horizon row
], ids=["nan", "inf", "1-D", "3-D", "H=0", "T=0"])
def test_forecaster_rejects_bad_theta(theta, error):
    with pytest.raises(error):
        LinearForecaster(theta)


@pytest.mark.parametrize("history, horizon", [(1, 3), (3, 1), (1, 1)])
def test_checkpoint_round_trip_single_row_or_column(tmp_path, rng, history, horizon):
    m = init_forecaster(history, horizon, rng)
    save_checkpoint(m, tmp_path / "model")
    loaded, _ = load_checkpoint(tmp_path / "model")
    assert np.array_equal(loaded.theta, m.theta)


@pytest.mark.parametrize("key, value", [("history", 4), ("horizon", 2)])
def test_load_checkpoint_rejects_header_that_disagrees_with_csv(tmp_path, rng, key, value):
    prefix = tmp_path / "model"
    save_checkpoint(init_forecaster(5, 3, rng), prefix)
    header_path = tmp_path / "model_header.json"
    header = json.loads(header_path.read_text())
    header[key] = value
    header_path.write_text(json.dumps(header))
    with pytest.raises(InvalidDimensionError):
        load_checkpoint(prefix)


@pytest.mark.parametrize("text", [
    '{"horizon": 3}', '{"history": 5}', '{"history": 5.0, "horizon": 3}',
    '{"history": 5, "horizon": "3"}', '{"history": 5, "horizon": 3', '[5, 3]',
], ids=["no-history", "no-horizon", "float-history", "string-horizon", "not-json",
        "not-an-object"])
def test_load_checkpoint_rejects_a_malformed_header(tmp_path, rng, text):
    # each header is refused as bad configuration, exit code 3, whatever the
    # weights beside it
    prefix = tmp_path / "model"
    save_checkpoint(init_forecaster(5, 3, rng), prefix)
    (tmp_path / "model_header.json").write_text(text)
    with pytest.raises(InvalidConfigError) as err:
        load_checkpoint(prefix)
    assert err.value.exit_code == 3


@pytest.mark.parametrize("text", ["1,2,x\n", ""], ids=["non-numeric", "empty"])
@pytest.mark.parametrize("part", ["weights", "bias"])
def test_load_checkpoint_rejects_a_csv_that_is_not_numbers(tmp_path, rng, part, text):
    # a non-number escaped as numpy's plain ValueError, and an empty weights
    # file warned "loadtxt: input contained no data" before its shape error
    prefix = tmp_path / "model"
    save_checkpoint(init_forecaster(5, 3, rng), prefix)
    (tmp_path / f"model_{part}.csv").write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidConfigError, match=part):
            load_checkpoint(prefix)


def test_package_exports_resolve_once():
    import qdf

    assert len(qdf.__all__) == len(set(qdf.__all__))
    assert all(hasattr(qdf, name) for name in qdf.__all__)
    # the kernel is the one gradient and update path; no model-level wrappers
    assert not hasattr(qdf, "grad_params_batch") and not hasattr(qdf, "sgd_step")
    # Sigma learning has one update path, on arrays, and one raw-gradient kernel;
    # its one bilevel computation, hypergradient, holds no model or weighting object
    assert not hasattr(qdf, "atomic_update") and not hasattr(qdf.bilevel, "atomic_update")
    assert not hasattr(qdf.bilevel, "atomic_step")
    # the loss and gradient oracles on residual arrays, the pairwise partial
    # correlation and cov_to_corr are test oracles, beside the tests
    for name in ("quadratic_loss", "mse_loss", "grad_wrt_residual", "grad_wrt_weighting",
                 "partial_correlation", "cov_to_corr"):
        assert not hasattr(qdf, name), name
    assert not {"LinearForecaster", "WeightingParams", "model"} & set(vars(qdf.bilevel))
    assert not hasattr(qdf.weighting, "chain_sigma_grad_to_raw")
