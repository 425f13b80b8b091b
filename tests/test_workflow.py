import inspect
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import grad_wrt_residual, quadratic_loss, window_samples
from qdf.bench import bench_config, benchmark_data
from qdf.bilevel import hypergradient, make_split_pair
from qdf.data import (
    ArSpec,
    SeriesFrame,
    WindowSet,
    ar_conditional_cov,
    chrono_split,
    gen_ar,
    gen_ar_frame,
    make_windows,
    ramp_noise_schedule,
)
from qdf import bilevel, workflow
from qdf.errors import (
    EmptyInputError,
    InvalidConfigError,
    InvalidDimensionError,
    InvalidSplitError,
    NumericError,
)
from qdf.model import AdamState, forecast_batch, init_forecaster, sgd_update
from qdf.weighting import (
    SOFTPLUS_FLOOR,
    WeightingMode,
    WeightingParams,
    factor_from_raw,
    frobenius_distance,
    identity_params,
    inverse_from_factor,
    normalized_raw,
    params_from_matrix,
)
from qdf.workflow import (
    PATIENCE,
    QdfConfig,
    RunReport,
    evaluate,
    learn_weighting,
    run_variant,
    train_final,
)


def ar_windows(seed=0, length=800, H=8, T=4, phi=0.6):
    frame = gen_ar(ArSpec((phi,), 1.0, length, seed))
    return make_windows(frame, H, T)


@pytest.mark.parametrize("bad", [
    dict(batch_size=0), dict(final_optimizer="rmsprop"), dict(epochs=0),
    dict(final_lr=0.0), dict(final_lr=float("nan")), dict(inner_lr=-0.1), dict(eta=-1e-3),
    dict(tol=-1.0), dict(k_splits=0), dict(outer_rounds=0), dict(inner_steps=0),
    dict(inner_lr=float("inf")), dict(final_lr=float("inf")), dict(eta=float("inf")),
    dict(tol=float("inf")),
    # counts must be integers: a float, even a whole one, a string or a bool is refused
    dict(outer_rounds=2.0), dict(inner_steps=1.5), dict(epochs=2.5), dict(batch_size=2.5),
    dict(seed=1.5), dict(k_splits=3.0), dict(seed="1"),
    dict(epochs=True),
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(InvalidConfigError):
        QdfConfig(**bad)


def test_config_takes_numpy_integer_counts_as_int():
    cfg = QdfConfig(k_splits=np.int64(2), epochs=np.int32(3), seed=np.uint8(7))
    assert (cfg.k_splits, cfg.epochs, cfg.seed) == (2, 3, 7)
    assert all(type(v) is int for v in (cfg.k_splits, cfg.epochs, cfg.seed))
    assert json.loads(json.dumps(cfg.as_dict()))["seed"] == 7


# -------------------------------------------------------- learn_weighting

@pytest.mark.parametrize("mode", list(WeightingMode), ids=lambda m: m.value)
def test_learn_weighting_eta_zero_returns_identity(rng, mode):
    # eta = 0 takes the same outer step as any other eta, a zero one, and the
    # identity start is a fixed point of the rescale in every mode
    ws = ar_windows()
    cfg = QdfConfig(k_splits=3, outer_rounds=5, eta=0.0, seed=1)
    model = init_forecaster(ws.history, ws.horizon, rng)
    w, trace = learn_weighting(ws, model, cfg, mode)
    assert np.array_equal(w.raw, identity_params(ws.horizon, mode).raw)
    assert frobenius_distance(w.sigma, identity_params(ws.horizon).sigma) == 0.0
    assert trace == [0.0]


def test_learn_weighting_k1_single_atomic_update(rng):
    ws = ar_windows(length=300)
    cfg = QdfConfig(k_splits=1, outer_rounds=1, inner_steps=1, inner_lr=0.02, eta=0.1, seed=3)
    model = init_forecaster(ws.history, ws.horizon, rng)
    w, trace = learn_weighting(ws, model, cfg)

    pair = make_split_pair(ws)
    start = identity_params(ws.horizon)
    _, grad = hypergradient(
        model.theta, (start.factor, start.inverse), start.mode, pair,
        QdfConfig(inner_steps=1, inner_lr=0.02, eta=0.1),
    )
    assert np.array_equal(w.raw, normalized_raw(start.raw - 0.1 * grad, start.mode)[0])
    assert len(trace) == 1


@pytest.mark.parametrize("inner_steps", [1, 2])
@pytest.mark.parametrize("mode", list(WeightingMode), ids=lambda m: m.value)
def test_learn_weighting_equals_chained_atomic_updates(rng, mode, inner_steps):
    # learn_weighting's loop against hypergradient and the step chained by
    # hand, with a fresh WeightingParams after every step that keeps the L and
    # Sigma^-1 the rescale carried, and hands them to the next hypergradient
    ws = ar_windows(seed=11)
    cfg = QdfConfig(k_splits=3, outer_rounds=3, inner_steps=inner_steps, inner_lr=0.05,
                    eta=0.1, tol=0.0, seed=11)
    model = init_forecaster(ws.history, ws.horizon, rng)
    w, trace = learn_weighting(ws, model, cfg, mode)

    pairs = [make_split_pair(s) for s in chrono_split(ws, [1.0 / 3] * 3)]
    expect, deltas, theta = identity_params(ws.horizon, mode), [], model.theta
    for _ in range(3):
        prev = expect
        for pair in pairs:
            factor = expect.factor, expect.inverse
            theta, grad = hypergradient(theta, factor, mode, pair, cfg)
            expect = expect.with_raw(*normalized_raw(expect.raw - cfg.eta * grad, mode))
        deltas.append(frobenius_distance(expect.sigma, prev.sigma))
    assert w.mode is mode and deltas[-1] > 0.0
    assert list(map(float.hex, trace)) == list(map(float.hex, deltas))
    assert list(map(float.hex, w.raw.ravel())) == list(map(float.hex, expect.raw.ravel()))


def assert_factor_of(raw, mode, L, A):
    """L and A are the factor and Sigma^-1 of ``raw``, formed afresh, to 1e-14 normwise."""
    fresh = factor_from_raw(raw, mode)
    inverse = inverse_from_factor(fresh)
    assert np.linalg.norm(L - fresh) <= 1e-14 * np.linalg.norm(fresh)
    assert np.linalg.norm(A - inverse) <= 1e-14 * np.linalg.norm(inverse)


@pytest.mark.parametrize("mode, H, cfg, floors", [
    (mode, 8, QdfConfig(k_splits=3, outer_rounds=5, inner_steps=2, inner_lr=0.05, eta=0.1,
                        tol=0.0), False)
    for mode in WeightingMode
] + [
    # an outer step of 1e175 sends every diagonal of L to about 1e175, so the
    # trace of Sigma^-1 underflows to zero and the rescale clamps every
    # diagonal at the floor, where L is no longer root L
    (WeightingMode.DIAG_ONLY, 4, QdfConfig(k_splits=1, outer_rounds=3, inner_lr=0.5,
                                           eta=1e175, tol=0.0), True),
], ids=["full", "diag", "offdiag", "floor"])
def test_learn_weighting_carries_the_factor_of_its_raw_block(monkeypatch, mode, H, cfg, floors):
    # each update's rescale forms L and Sigma^-1 once and hands them on, to the
    # next hypergradient and into the result: they stay those of the raw
    # block they came with
    carried = []

    def spy(raw, mode):
        out = normalized_raw(raw, mode)
        carried.append(out)
        return out

    monkeypatch.setattr(workflow, "normalized_raw", spy)
    ws = ar_windows(seed=11, H=H, T=4)
    w, _ = learn_weighting(ws, init_forecaster(H, 4, np.random.default_rng(11)), cfg, mode)
    for raw, (L, A) in carried:
        assert_factor_of(raw, mode, L, A)
    raw, (L, A) = carried[-1]
    assert np.array_equal(w.raw, raw) and w.factor is L and w.inverse is A
    floored = [bool((np.diagonal(L) == SOFTPLUS_FLOOR).all()) for _, (L, _) in carried]
    assert any(floored) == floors


def test_learn_weighting_halts_within_budget():
    ws = ar_windows(seed=5)
    cfg = QdfConfig(k_splits=3, outer_rounds=4, inner_steps=1, inner_lr=0.02, eta=0.05, seed=5)
    model = init_forecaster(ws.history, ws.horizon, np.random.default_rng(5))
    w, trace = learn_weighting(ws, model, cfg)
    assert 1 <= len(trace) <= 4
    assert all(np.isfinite(d) for d in trace)


def test_learn_weighting_halts_on_tolerance():
    ws = ar_windows(seed=6)
    # a huge tolerance forces the stopping rule to fire after round one
    cfg = QdfConfig(k_splits=2, outer_rounds=50, eta=0.01, tol=1e9, seed=6)
    model = init_forecaster(ws.history, ws.horizon, np.random.default_rng(6))
    _, trace = learn_weighting(ws, model, cfg)
    assert len(trace) == 1


def test_learn_weighting_too_few_windows(rng):
    ws = ar_windows(length=30, H=8, T=4)  # 19 windows
    model = init_forecaster(8, 4, rng)
    with pytest.raises(InvalidSplitError):
        learn_weighting(ws, model, QdfConfig(k_splits=10))


def test_learn_weighting_reads_only_training_split(rng):
    train = ar_windows(seed=7)
    test = ar_windows(seed=8)
    cfg = QdfConfig(k_splits=2, outer_rounds=2, eta=0.05, seed=7)
    model = init_forecaster(train.history, train.horizon, rng)
    learn_weighting(train, model, cfg)
    assert train.reads > 0
    assert test.reads == 0


def test_learn_weighting_reads_do_not_grow_with_rounds(rng):
    # each split pair reads its windows once; later rounds reuse the cache
    model = init_forecaster(8, 4, rng)
    reads = []
    for rounds in (2, 6):
        train = ar_windows(seed=7)
        cfg = QdfConfig(k_splits=2, outer_rounds=rounds, eta=0.05, tol=0.0, seed=7)
        _, trace = learn_weighting(train, model, cfg)
        assert len(trace) == rounds
        reads.append(train.reads)
    assert reads[0] == reads[1] > 0


# ------------------------------------------------------------ train_final

def batch_moments(X, Y, idx):
    """The moments of minibatch ``idx`` scaled by 2/B, from one 2-D product
    [Z | Y]^T Z of its rows, Z = [X | 1]: (2/B) Z^T Z and (2/B) Y^T Z."""
    E = np.column_stack([X[idx], np.ones(idx.size), Y[idx]])
    k = X.shape[1] + 1
    M = E.T @ E[:, :k]
    M *= 2.0 / idx.size
    return M[:k], M[k:]


def reference_mse_training(train, valid, W, b, cfg, rng):
    """Plain MSE minibatch training on separate raw W and b, each step's
    gradient Theta G - C from the minibatch's moments."""
    X, Y = window_samples(train)
    Xv, Yv = window_samples(valid)
    best, best_val, stale = (W, b), np.inf, 0
    for _ in range(cfg.epochs):
        order = rng.permutation(X.shape[0])
        for lo in range(0, X.shape[0], cfg.batch_size):
            G, C = batch_moments(X, Y, order[lo : lo + cfg.batch_size])
            grad = np.column_stack([W, b]) @ G - C
            W = W - cfg.final_lr * grad[:, :-1]
            b = b - cfg.final_lr * grad[:, -1]
        val = float(np.sum((Yv - (Xv @ W.T + b)) ** 2) / Xv.shape[0])
        if val < best_val:
            best, best_val, stale = (W, b), val, 0
        else:
            stale += 1
            if stale >= PATIENCE:
                break
    return best


def test_train_final_identity_matches_mse_training_bitwise():
    ws = ar_windows(seed=11, length=600)
    train, valid = ws.slice(0, 400), ws.slice(420, 500)
    cfg = QdfConfig(epochs=8, batch_size=32, final_lr=0.01, seed=11)
    model0 = init_forecaster(ws.history, ws.horizon, np.random.default_rng(11))

    got = train_final(train, identity_params(ws.horizon), model0, cfg,
                      valid=valid, rng=np.random.default_rng(99))
    W, b = reference_mse_training(train, valid, np.array(model0.weights),
                                  np.array(model0.bias), cfg, np.random.default_rng(99))
    assert np.array_equal(got.weights, W)
    assert np.array_equal(got.bias, b)


def reference_weighted_training(train, valid, w, W, b, cfg, rng):
    """Minibatch training under w on separate raw W and b, with the
    grad_wrt_residual oracle's gradient."""
    X, Y = window_samples(train)
    Xv, Yv = window_samples(valid)
    best, best_val, stale = (W, b), np.inf, 0
    for _ in range(cfg.epochs):
        order = rng.permutation(X.shape[0])
        for lo in range(0, X.shape[0], cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            upstream = -grad_wrt_residual(Y[idx] - (X[idx] @ W.T + b), w)
            W = W - cfg.final_lr * (upstream.T @ X[idx])
            b = b - cfg.final_lr * upstream.sum(axis=0)
        val = quadratic_loss(Yv - (Xv @ W.T + b), w)
        if val < best_val:
            best, best_val, stale = (W, b), val, 0
        else:
            stale += 1
            if stale >= PATIENCE:
                break
    return best


def test_train_final_nondiagonal_sigma_matches_oracle_training():
    ws = ar_windows(seed=12, length=600)
    train, valid = ws.slice(0, 400), ws.slice(420, 500)
    rng = np.random.default_rng(12)
    w = WeightingParams(rng.uniform(-0.5, 0.5, (ws.horizon, ws.horizon)))
    assert np.count_nonzero(np.tril(w.factor, k=-1)) > 0
    cfg = QdfConfig(epochs=8, batch_size=32, final_lr=0.01, seed=12)
    model0 = init_forecaster(ws.history, ws.horizon, rng)

    got = train_final(train, w, model0, cfg, valid=valid, rng=np.random.default_rng(98))
    W, b = reference_weighted_training(train, valid, w, np.array(model0.weights),
                                       np.array(model0.bias), cfg, np.random.default_rng(98))
    assert not np.array_equal(got.weights, model0.weights)
    assert np.max(np.abs(got.weights - W)) <= 1e-12
    assert np.max(np.abs(got.bias - b)) <= 1e-12


def test_train_final_fits_noiseless_linear_process(rng, monkeypatch):
    H, T = 4, 3
    A = rng.standard_normal((T, H)) * 0.4
    xs = rng.standard_normal((300, H))
    ys = xs @ A.T
    from qdf.data import WindowSet

    X3 = xs[:, :, None]
    Y3 = ys[:, :, None]
    starts = np.arange(300) * (H + T)  # synthetic, non-overlapping
    ws = WindowSet(X3, Y3, starts)
    train, valid = ws.slice(0, 250), ws.slice(250, 300)
    w = params_from_matrix(np.array([[2.0, 0.5, 0.0], [0.5, 1.5, 0.2], [0.0, 0.2, 1.0]]))
    monkeypatch.setattr(workflow, "PATIENCE", 400)
    cfg = QdfConfig(epochs=400, batch_size=64, final_lr=0.1, seed=0)
    model0 = init_forecaster(H, T, rng)
    model = train_final(train, w, model0, cfg, valid=valid, rng=rng)
    X, Y = window_samples(train)
    final = quadratic_loss(Y - forecast_batch(model, X), w)
    assert final < 1e-6


def test_train_final_holds_no_validation_samples():
    # the validation split enters through its moments: at most its block is
    # held while they are taken, and never a forecast or residual of it
    frame = gen_ar(ArSpec((0.6,), 1.0, 20_400, seed=41))
    ws = make_windows(frame, 4, 16)
    train, valid = ws.slice(0, 200), ws.slice(300, 20_300)
    cfg = QdfConfig(epochs=3, batch_size=32, final_lr=0.01, seed=41)
    model0 = init_forecaster(4, 16, np.random.default_rng(41))
    tracemalloc.start()
    try:
        train_final(train, identity_params(16), model0, cfg, valid=valid,
                    rng=np.random.default_rng(41))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block_bytes = (len(train) + len(valid)) * (4 + 1 + 16) * 8
    # scoring from the samples, with Xv, Yv and n x T forecasts and residuals,
    # traces 8.4 MB here
    assert peak < block_bytes + 64 * 1024


@pytest.mark.parametrize("H, T", [(7, 4), (8, 3), (8, 1)])
def test_train_final_rejects_validation_of_other_shape(H, T):
    train = ar_windows(seed=16, length=400)
    valid = ar_windows(seed=17, length=200, H=H, T=T)
    model0 = init_forecaster(train.history, train.horizon, np.random.default_rng(16))
    with pytest.raises(InvalidSplitError, match="validation windows"):
        train_final(train, identity_params(train.horizon), model0, QdfConfig(epochs=1),
                    valid=valid, rng=np.random.default_rng(16))


@pytest.mark.parametrize("entry", ["hypergradient", "learn_weighting", "train_final",
                                   "evaluate-history", "evaluate-horizon", "evaluate-weighting"])
def test_a_model_of_another_history_is_refused(entry):
    # a history-15 model on the history-16 white bench windows: numpy's
    # matmul and broadcast ValueErrors escaped all three training entry
    # points.  evaluate let a model of another horizon reach numpy's
    # broadcast error, and refused the other two only by their samples' or
    # residuals' width; each is now refused before the test split is read
    data = benchmark_data("white", 0)
    cfg = bench_config(0, "white")
    H, T = data.train.history, data.train.horizon
    model0 = init_forecaster(H - 1, T, np.random.default_rng(0))
    w = identity_params(T)
    run = {
        "hypergradient": lambda: hypergradient(model0.theta, (w.factor, w.inverse), w.mode,
                                               make_split_pair(data.train), cfg),
        "learn_weighting": lambda: learn_weighting(data.train, model0, cfg),
        "train_final": lambda: train_final(data.train, w, model0, cfg, valid=data.valid,
                                           rng=np.random.default_rng(0)),
        "evaluate-history": lambda: evaluate(model0, data.test, w),
        "evaluate-horizon": lambda: evaluate(
            init_forecaster(H, T - 1, np.random.default_rng(0)), data.test, w),
        "evaluate-weighting": lambda: evaluate(
            init_forecaster(H, T, np.random.default_rng(0)), data.test, identity_params(T - 1)),
    }[entry]
    with pytest.raises(InvalidDimensionError, match="shape"):
        run()
    assert data.test.reads == 0


def test_evaluate_refuses_an_empty_window_set():
    # refused before any mean is taken: numpy warned "Mean of empty slice"
    ws = WindowSet(np.zeros((0, 8, 1)), np.zeros((0, 4, 1)), np.zeros(0, dtype=int))
    model = init_forecaster(8, 4, np.random.default_rng(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyInputError):
            evaluate(model, ws, identity_params(4))


def test_evaluate_mse_of_several_variables_is_the_mean_over_the_variables():
    # one model serves every variable, and every variable has as many rows
    frame = gen_ar_frame(ArSpec((0.6,), 1.0, 400, seed=31), 3)
    model = init_forecaster(8, 4, np.random.default_rng(31))
    w = identity_params(4)
    per_column = [evaluate(model, make_windows(SeriesFrame(frame.values[:, [d]], ["y"]), 8, 4),
                           w)["mse"] for d in range(3)]
    assert evaluate(model, make_windows(frame, 8, 4), w)["mse"] == pytest.approx(
        np.mean(per_column), rel=1e-13)


def test_train_final_adam_option_runs():
    ws = ar_windows(seed=13, length=400)
    train, valid = ws.slice(0, 250), ws.slice(260, 330)
    cfg = QdfConfig(epochs=5, batch_size=32, final_lr=1e-3, final_optimizer="adam", seed=13)
    model0 = init_forecaster(ws.history, ws.horizon, np.random.default_rng(13))
    model = train_final(train, identity_params(ws.horizon), model0, cfg,
                        valid=valid, rng=np.random.default_rng(13))
    assert np.all(np.isfinite(model.weights))


def reference_adam_training(train, valid, w, W, b, cfg, rng):
    """Adam minibatch training on separate raw W and b, each with its own
    first and second moments, each step's gradient A (Theta G - C) from the
    minibatch's moments."""
    X, Y = window_samples(train)
    Xv, Yv = window_samples(valid)
    A = w.inverse
    b1, b2 = 0.9, 0.999
    m_w, v_w, m_b, v_b = (np.zeros_like(W), np.zeros_like(W),
                          np.zeros_like(b), np.zeros_like(b))
    best, best_val, stale, t = (W, b), np.inf, 0, 0
    for _ in range(cfg.epochs):
        order = rng.permutation(X.shape[0])
        for lo in range(0, X.shape[0], cfg.batch_size):
            G, C = batch_moments(X, Y, order[lo : lo + cfg.batch_size])
            grad = A @ (np.column_stack([W, b]) @ G - C)
            dw, db = grad[:, :-1], grad[:, -1]
            t += 1
            m_w = b1 * m_w + (1 - b1) * dw
            v_w = b2 * v_w + (1 - b2) * dw * dw
            m_b = b1 * m_b + (1 - b1) * db
            v_b = b2 * v_b + (1 - b2) * db * db
            c1, c2 = 1 - b1**t, 1 - b2**t
            W = W - cfg.final_lr * (m_w / c1) / (np.sqrt(v_w / c2) + 1e-8)
            b = b - cfg.final_lr * (m_b / c1) / (np.sqrt(v_b / c2) + 1e-8)
        val = quadratic_loss(Yv - (Xv @ W.T + b), w)
        if val < best_val:
            best, best_val, stale = (W, b), val, 0
        else:
            stale += 1
            if stale >= PATIENCE:
                break
    return best


def test_train_final_adam_matches_separate_moment_reference_bitwise():
    ws = ar_windows(seed=14, length=600)
    train, valid = ws.slice(0, 400), ws.slice(420, 500)
    rng = np.random.default_rng(14)
    w = WeightingParams(rng.uniform(-0.5, 0.5, (ws.horizon, ws.horizon)))
    cfg = QdfConfig(epochs=8, batch_size=32, final_lr=0.01, final_optimizer="adam", seed=14)
    model0 = init_forecaster(ws.history, ws.horizon, rng)

    got = train_final(train, w, model0, cfg, valid=valid, rng=np.random.default_rng(97))
    W, b = reference_adam_training(train, valid, w, np.array(model0.weights),
                                   np.array(model0.bias), cfg, np.random.default_rng(97))
    assert not np.array_equal(got.weights, model0.weights)
    assert np.array_equal(got.weights, W)
    assert np.array_equal(got.bias, b)


# ------------------------------------------------------------ run_variant

def split_three(ws):
    from qdf.data import chrono_split

    return chrono_split(ws, [0.7, 0.1, 0.2])


def test_df_equals_eta_zero_qdf_bitwise():
    train, valid, test = split_three(ar_windows(seed=17, length=900))
    cfg_df = QdfConfig(epochs=6, batch_size=32, final_lr=0.01, seed=17)
    cfg_q0 = QdfConfig(epochs=6, batch_size=32, final_lr=0.01, seed=17,
                       eta=0.0, outer_rounds=3)
    rep_df, model_df, _ = run_variant(train, valid, test, "df", cfg_df)
    rep_q0, model_q0, _ = run_variant(train, valid, test, "qdf", cfg_q0)
    assert np.array_equal(model_df.weights, model_q0.weights)
    assert np.array_equal(model_df.bias, model_q0.bias)
    assert rep_df.metrics == rep_q0.metrics


def test_run_variant_modes():
    train, valid, test = split_three(ar_windows(seed=19, length=900))
    cfg = QdfConfig(epochs=4, batch_size=32, final_lr=0.01, eta=0.05,
                    outer_rounds=2, seed=19)
    _, _, w_diag = run_variant(train, valid, test, "qdf-diag", cfg)
    L = w_diag.factor
    assert np.all(np.tril(L, k=-1) == 0.0)
    _, _, w_off = run_variant(train, valid, test, "qdf-offdiag", cfg)
    L = w_off.factor
    assert np.all(np.diagonal(L) == 1.0)


def test_run_variant_rejects_unknown():
    train, valid, test = split_three(ar_windows(seed=19, length=300))
    with pytest.raises(ValueError):
        run_variant(train, valid, test, "mystery", QdfConfig())


def test_run_variant_never_reads_test_before_metrics():
    train, valid, test = split_three(ar_windows(seed=23, length=900))
    cfg = QdfConfig(epochs=3, batch_size=32, final_lr=0.01, eta=0.05,
                    outer_rounds=2, seed=23)
    run_variant(train, valid, test, "qdf", cfg)
    assert test.reads == 1  # exactly one read: metric evaluation


def test_run_variant_report_contents():
    train, valid, test = split_three(ar_windows(seed=29, length=900))
    cfg = QdfConfig(epochs=3, batch_size=32, final_lr=0.01, eta=0.05,
                    outer_rounds=2, seed=29)
    report, _, _ = run_variant(train, valid, test, "qdf", cfg)
    assert report.schema == 1
    assert report.sigma_path is None
    payload = json.loads(report.to_json())
    assert set(payload["timings_ms"]) == {
        "inner_fwd", "inner_bwd", "outer_fwd", "outer_bwd", "final_train"
    }
    assert payload["timings_ms"]["inner_fwd"] > 0
    assert payload["timings_ms"]["outer_bwd"] > 0
    assert payload["metrics"]["mse"] > 0
    assert payload["config"]["seed"] == 29


def test_run_variant_writes_no_file(tmp_path, monkeypatch):
    # the CLI writes --dump-sigma itself; run_variant only returns w
    assert "sigma_path" not in inspect.signature(run_variant).parameters
    monkeypatch.chdir(tmp_path)
    train, valid, test = split_three(ar_windows(seed=29, length=900))
    cfg = QdfConfig(epochs=3, batch_size=32, final_lr=0.01, eta=0.05,
                    outer_rounds=2, seed=29)
    run_variant(train, valid, test, "qdf", cfg)
    assert list(tmp_path.iterdir()) == []


def test_run_variant_deterministic_reruns():
    train, valid, test = split_three(ar_windows(seed=31, length=900))
    cfg = QdfConfig(epochs=3, batch_size=32, final_lr=0.01, eta=0.05,
                    outer_rounds=2, seed=31)
    rep1, m1, _ = run_variant(train, valid, test, "qdf", cfg)
    rep2, m2, _ = run_variant(train, valid, test, "qdf", cfg)
    assert rep1.metrics == rep2.metrics
    assert np.array_equal(m1.weights, m2.weights)


def test_qdf_stays_near_identity_on_white_noise():
    # no autocorrelation, equal variances: the hypergradient carries no
    # systematic signal, so the learned matrix should stay near identity
    frame = gen_ar(ArSpec((), 1.0, 4000, seed=37))
    ws = make_windows(frame, 8, 4)
    cfg = QdfConfig(k_splits=3, outer_rounds=3, inner_steps=1, inner_lr=0.02,
                    eta=0.05, seed=37)
    model = init_forecaster(8, 4, np.random.default_rng(37))
    w, _ = learn_weighting(ws, model, cfg)
    assert frobenius_distance(w.sigma, identity_params(4).sigma) < 0.1


def test_oracle_weighting_beats_mse_on_oracle_nll_smoke():
    # single-seed smoke version of the benchmark comparison
    H, T = 16, 8
    sched = ramp_noise_schedule(H, T, 1.0, 3.0)
    spec = ArSpec((0.6,), sched, 24 * 500, seed=41)
    frame = gen_ar(spec)
    ws = make_windows(frame, H, T, stride=H + T)
    from qdf.data import chrono_split

    train, valid, test = chrono_split(ws, [0.7, 0.1, 0.2])
    oracle = params_from_matrix(ar_conditional_cov(spec, T))
    cfg = QdfConfig(epochs=15, batch_size=64, final_lr=0.01, seed=41)
    model0 = init_forecaster(H, T, np.random.default_rng(41))

    m_oracle = train_final(train, oracle, model0, cfg, valid=valid,
                           rng=np.random.default_rng(1041))
    m_mse = train_final(train, identity_params(T), model0, cfg, valid=valid,
                        rng=np.random.default_rng(1041))
    nll_oracle = evaluate(m_oracle, test, oracle)["nll"]
    test2 = ws.slice(len(train) + len(valid), len(ws))
    nll_mse = evaluate(m_mse, test2, oracle)["nll"]
    assert nll_oracle <= nll_mse * 1.001


def test_report_save_round_trip(tmp_path):
    report = RunReport("df", 0, {"seed": 0}, {"mse": 1.0, "mae": 0.5, "nll": 1.0})
    path = tmp_path / "rep.json"
    report.save(path)
    loaded = json.loads(path.read_text())
    assert loaded["schema"] == 1 and loaded["variant"] == "df"


# ------------------------------------------------ guards of the lean loops

class RecordingAdam(AdamState):
    """AdamState that counts its updates and keeps its state after each finite one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0
        self.states = []

    def update(self, theta, grad, out=None):
        self.calls += 1
        new = super().update(theta, grad, out)
        self.states.append((self.t, self.m1.copy(), self.m2.copy()))
        return new


@pytest.mark.parametrize("optimizer, lr", [("sgd", 1e30), ("adam", 1e300)])
def test_train_final_divergence_raises_mid_epoch(optimizer, lr, monkeypatch):
    ws = ar_windows(seed=15, length=600)
    train, valid = ws.slice(0, 400), ws.slice(420, 500)
    cfg = QdfConfig(epochs=4, batch_size=8, final_lr=lr, final_optimizer=optimizer, seed=15)
    model0 = init_forecaster(ws.history, ws.horizon, np.random.default_rng(15))
    steps_per_epoch = -(-window_samples(train)[0].shape[0] // cfg.batch_size)
    sgd_calls, validations, adams = [], [], []

    def counted_sgd(*args, **kwargs):
        sgd_calls.append(args)
        return sgd_update(*args, **kwargs)

    def counted_loss(*args):
        validations.append(args)
        return moments_loss(*args)

    def recording_adam(*args, **kwargs):
        adams.append(RecordingAdam(*args, **kwargs))
        return adams[-1]

    monkeypatch.setattr(workflow, "sgd_update", counted_sgd)
    moments_loss = bilevel.Moments.loss_less_offset
    monkeypatch.setattr(bilevel.Moments, "loss_less_offset", counted_loss)
    monkeypatch.setattr(workflow, "AdamState", recording_adam)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match="model parameters must be finite") as err:
        train_final(train, identity_params(ws.horizon), model0, cfg,
                    valid=valid, rng=np.random.default_rng(15))
    assert err.value.exit_code == 4
    # the failing update raised at once: the first epoch never reached its end
    assert validations == []
    if optimizer == "adam":
        assert sgd_calls == []
        (opt,) = adams
        assert 1 < opt.calls < steps_per_epoch
        t, m1, m2 = opt.states[-1]
        assert opt.t == t == opt.calls - 1  # the failing update did not advance it
        assert np.array_equal(opt.m1, m1) and np.array_equal(opt.m2, m2)
    else:
        assert adams == []
        assert 1 < len(sgd_calls) < steps_per_epoch
