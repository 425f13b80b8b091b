import json

import numpy as np
import pytest

from qdf.bilevel import AtomicConfig, atomic_update, make_split_pair
from qdf.data import ArSpec, ar_conditional_cov, gen_ar, make_windows, ramp_noise_schedule
from qdf.errors import InvalidConfigError, InvalidSplitError
from qdf.model import forecast_batch, grad_params_batch, init_forecaster, sgd_step
from qdf.objective import ResidualBatch, grad_wrt_residual, quadratic_loss
from qdf.weighting import (
    WeightingParams,
    frobenius_distance,
    identity_params,
    materialize,
    params_from_matrix,
)
from qdf.workflow import (
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
    dict(batch_size=0), dict(final_optimizer="rmsprop"), dict(epochs=0), dict(patience=0),
    dict(final_lr=0.0), dict(final_lr=float("nan")), dict(inner_lr=-0.1), dict(eta=-1e-3),
    dict(tol=-1.0),
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(InvalidConfigError):
        QdfConfig(**bad)


# -------------------------------------------------------- learn_weighting

def test_learn_weighting_eta_zero_returns_identity(rng):
    ws = ar_windows()
    cfg = QdfConfig(k_splits=3, outer_rounds=5, eta=0.0, seed=1)
    model = init_forecaster(ws.history, ws.horizon, rng)
    w, trace = learn_weighting(ws, model, cfg)
    assert frobenius_distance(w, identity_params(ws.horizon)) == 0.0
    assert trace == [0.0]


def test_learn_weighting_k1_single_atomic_update(rng):
    ws = ar_windows(length=300)
    cfg = QdfConfig(k_splits=1, outer_rounds=1, inner_steps=1, inner_lr=0.02, eta=0.1, seed=3)
    model = init_forecaster(ws.history, ws.horizon, rng)
    w, trace = learn_weighting(ws, model, cfg)

    pair = make_split_pair(ws)
    expect, _ = atomic_update(
        model, identity_params(ws.horizon), pair,
        AtomicConfig(1, 0.02, 0.1, True),
    )
    assert np.array_equal(w.raw, expect.raw)
    assert len(trace) == 1


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

def reference_mse_training(train, valid, model, cfg, rng):
    """Plain MSE minibatch training re-implemented against raw arrays."""
    X, Y = train.as_samples()
    Xv, Yv = valid.as_samples()
    best, best_val, stale = model, np.inf, 0
    for _ in range(cfg.epochs):
        order = rng.permutation(X.shape[0])
        for lo in range(0, X.shape[0], cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            resid = Y[idx] - forecast_batch(model, X[idx])
            upstream = -(2.0 / idx.size) * resid
            grads = (upstream.T @ X[idx], upstream.sum(axis=0))
            model = sgd_step(model, grads, cfg.final_lr)
        val = float(np.sum((Yv - forecast_batch(model, Xv)) ** 2) / Xv.shape[0])
        if val < best_val:
            best, best_val, stale = model, val, 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    return best


def test_train_final_identity_matches_mse_training_bitwise():
    ws = ar_windows(seed=11, length=600)
    train, valid = ws.slice(0, 400), ws.slice(420, 500)
    cfg = QdfConfig(epochs=8, batch_size=32, final_lr=0.01, seed=11)
    model0 = init_forecaster(ws.history, ws.horizon, np.random.default_rng(11))

    got = train_final(train, identity_params(ws.horizon), model0, cfg,
                      valid=valid, rng=np.random.default_rng(99))
    want = reference_mse_training(train, valid, model0, cfg, np.random.default_rng(99))
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.bias, want.bias)


def reference_weighted_training(train, valid, w, model, cfg, rng):
    """Minibatch training under w built from the grad_wrt_residual oracle."""
    X, Y = train.as_samples()
    Xv, Yv = valid.as_samples()
    best, best_val, stale = model, np.inf, 0
    for _ in range(cfg.epochs):
        order = rng.permutation(X.shape[0])
        for lo in range(0, X.shape[0], cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            resid = ResidualBatch(Y[idx] - forecast_batch(model, X[idx]))
            upstream = -grad_wrt_residual(resid, w)
            model = sgd_step(model, grad_params_batch(model, X[idx], upstream), cfg.final_lr)
        val = quadratic_loss(ResidualBatch(Yv - forecast_batch(model, Xv)), w)
        if val < best_val:
            best, best_val, stale = model, val, 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    return best


def test_train_final_nondiagonal_sigma_matches_oracle_training():
    ws = ar_windows(seed=12, length=600)
    train, valid = ws.slice(0, 400), ws.slice(420, 500)
    rng = np.random.default_rng(12)
    w = WeightingParams(rng.uniform(-0.5, 0.5, (ws.horizon, ws.horizon)), ws.horizon)
    assert np.count_nonzero(np.tril(materialize(w)[0], k=-1)) > 0
    cfg = QdfConfig(epochs=8, batch_size=32, final_lr=0.01, seed=12)
    model0 = init_forecaster(ws.history, ws.horizon, rng)

    got = train_final(train, w, model0, cfg, valid=valid, rng=np.random.default_rng(98))
    want = reference_weighted_training(train, valid, w, model0, cfg,
                                       np.random.default_rng(98))
    assert not np.array_equal(got.weights, model0.weights)
    assert np.max(np.abs(got.weights - want.weights)) <= 1e-12
    assert np.max(np.abs(got.bias - want.bias)) <= 1e-12


def test_train_final_fits_noiseless_linear_process(rng):
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
    cfg = QdfConfig(epochs=400, batch_size=64, final_lr=0.1, patience=400, seed=0)
    model0 = init_forecaster(H, T, rng)
    model = train_final(train, w, model0, cfg, valid=valid, rng=rng)
    X, Y = train.as_samples()
    final = quadratic_loss(ResidualBatch(Y - forecast_batch(model, X)), w)
    assert final < 1e-6


def test_train_final_adam_option_runs():
    ws = ar_windows(seed=13, length=400)
    train, valid = ws.slice(0, 250), ws.slice(260, 330)
    cfg = QdfConfig(epochs=5, batch_size=32, final_lr=1e-3, final_optimizer="adam", seed=13)
    model0 = init_forecaster(ws.history, ws.horizon, np.random.default_rng(13))
    model = train_final(train, identity_params(ws.horizon), model0, cfg,
                        valid=valid, rng=np.random.default_rng(13))
    assert np.all(np.isfinite(model.weights))


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
    L, _ = materialize(w_diag)
    assert np.all(np.tril(L, k=-1) == 0.0)
    _, _, w_off = run_variant(train, valid, test, "qdf-offdiag", cfg)
    L, _ = materialize(w_off)
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


def test_run_variant_report_contents(tmp_path):
    train, valid, test = split_three(ar_windows(seed=29, length=900))
    cfg = QdfConfig(epochs=3, batch_size=32, final_lr=0.01, eta=0.05,
                    outer_rounds=2, seed=29)
    sigma_path = tmp_path / "sigma.csv"
    report, _, _ = run_variant(train, valid, test, "qdf", cfg, sigma_path=sigma_path)
    assert report.schema == 1
    assert sigma_path.exists()
    payload = json.loads(report.to_json())
    assert set(payload["timings_ms"]) == {
        "inner_fwd", "inner_bwd", "outer_fwd", "outer_bwd", "final_train"
    }
    assert payload["timings_ms"]["inner_fwd"] > 0
    assert payload["timings_ms"]["outer_bwd"] > 0
    assert payload["metrics"]["mse"] > 0
    assert payload["config"]["seed"] == 29


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
    assert frobenius_distance(w, identity_params(4)) < 0.1


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
