import numpy as np

from qdf.bench import (
    HISTORY,
    HORIZON,
    PRESET_CONFIG,
    PRESETS,
    aggregate,
    bench_config,
    benchmark_data,
    preset_spec,
    run_matrix,
)
from qdf.data import ar_conditional_cov


def test_presets_all_configured():
    assert set(PRESET_CONFIG) == set(PRESETS)


def test_ramp_only_oracle_is_diagonal_with_ramp():
    spec = preset_spec("ramp-only", seed=0)
    cov = ar_conditional_cov(spec, HORIZON)
    assert np.allclose(cov, np.diag(np.diagonal(cov)), atol=1e-12)
    assert np.allclose(np.diagonal(cov), np.linspace(1.0, 3.0, HORIZON), atol=1e-12)


def test_corr_only_oracle_has_unit_diagonal_factor():
    spec = preset_spec("corr-only", seed=0)
    cov = ar_conditional_cov(spec, HORIZON)
    L = np.linalg.cholesky(cov)
    assert np.allclose(np.diagonal(L), 1.0, atol=1e-12)
    assert np.abs(cov[0, 1]) > 0.3


def test_hetero_corr_oracle_has_both_factors():
    spec = preset_spec("hetero-corr", seed=0)
    cov = ar_conditional_cov(spec, HORIZON)
    diag = np.diagonal(cov)
    assert diag[-1] > 3 * diag[0]
    assert np.abs(cov[0, 1]) > 0.3


def test_benchmark_windows_aligned_and_disjoint():
    data = benchmark_data("white", seed=1, n_windows=120)
    span = HISTORY + HORIZON
    for ws in (data.train, data.valid, data.test):
        assert np.all(ws.starts % span == 0)
    assert data.train.coverage()[1] <= data.valid.coverage()[0]
    assert data.valid.coverage()[1] <= data.test.coverage()[0]


def test_variants_share_data_realization_per_seed():
    a = benchmark_data("white", seed=2, n_windows=100)
    b = benchmark_data("white", seed=2, n_windows=100)
    Xa, Ya = a.train.arrays()
    Xb, Yb = b.train.arrays()
    assert np.array_equal(Xa, Xb) and np.array_equal(Ya, Yb)


def test_run_matrix_cardinality_and_aggregate():
    reports = run_matrix(["white"], ["df", "qdf"], seeds=[0, 1], n_windows=100)
    assert len(reports) == 4
    rows = aggregate(reports)
    assert len(rows) == 2
    for row in rows:
        assert row["seeds"] == 2
        assert np.isfinite(row["mse_mean"]) and row["mse_std"] >= 0


def test_bench_config_applies_preset_overrides():
    cfg = bench_config(3, preset="ramp-only")
    assert cfg.epochs == PRESET_CONFIG["ramp-only"]["epochs"]
    assert cfg.seed == 3
