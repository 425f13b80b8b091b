import numpy as np
import pytest

import qdf.bench
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
from qdf.errors import InvalidConfigError, QdfError
from qdf.workflow import VARIANTS


@pytest.fixture(autouse=True)
def no_held_realizations():
    """Each test starts and ends with no realization held, whatever ran before."""
    qdf.bench._held.clear()
    yield
    qdf.bench._held.clear()


@pytest.fixture
def gen_ar_calls(monkeypatch):
    """Specs passed to gen_ar, in call order."""
    calls = []
    real = qdf.bench.gen_ar

    def counted(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(qdf.bench, "gen_ar", counted)
    return calls


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


def test_variants_share_data_realization_per_seed(gen_ar_calls):
    a = benchmark_data("white", seed=2, n_windows=100)
    b = benchmark_data("white", seed=2, n_windows=100)
    Xa, Ya = a.train.arrays()
    Xb, Yb = b.train.arrays()
    assert np.array_equal(Xa, Xb) and np.array_equal(Ya, Yb)
    # drawn once, but each call gets its own windows and read counters
    assert len(gen_ar_calls) == 1
    assert a.train is not b.train and a.train.reads == b.train.reads == 1
    a.test.arrays()
    assert a.test.reads == 1 and b.test.reads == 0


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


@pytest.mark.parametrize("order", ["preset-seed-variant", "preset-variant-seed"])
def test_per_cell_run_matrix_draws_each_realization_once(order, gen_ar_calls):
    presets, seeds = ["white", "ramp-only"], [0, 1]
    for preset in presets:
        if order == "preset-seed-variant":
            cells = [(seed, variant) for seed in seeds for variant in VARIANTS]
        else:
            cells = [(seed, variant) for variant in VARIANTS for seed in seeds]
        for seed, variant in cells:
            (report,) = run_matrix([preset], [variant], [seed], n_windows=60)
            assert report.config["preset"] == preset and report.config["seed"] == seed
    assert [(s.seed, s.length) for s in gen_ar_calls] == [(0, 1464), (1, 1464)] * 2
    assert [s.order for s in gen_ar_calls] == [0, 0, HISTORY, HISTORY]


def test_per_cell_run_matrix_matches_one_all_variant_call():
    seeds = [0, 1]
    whole = run_matrix(["ramp-only"], list(VARIANTS), seeds, n_windows=80)
    qdf.bench._held.clear()
    cells = [
        report
        for seed in seeds
        for variant in reversed(VARIANTS)
        for report in run_matrix(["ramp-only"], [variant], [seed], n_windows=80)
    ]

    def key(r):
        return r.config["seed"], r.variant

    assert sorted(map(key, whole)) == sorted(map(key, cells))
    by_cell = {key(r): r for r in cells}
    for r in whole:
        other = by_cell[key(r)]
        assert {k: float.hex(v) for k, v in r.metrics.items()} == {
            k: float.hex(v) for k, v in other.metrics.items()
        }


def test_switching_preset_or_length_drops_held_realizations(gen_ar_calls):
    benchmark_data("white", seed=0, n_windows=50)
    benchmark_data("white", seed=1, n_windows=50)
    benchmark_data("white", seed=0, n_windows=50)
    assert len(gen_ar_calls) == 2
    benchmark_data("ramp-only", seed=0, n_windows=50)
    benchmark_data("white", seed=0, n_windows=50)
    assert len(gen_ar_calls) == 4
    benchmark_data("white", seed=0, n_windows=60)
    benchmark_data("white", seed=0, n_windows=50)
    assert len(gen_ar_calls) == 6
    assert [(s.seed, s.length) for s in gen_ar_calls[2:]] == [
        (0, 1224), (0, 1224), (0, 1464), (0, 1224)
    ]
    assert len(qdf.bench._held) == 1


def test_unknown_preset_keeps_the_held_realizations(gen_ar_calls):
    benchmark_data("white", seed=0, n_windows=50)
    with pytest.raises(InvalidConfigError, match="unknown preset"):
        benchmark_data("nope", seed=0, n_windows=50)
    assert ("nope", 50) not in qdf.bench._held
    benchmark_data("white", seed=0, n_windows=50)
    assert len(gen_ar_calls) == 1


@pytest.mark.parametrize("presets, variants", [(["nope"], ["df"]), (["white"], ["nope"])],
                         ids=["preset", "variant"])
def test_run_matrix_rejects_unknown_name_with_exit_code_3(presets, variants):
    with pytest.raises(QdfError) as info:
        run_matrix(presets, variants, [0], n_windows=50)
    assert info.value.exit_code == 3
