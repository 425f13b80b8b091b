import numpy as np
import pytest

from qdf.data import (
    ArSpec,
    SeriesFrame,
    ar_conditional_cov,
    chrono_split,
    cov_to_corr,
    gen_ar,
    gen_ar_frame,
    load_csv,
    ma_weights,
    make_windows,
    ramp_noise_schedule,
    standardize,
    write_csv,
)
from qdf.errors import (
    CsvParseError,
    InsufficientDataError,
    InvalidDimensionError,
    InvalidSplitError,
    UnstableSpecError,
)


def frame_of(values):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    return SeriesFrame(values, [f"v{j}" for j in range(values.shape[1])])


# ---------------------------------------------------------------- CSV I/O

def test_load_csv_minimal(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("v\n1.0\n2.0\n", encoding="utf-8")
    frame = load_csv(path)
    assert np.array_equal(frame.values, [[1.0], [2.0]])
    assert frame.names == ["v"]


def test_load_csv_skips_date_column(tmp_path):
    path = tmp_path / "dated.csv"
    path.write_text("date,a,b\n2020-01-01,1,2\n2020-01-02,3,4\n", encoding="utf-8")
    frame = load_csv(path, skip_first_column=True)
    assert frame.n_vars == 2
    assert np.array_equal(frame.values, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_parse_error_carries_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3,oops\n", encoding="utf-8")
    with pytest.raises(CsvParseError) as exc:
        load_csv(path)
    assert exc.value.row == 3 and exc.value.column == 2


def test_load_csv_ragged_row_carries_position(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n4,5\n", encoding="utf-8")
    with pytest.raises(CsvParseError) as exc:
        load_csv(path)
    assert exc.value.row == 3


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(CsvParseError):
        load_csv(tmp_path / "nope.csv")


def test_ett_style_truncation_window_count(tmp_path):
    rng = np.random.default_rng(0)
    rows = ["date," + ",".join(f"c{j}" for j in range(7))]
    for i in range(200):
        rows.append(f"t{i}," + ",".join(f"{v:.4f}" for v in rng.standard_normal(7)))
    path = tmp_path / "ett200.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    frame = load_csv(path, skip_first_column=True)
    assert frame.length == 200
    ws = make_windows(frame, 96, 96)
    assert len(ws) == 200 - 96 - 96 + 1 == 9


def test_write_csv_round_trip(tmp_path, rng):
    frame = frame_of(rng.standard_normal((20, 3)))
    path = tmp_path / "out.csv"
    write_csv(frame, path)
    back = load_csv(path)
    assert np.allclose(back.values, frame.values, atol=1e-15)


# ------------------------------------------------------------ standardize

def test_standardize_round_trip(rng):
    frame = frame_of(rng.standard_normal((50, 2)) * 4 + 7)
    out, stats = standardize(frame, (0, 30))
    assert np.allclose(out.values[:30].mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(out.values[:30].std(axis=0), 1.0, atol=1e-10)
    assert np.allclose(stats.invert(out.values), frame.values, atol=1e-10)


def test_standardize_constant_column_floored():
    frame = frame_of(np.column_stack([np.ones(10), np.arange(10.0)]))
    out, stats = standardize(frame)
    assert stats.floored == [0]
    assert np.allclose(out.values[:, 0], 0.0)


# --------------------------------------------------------------- windows

def test_window_count_formula_examples():
    assert len(make_windows(frame_of(np.arange(5.0)), 2, 1)) == 3
    assert len(make_windows(frame_of(np.arange(4.0)), 2, 2)) == 1


def test_first_window_contents():
    ws = make_windows(frame_of([1.0, 2.0, 3.0, 4.0, 5.0]), 2, 2)
    X, Y = ws.arrays()
    assert np.array_equal(X[0][:, 0], [1.0, 2.0])
    assert np.array_equal(Y[0][:, 0], [3.0, 4.0])


def test_window_count_formula_random(rng):
    for _ in range(50):
        H = int(rng.integers(1, 10))
        T = int(rng.integers(1, 10))
        N = H + T + int(rng.integers(0, 40))
        ws = make_windows(frame_of(rng.standard_normal(N)), H, T)
        assert len(ws) == N - H - T + 1


def test_windows_insufficient_data():
    with pytest.raises(InsufficientDataError):
        make_windows(frame_of([1.0, 2.0]), 2, 1)


@pytest.mark.parametrize("kwargs", [dict(stride=0), dict(stride=-2), dict(offset=-1)])
def test_windows_reject_bad_stride_or_offset(kwargs):
    with pytest.raises(InvalidDimensionError):
        make_windows(frame_of(np.arange(30.0)), 2, 2, **kwargs)


def test_strided_windows_alignment():
    ws = make_windows(frame_of(np.arange(30.0)), 2, 2, stride=4)
    assert np.array_equal(ws.starts, [0, 4, 8, 12, 16, 20, 24])


def test_window_reads_counter(rng):
    ws = make_windows(frame_of(rng.standard_normal(12)), 2, 2)
    assert ws.reads == 0
    ws.arrays()
    ws.as_samples()
    assert ws.reads == 2


# ----------------------------------------------------------------- splits

def test_chrono_split_windows_five_five(rng):
    ws = make_windows(frame_of(rng.standard_normal(13)), 2, 2)
    assert len(ws) == 10
    parts = chrono_split(ws, [0.5, 0.5])
    assert [len(p) for p in parts] == [5, 5]


def test_chrono_split_fractions_70_10_20(rng):
    ws = make_windows(frame_of(rng.standard_normal(103)), 2, 2)
    parts = chrono_split(ws, [0.7, 0.1, 0.2])
    assert [len(p) for p in parts] == [70, 10, 20]


def test_chrono_split_frame_straddlers_dropped(rng):
    frame = frame_of(rng.standard_normal(30))
    H, T = 4, 2
    whole = len(make_windows(frame, H, T))  # 25
    parts = chrono_split(frame, [0.5, 0.5])
    split_total = sum(len(make_windows(p, H, T)) for p in parts)
    assert split_total < whole
    assert split_total == whole - (H + T - 1)


def test_chrono_split_parts_disjoint_ordered(rng):
    frame = frame_of(rng.standard_normal(40))
    parts = chrono_split(frame, [0.25, 0.25, 0.5])
    assert [p.length for p in parts] == [10, 10, 20]
    rebuilt = np.concatenate([p.values for p in parts])
    assert np.array_equal(rebuilt, frame.values)


def test_chrono_split_zero_part_rejected(rng):
    ws = make_windows(frame_of(rng.standard_normal(6)), 2, 2)
    with pytest.raises(InvalidSplitError):
        chrono_split(ws, [0.9, 0.05, 0.05])


def test_chrono_split_bad_fractions(rng):
    frame = frame_of(rng.standard_normal(10))
    with pytest.raises(InvalidSplitError):
        chrono_split(frame, [0.5, 0.6])


# ------------------------------------------------------------- AR process

def test_gen_ar_deterministic():
    spec = ArSpec(coeffs=(0.5,), noise_std=1.0, length=500, seed=42)
    a = gen_ar(spec)
    b = gen_ar(spec)
    assert np.array_equal(a.values, b.values)


def test_gen_ar_white_noise_variance():
    spec = ArSpec(coeffs=(), noise_std=0.7, length=10000, seed=3)
    frame = gen_ar(spec)
    assert frame.values[:, 0].var() == pytest.approx(0.49, rel=0.05)


def test_gen_ar_lag1_autocorrelation():
    spec = ArSpec(coeffs=(0.5,), noise_std=1.0, length=10000, seed=11)
    y = gen_ar(spec).values[:, 0]
    rho = np.corrcoef(y[:-1], y[1:])[0, 1]
    assert rho == pytest.approx(0.5, abs=0.05)


def test_unstable_spec_rejected():
    with pytest.raises(UnstableSpecError):
        ArSpec(coeffs=(1.1,), noise_std=1.0, length=100, seed=0)
    with pytest.raises(UnstableSpecError):
        ArSpec(coeffs=(0.9, 0.2), noise_std=1.0, length=100, seed=0)


def test_gen_ar_frame_independent_columns():
    spec = ArSpec(coeffs=(0.5,), noise_std=1.0, length=4000, seed=5)
    frame = gen_ar_frame(spec, 2)
    assert frame.n_vars == 2
    rho = np.corrcoef(frame.values[:, 0], frame.values[:, 1])[0, 1]
    assert abs(rho) < 0.1


# ----------------------------------------------------------- AR cov oracle

def test_ma_weights_ar1():
    psi = ma_weights((0.5,), 4)
    assert np.allclose(psi, [1.0, 0.5, 0.25, 0.125])


def test_ar1_conditional_cov_example():
    spec = ArSpec(coeffs=(0.5,), noise_std=1.0, length=100, seed=0)
    cov = ar_conditional_cov(spec, 2)
    assert np.allclose(cov, [[1.0, 0.5], [0.5, 1.25]], atol=1e-12)


def test_white_noise_conditional_cov_is_identity():
    spec = ArSpec(coeffs=(), noise_std=1.0, length=100, seed=0)
    assert np.allclose(ar_conditional_cov(spec, 3), np.eye(3), atol=1e-12)


def test_ar1_implied_partial_correlation():
    spec = ArSpec(coeffs=(0.5,), noise_std=1.0, length=100, seed=0)
    corr = cov_to_corr(ar_conditional_cov(spec, 2))
    assert corr[0, 1] == pytest.approx(0.5 / np.sqrt(1.25), abs=1e-12)


def test_ramp_schedule_positions():
    sched = ramp_noise_schedule(3, 4, 1.0, 3.0)
    assert sched.shape == (7,)
    assert np.allclose(sched[:3], 1.0)
    assert np.allclose(sched[3:] ** 2, np.linspace(1.0, 3.0, 4))


def test_ramped_conditional_cov_diagonal_tracks_variances():
    H, T = 3, 4
    sched = ramp_noise_schedule(H, T, 1.0, 3.0)
    spec = ArSpec(coeffs=(), noise_std=sched, length=100, seed=0)
    cov = ar_conditional_cov(spec, T)
    assert np.allclose(np.diagonal(cov), np.linspace(1.0, 3.0, T), atol=1e-12)


def test_oracle_matches_ols_residual_covariance():
    # Empirical conditional covariance from OLS residuals vs the closed form.
    spec = ArSpec(coeffs=(0.6,), noise_std=1.0, length=20050, seed=9)
    frame = gen_ar(spec)
    T, H = 3, 4
    ws = make_windows(frame, H, T)
    X, Y = ws.as_samples()
    design = np.column_stack([np.ones(len(X)), X])
    coef, *_ = np.linalg.lstsq(design, Y, rcond=None)
    resid = Y - design @ coef
    emp = np.cov(resid.T)
    oracle = ar_conditional_cov(spec, T)
    mask = np.abs(oracle) > 0.05
    assert np.all(np.abs(emp[mask] - oracle[mask]) / np.abs(oracle[mask]) < 0.10)
