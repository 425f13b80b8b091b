import json
import logging
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import _fit_residuals, cov_to_corr, partial_correlation, window_samples
from qdf import data, diagnostics
from qdf.data import (
    ArSpec,
    SeriesFrame,
    WindowSet,
    ar_conditional_cov,
    gen_ar,
    gen_ar_frame,
    load_csv,
    make_windows,
    write_csv,
)
from qdf.diagnostics import (
    VAR_EPS,
    PartialCorrReport,
    fraction_above,
    partial_corr_matrix,
)
from qdf.cli import main
from qdf.errors import (
    InsufficientDataError,
    InvalidConfigError,
    InvalidDimensionError,
    NumericError,
    UndefinedCorrelationError,
)


def naive_partial_corr(windows, t, t2, variable=0):
    """Independent oracle: two separate per-pair OLS fits, then Pearson."""
    X, Y = windows.arrays()
    hist = X[:, :, variable]
    design = np.column_stack([np.ones(len(hist)), hist])

    def resid_of(col):
        coef, *_ = np.linalg.lstsq(design, col, rcond=None)
        return col - design @ coef

    r1 = resid_of(Y[:, t, variable])
    r2 = resid_of(Y[:, t2, variable])
    return float(np.corrcoef(r1, r2)[0, 1])


def test_independent_noise_coefficient_shrinks():
    # labels driven by mean(history) plus independent per-step noise
    rng = np.random.default_rng(0)
    n, H, T = 5000, 4, 3
    base = rng.standard_normal((n, H))
    labels = 0.8 * base.mean(axis=1, keepdims=True) + rng.standard_normal((n, T))
    from qdf.data import WindowSet

    starts = np.arange(n) * (H + T)
    ws = WindowSet(base[:, :, None], labels[:, :, None], starts)
    rho = partial_correlation(ws, 0, 2)
    assert abs(rho) < 0.05


def test_ar1_partial_correlation_closed_form():
    spec = ArSpec((0.5,), 1.0, 5000 + 8 + 2 - 1, seed=101)
    frame = gen_ar(spec)
    ws = make_windows(frame, 8, 2)
    assert len(ws) == 5000
    rho = partial_correlation(ws, 0, 1)
    assert rho == pytest.approx(0.5 / np.sqrt(1.25), abs=0.05)


def test_same_step_rejected():
    frame = gen_ar(ArSpec((0.5,), 1.0, 100, seed=1))
    ws = make_windows(frame, 4, 3)
    with pytest.raises(InvalidDimensionError):
        partial_correlation(ws, 1, 1)
    with pytest.raises(InvalidDimensionError):
        partial_correlation(ws, 0, 7)


def test_too_few_samples_rejected():
    frame = gen_ar(ArSpec((), 1.0, 14, seed=1))
    ws = make_windows(frame, 8, 4)  # 3 windows < H+3
    with pytest.raises(InsufficientDataError):
        partial_correlation(ws, 0, 1)


def test_zero_residual_variance_rejected():
    # labels perfectly determined by the history
    rng = np.random.default_rng(2)
    n, H, T = 50, 3, 2
    X = rng.standard_normal((n, H))
    Y = np.column_stack([X.sum(axis=1), X[:, 0]])
    from qdf.data import WindowSet

    ws = WindowSet(X[:, :, None], Y[:, :, None], np.arange(n) * (H + T))
    with pytest.raises(UndefinedCorrelationError):
        partial_correlation(ws, 0, 1)


def test_matrix_matches_naive_oracle():
    spec = ArSpec((0.7, -0.2), 1.0, 230, seed=7)
    frame = gen_ar(spec)
    H, T = 5, 6
    report = partial_corr_matrix(frame, H, T, subsample=10**9)
    ws = make_windows(frame, H, T)
    for t in range(T):
        for t2 in range(t + 1, T):
            want = naive_partial_corr(ws, t, t2)
            assert report.matrix[t, t2] == pytest.approx(want, abs=1e-10)


def test_matrix_invariants(rng):
    frame = gen_ar(ArSpec((0.5,), 1.0, 2000, seed=13))
    report = partial_corr_matrix(frame, 6, 5)
    M = report.matrix
    assert np.array_equal(M, M.T)
    assert np.allclose(np.diagonal(M), 1.0)
    assert np.all((M >= -1.0) & (M <= 1.0))
    assert np.all(report.cond_var >= 0.0)


def test_matrix_converges_to_oracle_correlation():
    spec = ArSpec((0.5,), 1.0, 5200, seed=17)
    frame = gen_ar(spec)
    T = 4
    report = partial_corr_matrix(frame, 8, T, subsample=5000)
    implied = cov_to_corr(ar_conditional_cov(spec, T))
    assert np.max(np.abs(report.matrix - implied)) < 0.05


def test_white_noise_matrix_mostly_below_005():
    frame = gen_ar(ArSpec((), 1.0, 5200, seed=19))
    report = partial_corr_matrix(frame, 8, 12, subsample=5000)
    frac = fraction_above(report, 0.05)
    assert 1.0 - frac >= 0.95


def test_ar_08_superdiagonal_decays():
    spec = ArSpec((0.8,), 1.0, 5200, seed=23)
    frame = gen_ar(spec)
    report = partial_corr_matrix(frame, 8, 6, subsample=5000)
    first_row = report.matrix[0, 1:]
    assert np.all(first_row > 0)
    assert np.all(np.diff(first_row) < 0)


def test_subsample_clamps_and_records():
    frame = gen_ar(ArSpec((0.5,), 1.0, 300, seed=29))
    report = partial_corr_matrix(frame, 4, 3, subsample=10**6)
    assert report.meta["windows"] == 300 - 4 - 3 + 1


@pytest.mark.parametrize("kwargs", [
    {"subsample": 100.5}, {"seed": 1.5}, {"variable": 0.5}, {"seed": True},
], ids=["float-subsample", "float-seed", "float-variable", "bool-seed"])
def test_non_integer_arguments_raise_config_errors(kwargs):
    # a float subsample or seed raised TypeError, and variable=0.5 IndexError
    frame = gen_ar(ArSpec((0.5,), 1.0, 300, seed=29))
    with pytest.raises(InvalidConfigError, match="must be an integer"):
        partial_corr_matrix(frame, 4, 3, **kwargs)


def test_subsampling_deterministic():
    frame = gen_ar(ArSpec((0.5,), 1.0, 3000, seed=31))
    a = partial_corr_matrix(frame, 4, 3, subsample=500, seed=5)
    b = partial_corr_matrix(frame, 4, 3, subsample=500, seed=5)
    assert np.array_equal(a.matrix, b.matrix)


def test_pooled_multivariate_estimate():
    spec = ArSpec((0.5,), 1.0, 3000, seed=37)
    frame = gen_ar_frame(spec, 3)
    pooled = partial_corr_matrix(frame, 6, 2, subsample=5000)
    assert pooled.meta["variable"] == "pooled"
    assert pooled.meta["samples"] == pooled.meta["windows"] * 3
    single = partial_corr_matrix(frame, 6, 2, subsample=5000, variable=1)
    assert single.meta["samples"] == single.meta["windows"]
    implied = 0.5 / np.sqrt(1.25)
    assert pooled.matrix[0, 1] == pytest.approx(implied, abs=0.05)


@pytest.mark.parametrize("subsample", [300, 10**9], ids=["subsampled", "all"])
def test_variable_is_the_pooled_fit_of_its_column(subsample):
    # each column at its own level, so the level taken off is the column's
    spec = ArSpec((0.5,), 1.0, 1500, seed=41)
    values = gen_ar_frame(spec, 3).values + np.array([0.0, 40.0, -2500.0])
    frame = SeriesFrame(values, ["a", "b", "c"])
    for v in range(3):
        got = partial_corr_matrix(frame, 5, 6, subsample=subsample, variable=v, seed=2)
        column = SeriesFrame(np.array(values[:, v:v + 1]), [frame.names[v]])
        want = partial_corr_matrix(column, 5, 6, subsample=subsample, seed=2)
        assert np.array_equal(got.matrix, want.matrix)
        assert np.array_equal(got.cond_var, want.cond_var)
        assert got.flags == want.flags
        assert got.meta == {**want.meta, "variable": v}
        assert want.meta["variable"] == "pooled"


def test_pooled_matrix_keeps_one_live_label_block():
    # the subsampled labels (n*D x T float64) are about 6 MB here; the copies
    # made on the way to the correlations must not stack up beyond 3 of them
    n, D, T = 2000, 8, 48
    frame = gen_ar_frame(ArSpec((0.5,), 1.0, 4000, seed=11), D)
    tracemalloc.start()
    try:
        report = partial_corr_matrix(frame, 8, T, subsample=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.meta["samples"] == n * D
    assert peak <= 3 * n * D * T * 8


def test_rank_deficient_design_ridge_fallback():
    # constant history columns are collinear with the intercept; the fit
    # falls back to ridge and still returns a valid coefficient
    rng = np.random.default_rng(3)
    n, H, T = 60, 4, 3
    X = np.ones((n, H))
    Y = rng.standard_normal((n, T))
    from qdf.data import WindowSet

    ws = WindowSet(X[:, :, None], Y[:, :, None], np.arange(n) * (H + T))
    rho = partial_correlation(ws, 0, 1)
    assert -1.0 <= rho <= 1.0


def lstsq_residuals(design, labels):
    coef, _, rank, _ = np.linalg.lstsq(design, labels, rcond=None)
    return labels - design @ coef, rank


@pytest.mark.parametrize("rows,cols,labels", [
    (20, 1, 1), (50, 5, 96), (400, 9, 96), (1000, 17, 40),
])
def test_fit_residuals_match_lstsq_on_full_rank_designs(rows, cols, labels):
    rng = np.random.default_rng(rows + cols)
    for scale in (1e-3, 1.0, 1e4):
        design = np.column_stack([np.ones(rows), scale * rng.standard_normal((rows, cols - 1))])
        Y = rng.standard_normal((rows, labels)) + design @ rng.standard_normal((cols, labels))
        want, rank = lstsq_residuals(design, Y)
        assert rank == cols
        flags = []
        got = _fit_residuals(design, Y, flags)
        assert flags == []
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(Y).max())


def test_fit_residuals_find_lstsq_rank_on_collinear_designs(caplog):
    rng = np.random.default_rng(4)
    base = np.column_stack([np.ones(300), rng.standard_normal((300, 6))])
    designs = [
        np.column_stack([base, base[:, 1]]),  # a repeated column
        np.column_stack([base, 2 * base[:, 2] - 3 * base[:, 5] + 1]),  # a combination
        np.column_stack([base[:, :3], base[:, 1:3], base[:, 1:3]]),  # rank 3 of 7
        np.column_stack([np.ones(300), np.ones((300, 4))]),  # constant history
    ]
    Y = rng.standard_normal((300, 5))
    for design in designs:
        _, rank = lstsq_residuals(design, Y)
        assert rank < design.shape[1]
        flags = []
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="qdf.diagnostics"):
            _fit_residuals(design, Y, flags)
        assert flags == ["ridge_fallback"]
        assert f"(rank {rank} < {design.shape[1]})" in caplog.text


@pytest.mark.parametrize("series", [
    np.full(300, 2.0),  # every history column repeats the intercept
    0.5 * np.arange(300.0) - 7,  # every history column is the first plus a constant
], ids=["constant", "linear"])
def test_collinear_history_matrix_flags_ridge_fallback(series):
    # the labels are exact functions of the history too, so every step is dead
    H, T = 4, 3
    report = partial_corr_matrix(SeriesFrame(series[:, None], ["y"]), H, T)
    assert report.flags == ["ridge_fallback"] + [f"zero_variance_step_{t}" for t in range(T)]
    assert np.array_equal(report.matrix, np.eye(T))


def test_svd_that_does_not_converge_exits_4(monkeypatch, tmp_path, capsys):
    # the blockwise QR of the design and the SVD of its R factor alike
    path = tmp_path / "s.csv"
    write_csv(gen_ar(ArSpec((0.5,), 1.0, 300, seed=3)), path)
    for name in ("svd", "qr"):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError(f"{name} did not converge")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, name, no_convergence)
            with pytest.raises(NumericError, match=f"{name} did not converge"):
                partial_corr_matrix(load_csv(path), 4, 3)
            code = main(["diagnose", "--data", str(path), "--reg-history", "4",
                         "--horizon", "3", "--out-prefix", str(tmp_path / "d")])
        assert code == 4, name
        err = json.loads(capsys.readouterr().err)
        assert set(err) == {"error"} and err["error"]["type"] == "NumericError", name
        assert name in err["error"]["message"]
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"], name


def test_overflowing_residuals_raise_numeric_error():
    # at 1e200 scale the residual variances overflow: the JSON summary would
    # meet inf or nan
    values = 1e200 * np.random.default_rng(0).standard_normal((400, 1))
    with pytest.raises(NumericError, match="not finite"), np.errstate(all="ignore"):
        partial_corr_matrix(SeriesFrame(values, ["y"]), history=8, horizon=4)


def test_fraction_above_examples():
    eye = PartialCorrReport(np.eye(4), np.ones(4), {})
    assert fraction_above(eye, 0.1) == 0.0
    allhalf = PartialCorrReport(np.full((4, 4), 0.5) + 0.5 * np.eye(4), np.ones(4), {})
    assert fraction_above(allhalf, 0.1) == 1.0
    m = np.eye(4)
    pairs = [(0, 1), (0, 2), (1, 3)]  # 3 of 6 pairs above: fraction 0.5
    for i, j in pairs:
        m[i, j] = m[j, i] = 0.3
    mixed = PartialCorrReport(m, np.ones(4), {})
    assert fraction_above(mixed, 0.1) == 0.5


def test_fraction_above_rejects_thresholds_outside_unit_interval():
    report = PartialCorrReport(np.eye(3), np.ones(3), {})
    for threshold in (float("nan"), -1.0, -1e-9, 1.0 + 1e-9, float("inf")):
        with pytest.raises(InvalidConfigError, match="threshold"):
            fraction_above(report, threshold)
    assert fraction_above(report, 0.0) == 0.0
    assert fraction_above(report, 1.0) == 0.0


def full_buffer_partial_corr(frame, history, horizon, subsample, variable=None, seed=0):
    """The matrix from whole samples x T label and residual arrays: the
    residual labels - U (U^T labels), centred and normalised, then z^T z."""
    windows = make_windows(frame, history, horizon)
    n = len(windows)
    X, Y = windows.arrays()
    if subsample < n:
        keep = np.sort(np.random.default_rng(seed).choice(n, size=subsample, replace=False))
        X, Y = X[keep], Y[keep]
    if variable is None:
        hist, labels = window_samples(WindowSet(X, Y, np.arange(len(X))))
    else:
        hist, labels = X[:, :, variable], Y[:, :, variable]
    samples = len(labels)
    flags = []
    z = _fit_residuals(np.column_stack([np.ones(samples), hist]), labels, flags)
    z -= z.mean(axis=0)
    sumsq = np.einsum("ij,ij->j", z, z)
    z /= np.maximum(np.sqrt(sumsq), np.sqrt(VAR_EPS * samples))
    corr = z.T @ z
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    dead = sumsq / samples < VAR_EPS
    flags += [f"zero_variance_step_{t}" for t in np.nonzero(dead)[0]]
    corr[dead, :] = 0.0
    corr[:, dead] = 0.0
    np.fill_diagonal(corr, 1.0)
    meta = {"history": history, "horizon": horizon, "samples": samples, "windows": len(X),
            "variable": "pooled" if variable is None else variable, "subsample": subsample}
    return corr, sumsq / samples, flags, meta


def ridge_series():
    # every history is constant, so the design has rank 1 or 2: the last T
    # rows are noise, which reaches every label step of the last windows
    values = np.tile([2.0, -1.0], (40, 1))
    values[-5:] = np.random.default_rng(43).standard_normal((5, 2))
    return SeriesFrame(values, ["a", "b"])


def assert_matches_full_buffer(frame, history, horizon, subsample, variable, tol=1e-12):
    report = partial_corr_matrix(frame, history, horizon, subsample=subsample,
                                 variable=variable, seed=3)
    corr, cond_var, flags, meta = full_buffer_partial_corr(
        frame, history, horizon, subsample, variable, seed=3)
    np.testing.assert_allclose(report.matrix, corr, rtol=0, atol=tol)
    np.testing.assert_allclose(report.cond_var, cond_var, rtol=tol)
    assert report.flags == flags
    assert report.meta == meta
    return report


@pytest.mark.parametrize("variable", [None, 1])
@pytest.mark.parametrize("windows", [5, 7, 22, None], ids=["under-one-block", "one-block",
                                                              "three-blocks-plus-one", "all-29"])
def test_blocked_passes_match_full_buffer_formula(monkeypatch, windows, variable):
    # blocks of 7 windows; the frame has 29 = 4 * 7 + 1 windows in all
    monkeypatch.setattr(diagnostics, "BLOCK_WINDOWS", 7)
    H, T = 2, 4
    frame = gen_ar_frame(ArSpec((0.6,), 1.0, 29 + H + T - 1, seed=41), 3)
    report = assert_matches_full_buffer(frame, H, T, windows or 10**9, variable)
    assert report.meta["windows"] == (windows or 29)


@pytest.mark.parametrize("variable", [None, 2])
@pytest.mark.parametrize("subsample", [600, 10**9], ids=["subsampled", "all-windows"])
def test_default_blocks_match_full_buffer_formula(subsample, variable):
    frame = gen_ar_frame(ArSpec((0.5,), 1.0, 1000, seed=47), 3)
    report = assert_matches_full_buffer(frame, 8, 24, subsample, variable)
    assert report.meta["windows"] > diagnostics.BLOCK_WINDOWS


@pytest.mark.parametrize("variable", [None, 0])
@pytest.mark.parametrize("block", [4, 256])
def test_ridge_fallback_matches_full_buffer_formula(monkeypatch, block, variable):
    monkeypatch.setattr(diagnostics, "BLOCK_WINDOWS", block)
    report = assert_matches_full_buffer(ridge_series(), 4, 5, 10**9, variable)
    assert report.flags == ["ridge_fallback"]
    assert np.all(report.cond_var > 0.05)


def test_pooled_matrix_holds_no_samples_by_horizon_array():
    # every window, pooled: the labels or residuals as one samples x T float64
    # array would take more than the whole traced peak
    H, T, D = 8, 96, 4
    frame = gen_ar_frame(ArSpec((0.5,), 1.0, 3000, seed=53), D)
    tracemalloc.start()
    try:
        report = partial_corr_matrix(frame, H, T, subsample=10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    samples = (3000 - H - T + 1) * D
    assert report.meta["samples"] == samples
    assert peak < samples * T * 8


@pytest.mark.parametrize("variable", [None, 1])
@pytest.mark.parametrize("offset,tol", [(0.0, 1e-12), (1e2, 1e-12), (1e4, 1e-12), (1e6, 1e-9)])
def test_offset_series_match_full_buffer_formula(monkeypatch, offset, tol, variable):
    # the intercept absorbs a constant offset, which makes the design ill
    # conditioned: cond(D) grows with the offset.  The fit takes the frame's
    # mean off every value and carries the labels through the blockwise QR,
    # so no normal equations are solved; the gap left is the full-buffer SVD
    # fit's own rounding of the offset design, which grows with the offset:
    # measured 3.1e-13 at 1e4 and 3.7e-11 at 1e6
    monkeypatch.setattr(diagnostics, "BLOCK_WINDOWS", 16)
    base = gen_ar_frame(ArSpec((0.6,), 1.0, 400, seed=59), 3)
    frame = SeriesFrame(base.values + offset, base.names)
    report = assert_matches_full_buffer(frame, 6, 8, 10**9, variable, tol)
    assert report.flags == []


@pytest.mark.parametrize("variable", [None, 1])
@pytest.mark.parametrize("level", [1e4, 1e6])
def test_common_level_matches_the_series_without_it(level, variable):
    # (x + level) - level is exact (Sterbenz), so the lowered frame holds the
    # series without its level, and its fit is the exact-shift reference.
    # Unless the fit takes the level off, the raised frame's design
    # [1 | history] is ill conditioned: at 1e6 its rank count falls short
    for seed in (67, 71):
        base = gen_ar_frame(ArSpec((0.6,), 1.0, 1200, seed=seed), 3)
        raised = SeriesFrame(base.values + level, base.names)
        lowered = SeriesFrame(raised.values - level, base.names)
        for H, T in [(2, 4), (8, 24)]:
            got = partial_corr_matrix(raised, H, T, subsample=10**9, variable=variable)
            want = partial_corr_matrix(lowered, H, T, subsample=10**9, variable=variable)
            assert got.flags == want.flags == []
            np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=2e-14)
            np.testing.assert_allclose(got.cond_var, want.cond_var, rtol=2e-14)


def fraction_solve(A, B):
    """A^-1 B by Gauss-Jordan elimination in exact rationals."""
    n = len(A)
    M = [[Fraction(v) for v in [*A[i], *B[i]]] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[p] = M[p], M[c]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c] / M[c][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return np.array([[v / M[i][i] for v in M[i][n:]] for i in range(n)], dtype=object)


def exact_pooled_fit(frame, history, horizon):
    """Matrix and variances of the pooled fit from the residual Gram
    S = Y^T Y - (D^T Y)^T (D^T D)^-1 D^T Y in exact rationals, for values on
    the 2^-20 grid: scaled by 2^20, D and Y hold integers."""
    hist, labels = window_samples(make_windows(frame, history, horizon))
    scale = 2**20
    D = (np.column_stack([np.ones(len(hist)), hist]) * scale).astype(np.int64).astype(object)
    Y = (labels * scale).astype(np.int64).astype(object)
    cross = D.T @ Y
    S = Y.T @ Y - cross.T @ fraction_solve(D.T @ D, cross)
    sumsq = np.array([float(v) for v in np.diagonal(S)])
    corr = np.array([[float(v) for v in row] for row in S]) / np.sqrt(np.outer(sumsq, sumsq))
    return corr, sumsq / scale**2 / len(hist)


@pytest.mark.parametrize("seed", [73, 79])
@pytest.mark.parametrize("H,T", [(2, 3), (2, 4), (4, 3), (4, 4)])
def test_pooled_mixed_levels_match_exact_rational_fit(H, T, seed):
    # one pooled intercept for columns at +1e4, -1e4 and 0: no one constant
    # takes the levels off, so the design stays ill conditioned.  On the 2^-20
    # grid the levels add exactly, and the reference is exact
    base = gen_ar_frame(ArSpec((0.6,), 1.0, 400, seed=seed), 3)
    values = np.round(base.values * 2**20) / 2**20 + [1e4, -1e4, 0.0]
    frame = SeriesFrame(values, base.names)
    corr, cond_var = exact_pooled_fit(frame, H, T)
    report = partial_corr_matrix(frame, H, T, subsample=10**9)
    assert report.flags == []
    np.testing.assert_allclose(report.matrix, corr, rtol=0, atol=1e-12)
    np.testing.assert_allclose(report.cond_var, cond_var, rtol=1e-12)


@pytest.mark.parametrize("variable", [None, 1])
def test_each_block_is_gathered_once(monkeypatch, variable):
    # 29 windows in blocks of 7: one reader pass, and each block's history
    # and labels gathered once each
    monkeypatch.setattr(diagnostics, "BLOCK_WINDOWS", 7)
    passes, blocks, gathered = [], [], []
    read, gather = WindowSet.sample_blocks, data._gather

    def counted_pass(self, *args):
        passes.append(self)
        for hist, labels in read(self, *args):
            blocks.append(len(labels) // self.n_vars)
            yield hist, labels

    def counted_gather(stack, idx, out):
        gathered.append(len(idx))
        return gather(stack, idx, out)

    monkeypatch.setattr(WindowSet, "sample_blocks", counted_pass)
    monkeypatch.setattr(data, "_gather", counted_gather)
    H, T = 2, 4
    frame = gen_ar_frame(ArSpec((0.6,), 1.0, 29 + H + T - 1, seed=41), 3)
    partial_corr_matrix(frame, H, T, subsample=10**9, variable=variable)
    assert len(passes) == 1 and passes[0].reads == 1
    assert blocks == [7, 7, 7, 7, 1]
    assert gathered == [7, 7, 7, 7, 7, 7, 7, 7, 1, 1]


def parent_partial_corr(frame, history, horizon, subsample, variable=None, seed=0):
    """The one-pass fit as it was before the window-block reader, kept as the
    byte-equality oracle: each block fancy-indexed out of the window views,
    Q (Q^T labels) taken off the whole block at once, and the subsample
    sorted with np.sort."""
    def samples(stack, rows, out):
        block = stack[rows].transpose(0, 2, 1)
        out = out[:block.size // stack.shape[1]]
        np.copyto(out.reshape(block.shape), block)
        return out

    if variable is not None:
        frame = SeriesFrame(frame.values[:, [variable]], [frame.names[variable]])
    windows = make_windows(frame, history, horizon)
    n = len(windows)
    if subsample < n:
        rows = np.sort(np.random.default_rng(seed).choice(n, size=subsample, replace=False))
    else:
        rows = np.arange(n)
    samples_n = len(rows) * windows.n_vars
    X, Y = windows.arrays()
    width = history + 1
    level = frame.values.mean()
    stack_rows = width + min(diagnostics.BLOCK_WINDOWS, len(rows)) * windows.n_vars
    stack = np.zeros((stack_rows, width))
    stack[width:, 0] = 1.0
    label_rows = np.zeros((stack_rows, horizon))
    fitted_rows = np.empty((stack_rows, horizon))
    flags = []
    gram = np.zeros((horizon, horizon))
    for lo in range(0, len(rows), diagnostics.BLOCK_WINDOWS):
        block = rows[lo:lo + diagnostics.BLOCK_WINDOWS]
        hist = samples(X, block, stack[width:, 1:])
        labels = samples(Y, block, label_rows[width:])
        hist -= level
        labels -= level
        m = width + len(labels)
        Q, R = np.linalg.qr(stack[:m])
        resid = label_rows[:m]
        proj = Q.T @ resid
        resid -= np.matmul(Q, proj, out=fitted_rows[:m])
        gram += resid.T @ resid
        stack[:width] = R
        label_rows[:width] = proj
    s = np.linalg.svd(R, compute_uv=False)
    rank = np.count_nonzero(s > np.finfo(float).eps * max(samples_n, width) * s[0])
    if rank < width:
        flags.append("ridge_fallback")
        coef = np.linalg.solve(R.T @ R + diagnostics.RIDGE_LAMBDA * np.eye(width), R.T @ proj)
        E = proj - R @ coef
        mean = R[0, 0] * E[0] / samples_n
        gram += E.T @ E - samples_n * np.outer(mean, mean)
    sumsq = np.maximum(np.diagonal(gram), 0.0)
    cond_var = sumsq / samples_n
    dead = cond_var < VAR_EPS
    scale = np.sqrt(np.maximum(sumsq, VAR_EPS * samples_n))
    corr = gram / np.outer(scale, scale)
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    flags += [f"zero_variance_step_{int(t)}" for t in np.nonzero(dead)[0]]
    corr[dead, :] = 0.0
    corr[:, dead] = 0.0
    np.fill_diagonal(corr, 1.0)
    return corr, cond_var, flags


def assert_byte_equal_to_parent(frame, history, horizon, subsample, variable, seed=0):
    report = partial_corr_matrix(frame, history, horizon, subsample=subsample,
                                 variable=variable, seed=seed)
    corr, cond_var, flags = parent_partial_corr(frame, history, horizon, subsample,
                                                variable, seed)
    assert report.matrix.tobytes() == corr.tobytes()
    assert report.cond_var.tobytes() == cond_var.tobytes()
    assert report.flags == flags
    return report


@pytest.mark.parametrize("variable", [None, 2])
@pytest.mark.parametrize("subsample", [205, 700, 10**9],
                         ids=["one-row-tail", "subsampled", "all-windows"])
@pytest.mark.parametrize("block", [7, 128])
def test_pass_is_byte_equal_to_the_parent_pass(monkeypatch, block, subsample, variable):
    # T = 96 puts several residual chunks of 85 rows in each block; with the
    # default blocks the subsample has runs of consecutive windows and gaps in
    # each.  205 = 128 + 77 windows of one variable leave a last block of
    # 9 + 77 = 86 rows, one past a chunk, which the chunk before takes in
    monkeypatch.setattr(diagnostics, "BLOCK_WINDOWS", block)
    frame = gen_ar_frame(ArSpec((0.5,), 1.0, 1400, seed=83), 3)
    for seed in (0, 5):
        assert_byte_equal_to_parent(frame, 8, 96, subsample, variable, seed)


@pytest.mark.parametrize("variable", [None, 0])
@pytest.mark.parametrize("subsample", [20, 10**9], ids=["subsampled", "all-windows"])
@pytest.mark.parametrize("block", [4, 128])
def test_ridge_fallback_is_byte_equal_to_the_parent_pass(monkeypatch, block, subsample,
                                                          variable):
    monkeypatch.setattr(diagnostics, "BLOCK_WINDOWS", block)
    report = assert_byte_equal_to_parent(ridge_series(), 4, 5, subsample, variable, seed=1)
    assert report.flags == ["ridge_fallback"]


def test_diagnose_shape_holds_no_second_label_block():
    # the diagnose benchmark's shape: 5000 of 20k windows, 8 variables, T = 96.
    # Beyond the one label buffer, the fit used to hold a fancy-indexed label
    # block and a whole-block product as large as it: 2.81 MB traced, against
    # 1.47 MB with the reader and the row-chunked product
    H, T, D = 8, 96, 8
    frame = gen_ar_frame(ArSpec((0.5,), 1.0, 20_000, seed=0), D)
    tracemalloc.start()
    try:
        report = partial_corr_matrix(frame, H, T, subsample=5000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.meta["samples"] == 5000 * D
    label_block = (H + 1 + diagnostics.BLOCK_WINDOWS * D) * T * 8
    assert peak < 2 * label_block


def pooled_fit_peak(rows, H, T, D):
    frame = gen_ar_frame(ArSpec((0.5,), 1.0, rows, seed=61), D)
    tracemalloc.start()
    try:
        report = partial_corr_matrix(frame, H, T, subsample=10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.meta["windows"] == rows - H - T + 1
    return peak, report.meta["samples"]


def test_pooled_fit_holds_no_design_sized_array():
    # every window, pooled, with T four times H: a whole samples x (H+1)
    # design, which the samples x T bound of the test above would let pass,
    # takes more than the whole traced peak
    H, T = 8, 32
    peak, samples = pooled_fit_peak(3000, H, T, 4)
    assert peak < samples * (H + 1) * 8


def test_pooled_fit_peak_does_not_grow_with_the_window_count():
    # twice the windows: the fit's arrays are per block or T x T, so the peak
    # grows by less than one label block (the index arrays of the windows
    # grow by 16 bytes a window)
    H, T, D = 8, 32, 4
    small, _ = pooled_fit_peak(3000, H, T, D)
    large, _ = pooled_fit_peak(6000, H, T, D)
    assert large - small < diagnostics.BLOCK_WINDOWS * D * T * 8


@pytest.mark.parametrize("series", [
    np.full(300, 2.0),
    0.5 * np.arange(300.0) - 7,
    np.sin(0.3 * np.arange(300.0)) + 0.5 * np.cos(0.7 * np.arange(300.0)) + 3e4,
], ids=["constant", "linear", "two-sines"])
@pytest.mark.parametrize("block", [16, 256])
def test_dead_step_variances_are_never_negative(monkeypatch, series, block):
    # the residuals are rounding noise.  Two sines follow an exact order-4
    # recursion, so at H = 4 the offset design has full rank and the Gram is a
    # sum of the blocks' squared residuals; the constant and linear series
    # take the ridge fallback, whose Gram subtracts the residuals' mean, a
    # difference of two rounding-sized numbers that the clamp keeps at 0
    monkeypatch.setattr(diagnostics, "BLOCK_WINDOWS", block)
    report = partial_corr_matrix(SeriesFrame(series[:, None], ["y"]), 4, 3)
    assert np.all(report.cond_var >= 0.0)
    assert np.all(report.cond_var < VAR_EPS)
