import csv
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dtbtrs

from conftest import cov_to_corr, window_samples
from qdf import data
from qdf.data import (
    ArSpec,
    SeriesFrame,
    ar_conditional_cov,
    chrono_split,
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
    InvalidConfigError,
    InvalidDimensionError,
    InvalidSplitError,
    NumericError,
    UnstableSpecError,
)


def frame_of(values):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    return SeriesFrame(values, [f"v{j}" for j in range(values.shape[1])])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_series_frame_finiteness_verdict(bad):
    # the verdict of np.isfinite(values).all(), wherever the fault sits, with
    # finite values out to the ends of the float range, and on no rows
    values = 1.7e308 * np.linspace(-1.0, 1.0, 21).reshape(7, 3)
    assert SeriesFrame(values, list("abc")).length == 7
    assert SeriesFrame(np.empty((0, 3)), list("abc")).length == 0
    for i, j in np.ndindex(values.shape):
        faulty = values.copy()
        faulty[i, j] = bad
        with pytest.raises(NumericError, match="non-finite"):
            SeriesFrame(faulty, list("abc"))


def test_series_frame_leaves_the_callers_array_writeable():
    a = np.zeros((5, 2))
    frame = SeriesFrame(a, ["x", "y"])
    a[0, 0] = 1.0  # raised while the frame froze the caller's array
    assert frame.values[0, 0] == 1.0  # no copy: the frame shares a's memory
    assert not frame.values.flags.writeable


def test_series_frame_checks_finiteness_without_a_mask():
    # np.isfinite(values).all() held one byte per value: 1 MB here
    values = np.ones((125_000, 8))
    tracemalloc.start()
    try:
        SeriesFrame(values, list("abcdefgh"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


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


def reference_load_csv(path, skip_first_column):
    """Cell-by-cell reference: float() on each cell, checked in reading order."""
    names, rows = None, []
    with open(path, encoding="utf-8", newline="") as fh:
        for i, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            cells = row[1:] if skip_first_column else row
            if names is None:
                names = cells
                continue
            if len(cells) != len(names):
                raise CsvParseError(
                    f"row {i} has {len(cells)} cells, expected {len(names)}", row=i
                )
            parsed = []
            for j, cell in enumerate(cells, start=1):
                try:
                    v = float(cell)
                except ValueError:
                    raise CsvParseError(
                        f"non-numeric cell {cell!r} at row {i}, column {j}", row=i, column=j
                    ) from None
                if not math.isfinite(v):
                    raise CsvParseError(
                        f"non-finite cell at row {i}, column {j}", row=i, column=j
                    )
                parsed.append(v)
            rows.append(parsed)
    if not rows:
        raise CsvParseError(f"{path} contains no data rows")
    return names, np.array(rows, dtype=float)


PLAIN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
)
NUMBER_CELLS = st.one_of(
    PLAIN_CELLS,
    st.sampled_from(["1_000", "-0", " 7 ", ".5", "5.", "1e-400", "\u0661", "\u0663.\u0665"]),
)
ANY_CELLS = st.one_of(
    NUMBER_CELLS,
    st.sampled_from(["", "nan", "inF", "-Infinity", "1e400", "0x1p3", "1__0", "+-1", "oops"]),
    st.text(alphabet="0123456789.eE+-_ infaINFA\u0661", max_size=6),
)


@st.composite
def csv_texts(draw):
    """A header row, then rows that are numeric, or mixed with bad and ragged
    cells.  Around them: blank lines, whitespace-only and '#' lines (in mixed
    files), quoted cells, LF, CRLF or CR line ends, a BOM and no final newline.
    With no rows, the file is header-only."""
    width = draw(st.integers(1, 4))
    clean = draw(st.booleans())
    cells = draw(st.sampled_from([PLAIN_CELLS, NUMBER_CELLS])) if clean else ANY_CELLS
    if draw(st.integers(0, 3)) == 0:
        cells = st.one_of(cells, cells.map(lambda c: f'"{c}"'))
    fillers = st.sampled_from([""] if clean else ["", " ", "\t", "# note", "#1,2"])
    lines = [",".join(f"c{j}" for j in range(width))]
    if draw(st.integers(0, 4)) == 0:
        lines.insert(0, draw(fillers))
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(fillers))
            continue
        n = width if clean or draw(st.integers(0, 3)) else draw(st.integers(0, width + 1))
        lines.append(",".join(draw(st.lists(cells, min_size=n, max_size=n))))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = draw(st.sampled_from(["", "\ufeff"])) + end.join(lines)
    return text + end if draw(st.booleans()) else text


def assert_matches_reference(path, skip_first_column):
    try:
        want = reference_load_csv(path, skip_first_column)
    except CsvParseError as exc:
        with pytest.raises(CsvParseError) as got:
            load_csv(path, skip_first_column=skip_first_column)
        assert (str(got.value), got.value.row, got.value.column) == (
            str(exc), exc.row, exc.column)
        return
    frame = load_csv(path, skip_first_column=skip_first_column)
    names, values = want
    assert frame.names == names
    assert frame.values.tobytes() == values.tobytes()
    assert frame.values.shape == values.shape


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=csv_texts(), skip_first_column=st.booleans())
def test_load_csv_matches_cell_by_cell_reference(text, skip_first_column):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_matches_reference(path, skip_first_column)


CLEAN_FILES = {
    "lf": "a,b\n1,2\n3.5,-4e-3\n",
    "crlf": "a,b\r\n1,2\r\n3,4\r\n",
    "cr": "a,b\r1,2\r3,4\r",
    "blank-lines": "\n\na,b\n\n1,2\n\n\n3,4\n\n",
    "bom": "\ufeffa,b\n1,2\n",
    "no-final-newline": "a,b\n1,2\n3,4",
    "spaces-around-numbers": "a,b\n 1 , 2\n3,4\n",
    "quoted-header": '"a,1",b\n1,2\n',
    "quoted-cells": 'a,b\n"1",2\n3," -4e-3 "\n',
}


def refuse(*args):
    raise AssertionError("fell back to the cell-by-cell reader")


@pytest.mark.parametrize("name", sorted(CLEAN_FILES))
def test_clean_csv_never_reaches_the_fallback(name, tmp_path, monkeypatch):
    path = tmp_path / "clean.csv"
    path.write_bytes(CLEAN_FILES[name].encode("utf-8"))
    names, values = reference_load_csv(path, False)
    monkeypatch.setattr(data, "_load_checked", refuse)
    frame = load_csv(path)
    assert frame.names == names
    assert frame.values.tobytes() == values.tobytes()


@pytest.mark.parametrize("text", [
    "a,b\n1\n2\n",  # every row one cell short: loadtxt reads one column
    "a,b\n1,2\n3,4,5\n",  # a long row
    'a,b\n"1_0",2\n',  # a quoted cell numpy does not parse
], ids=["short-rows", "long-row", "quoted-cell"])
def test_rows_loadtxt_cannot_vouch_for_fall_back(text, tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_matches_reference(path, False)


@pytest.mark.parametrize("text", [
    "date,a,b\n2020-01-01 00:00,1,2\n2020-01-01 01:00,3,4\n",
    'date,a,b\n"2020-01-01, 00:00",1,2\n',  # a quoted comma
    'date,a\n"d,1\n2",3\n',  # a quoted newline
    'date,a\n"a""b",3\n"""",4\n',  # doubled quotes
    'date,a,b\nd,"1.5",2\nd,3," -4e-3 "\n',  # quoted numbers
], ids=["clean", "quoted-comma", "quoted-newline", "doubled-quote", "quoted-number"])
def test_date_column_csv_takes_numpys_reader(text, tmp_path, monkeypatch):
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode("utf-8"))
    names, values = reference_load_csv(path, True)
    monkeypatch.setattr(data, "_load_checked", refuse)
    frame = load_csv(path, skip_first_column=True)
    assert frame.names == names
    assert frame.values.tobytes() == values.tobytes()
    assert frame.values.shape == values.shape and frame.values.flags.c_contiguous


def test_date_column_long_row_falls_back(tmp_path, monkeypatch):
    # numpy parses the date column too, so a row one cell long is refused
    path = tmp_path / "p.csv"
    path.write_bytes(b"date,a,b\nd,1,2\nd,3,4,5\n")
    calls = []
    checked = data._load_checked
    monkeypatch.setattr(data, "_load_checked", lambda *args: calls.append(1) or checked(*args))
    assert_matches_reference(path, True)
    assert calls == [1]


def test_dated_csv_loads_in_little_more_than_its_array(tmp_path):
    # the cell-by-cell reader's rows of Python strings traced 16.1 MB on this file
    values = np.random.default_rng(0).standard_normal((20000, 8))
    path = tmp_path / "dated.csv"
    write_csv(frame_of(values), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    dated = ["date," + lines[0]] + [f"2020-01-01 {i:05d},{line}" for i, line in enumerate(lines[1:])]
    path.write_text("\n".join(dated) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        frame = load_csv(path, skip_first_column=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert frame.values.tobytes() == values.tobytes()
    assert peak < 3 * frame.values.nbytes


@pytest.mark.parametrize("text", ["a,b\n", "a,b", "a,b\r\n\r\n\r\n", "\n\na\n\n"])
def test_header_only_csv_raises_like_the_reference(text, tmp_path):
    path = tmp_path / "header.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(CsvParseError, match="contains no data rows") as exc:
        reference_load_csv(path, False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CsvParseError) as got:
            load_csv(path)
    assert (str(got.value), got.value.row, got.value.column) == (
        str(exc.value), exc.value.row, exc.value.column)


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


def reference_write_csv(frame, path):
    """One csv.writer row per time step, each cell formatted with .17g."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(frame.names)
        for row in frame.values:
            writer.writerow([f"{v:.17g}" for v in row])


WRITE_FRAMES = {
    "extremes": ([[-0.0, 5e-324, 1.7976931348623157e308],
                  [0.1, -2.2250738585072014e-308, -1.7976931348623157e308]], ["x", "y", "z"]),
    "names": ([[1.0, -2.5, 3e-7, 4e22, 0.0]], ["a,b", 'say "hi"', "two\nlines", "", "\u00e9t\u00e9"]),
    "empty-name": ([[1.0], [2.0]], [""]),
    "no-rows": (np.empty((0, 3)), ["a", "b", "c"]),
    "no-columns": (np.empty((4, 0)), []),
    "random": (np.random.default_rng(3).standard_normal((50, 4)) * [1e-200, 1.0, 1e5, 1e200],
               list("abcd")),
}


@pytest.mark.parametrize("name", sorted(WRITE_FRAMES))
def test_write_csv_is_byte_equal_to_the_csv_writer_loop(name, tmp_path):
    frame = SeriesFrame(np.array(WRITE_FRAMES[name][0], dtype=float), WRITE_FRAMES[name][1])
    reference_write_csv(frame, tmp_path / "want.csv")
    write_csv(frame, tmp_path / "got.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# ------------------------------------------------------------ standardize

def test_standardize_round_trip(rng):
    frame = frame_of(rng.standard_normal((50, 2)) * 4 + 7)
    stats = standardize(frame_of(frame.values[:30]))
    out = stats.apply(frame.values)
    assert np.allclose(out[:30].mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(out[:30].std(axis=0), 1.0, atol=1e-10)
    assert np.allclose(out * stats.std + stats.mean, frame.values, atol=1e-10)


def test_standardize_rejects_overflowing_std():
    # the std of 1e200-scale values overflows; a std of inf maps every value to 0
    frame = frame_of(1e200 * np.array([[1.0, 1.0], [-1.0, 2.0], [3.0, -2.0]]))
    with pytest.raises(NumericError, match="not finite"), np.errstate(over="ignore"):
        standardize(frame)


def test_standardize_rejects_varying_column_below_floor():
    # the 1e-8 floor would squash these columns to about 1e-292 and 1e-152;
    # at 1e-300 the variance underflows to exactly zero
    rng = np.random.default_rng(0)
    values = np.column_stack([np.ones(100), rng.standard_normal(100)])
    for tiny in (1e-300, 1e-160):
        with pytest.raises(NumericError, match=r"columns \[1\] vary"):
            standardize(frame_of(values * [1.0, tiny]))


def test_standardize_floors_small_scale_and_rounding_noise_columns():
    small = 1e-10 * np.arange(10.0)  # std 2.9e-10: floored to a usable +-0.045
    noisy = np.array([0.3, 0.1 + 0.2] * 5)  # constant but for one ulp
    frame = frame_of(np.column_stack([small, noisy]))
    stats = standardize(frame)
    assert stats.floored == [0, 1]
    z = stats.apply(frame.values)
    np.testing.assert_allclose(np.abs(z[:, 0]).max(), 0.045)
    assert np.abs(z[:, 1]).max() < 1e-8


def test_standardize_constant_column_floored():
    frame = frame_of(np.column_stack([np.ones(10), np.arange(10.0)]))
    stats = standardize(frame)
    assert stats.floored == [0]
    assert np.allclose(stats.apply(frame.values)[:, 0], 0.0)


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


@pytest.mark.parametrize("kwargs", [dict(stride=0), dict(stride=-2)])
def test_windows_reject_bad_stride_or_offset(kwargs):
    with pytest.raises(InvalidDimensionError):
        make_windows(frame_of(np.arange(30.0)), 2, 2, **kwargs)


def test_windows_are_read_only_views_of_the_frame(rng):
    frame = frame_of(rng.standard_normal((40, 3)))
    ws = make_windows(frame, 4, 2, stride=3)
    X, Y = ws.arrays()
    for k, s in enumerate(ws.starts):
        assert np.array_equal(X[k], frame.values[s : s + 4])
        assert np.array_equal(Y[k], frame.values[s + 4 : s + 6])
    for a in (X, Y):
        assert np.shares_memory(a, frame.values)
        assert not a.flags.writeable
    # sample blocks are copies, also where a reshape alone would give overlapping rows
    uni = make_windows(frame_of(rng.standard_normal(40)), 4, 2)
    for block in ws.sample_block(), uni.sample_block():
        assert block.flags.c_contiguous and block.flags.owndata


@pytest.mark.parametrize("args", [(2.5, 2), (2, 2.0), (2, 2, 1.5)],
                         ids=["float-history", "float-horizon", "float-stride"])
def test_windows_reject_non_integer_sizes(args):
    # make_windows(frame, 2.5, 2) raised TypeError
    with pytest.raises(InvalidConfigError, match="must be an integer"):
        make_windows(frame_of(np.arange(20.0)), *args)


def test_strided_windows_alignment():
    ws = make_windows(frame_of(np.arange(30.0)), 2, 2, stride=4)
    assert np.array_equal(ws.starts, [0, 4, 8, 12, 16, 20, 24])


def test_window_reads_counter(rng):
    ws = make_windows(frame_of(rng.standard_normal(12)), 2, 2)
    assert ws.reads == 0
    ws.arrays()
    ws.sample_block()
    assert ws.reads == 2


def test_sample_block_is_the_samples_with_a_ones_column_in_one_read(rng):
    for D in (1, 3):
        ws = make_windows(frame_of(rng.standard_normal((60, D))), 3, 2)
        block = ws.sample_block()
        assert ws.reads == 1
        X, Y = window_samples(ws)
        assert np.array_equal(block, np.column_stack([X, np.ones(len(X)), Y]))
        assert block.flags.c_contiguous


READER_ROWS = {
    "all": np.arange(40),
    "one-run": np.arange(5, 17),
    "gaps": np.array([0, 2, 3, 4, 9, 10, 11, 12, 13, 20, 39]),
    "single": np.array([17]),
    "last": np.array([39]),
    "unsorted": np.array([30, 3, 4, 5, 1, 22, 23]),
}


@pytest.mark.parametrize("rows", READER_ROWS.values(), ids=READER_ROWS.keys())
@pytest.mark.parametrize("few", [1, 3, None], ids=["few-1", "few-3", "default"])
@pytest.mark.parametrize("D", [1, 3])
def test_sample_blocks_write_the_rows_of_as_samples(monkeypatch, rng, D, few, rows):
    # `few` label windows per gather chunk: block sizes 1, 4 and 7 put block
    # edges inside runs of consecutive windows and inside gaps, and leave
    # short last chunks
    H, T = 3, 5
    if few is not None:
        monkeypatch.setattr(data, "CHUNK_FLOATS", few * D * T)
    ws = make_windows(frame_of(rng.standard_normal((40 + H + T - 1, D))), H, T)
    Xs, Ys = window_samples(ws)
    want_x = Xs.reshape(len(ws), D, H)[rows].reshape(-1, H)
    want_y = Ys.reshape(len(ws), D, T)[rows].reshape(-1, T)
    for block in (1, 4, 7, 40):
        # the history buffer is a column slice, as in partial_corr_matrix
        x_buf = np.full((block * D, H + 1), np.nan)
        y_buf = np.full((block * D, T), np.nan)
        reads = ws.reads
        got = [(x.copy(), y.copy()) for x, y in ws.sample_blocks(rows, x_buf[:, 1:], y_buf)]
        assert ws.reads == reads + 1
        assert [len(y) for _, y in got] == [
            D * len(rows[lo:lo + block]) for lo in range(0, len(rows), block)]
        assert np.array_equal(np.concatenate([x for x, _ in got]), want_x)
        assert np.array_equal(np.concatenate([y for _, y in got]), want_y)
        assert np.isnan(x_buf[:, 0]).all()


def test_sample_blocks_yield_views_of_the_buffers(rng):
    ws = make_windows(frame_of(rng.standard_normal((30, 2))), 2, 3)
    x_buf, y_buf = np.empty((8, 2)), np.empty((8, 3))
    for x, y in ws.sample_blocks(np.arange(0, 26, 2), x_buf, y_buf):
        assert np.shares_memory(x, x_buf) and np.shares_memory(y, y_buf)
    # a pass is one read of the split and of its parent
    child = ws.slice(3, 20)
    list(child.sample_blocks(np.arange(17), x_buf, y_buf))
    assert (child.reads, ws.reads) == (1, 2)


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


@pytest.mark.parametrize("fractions", [
    [0.5, math.nan], [math.nan, 0.5], [math.nan, math.nan], [0.5, math.inf], [math.inf, -math.inf],
], ids=["nan-last", "nan-first", "all-nan", "inf", "inf-minus-inf"])
@pytest.mark.parametrize("kind", ["frame", "windows"])
def test_chrono_split_refuses_a_non_finite_fraction(kind, fractions):
    # [0.5, nan] passed both checks and split 47 windows 23 / 24, after a
    # RuntimeWarning from casting the NaN edge to an integer
    data = gen_ar(ArSpec((0.5,), 1.0, 50, 0))
    if kind == "windows":
        data = make_windows(data, 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSplitError, match="finite"):
            chrono_split(data, fractions)


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


def ar_recursion(spec):
    """y[n] = eps[n] + sum_k phi_k y[n-k], one sample at a time, with the
    same draws, schedule positions and burn-in as gen_ar."""
    rng = np.random.default_rng(spec.seed)
    burn = 10 * spec.order
    total = spec.length + burn
    period = spec.noise_std.shape[0]
    draws = rng.standard_normal(total)
    y = np.zeros(total)
    for n in range(total):
        acc = draws[n] * spec.noise_std[(n - burn) % period]
        for k, phi in enumerate(spec.coeffs, start=1):
            if n >= k:
                acc += phi * y[n - k]
        y[n] = acc
    return y[burn:]


@pytest.mark.parametrize("coeffs,noise_std", [
    ((), 0.7),
    ((0.6,), ramp_noise_schedule(4, 3, 1.0, 3.0)),
    ((0.0,) * 15 + (0.6,), ramp_noise_schedule(16, 8, 1.0, 3.0)),
    ((0.7, -0.2), 1.0),
    ((1.5, -0.6), 1.0),  # stable with |phi_1| > 1
], ids=["white", "ar1-ramp", "seasonal16-ramp", "ar2", "ar2-large-phi1"])
def test_gen_ar_matches_ar_recursion(coeffs, noise_std):
    spec = ArSpec(coeffs, noise_std, length=1500, seed=9)
    y = gen_ar(spec).values[:, 0]
    expected = ar_recursion(spec)
    if not coeffs:
        assert np.array_equal(y, expected)
    # Relative to the series scale as well: near a zero crossing an entry's
    # own relative error reflects only the order of the additions.
    np.testing.assert_allclose(y, expected, rtol=1e-12,
                               atol=1e-12 * np.abs(expected).max())


def one_band_solve(spec):
    """gen_ar's series as one banded triangular solve (LAPACK dtbtrs) over
    every row, burn-in included."""
    rng = np.random.default_rng(spec.seed)
    p = spec.order
    burn = 10 * p
    total = spec.length + burn
    period = spec.noise_std.shape[0]
    stds = spec.noise_std[(np.arange(total) - burn) % period]
    eps = rng.standard_normal(total) * stds
    band = np.zeros((p + 1, total), order="F")
    band[1:] = -np.asarray(spec.coeffs)[:, None]
    y, info = dtbtrs(band, eps[:, None], uplo="L", diag="U")
    assert info == 0
    return y[burn:, 0]


def random_stable_coeffs(p, seed):
    """Order-p coefficients with sum |phi_k| = 0.9, so every root lies inside the unit disc."""
    c = np.random.default_rng(seed).uniform(-1.0, 1.0, p)
    return tuple(0.9 * c / np.abs(c).sum())


def block_ends(p):
    """Series lengths at and around the ends of gen_ar's sub-blocks and blocks."""
    b = max(p, math.isqrt(data.CHUNK_FLOATS))
    block = data.CHUNK_FLOATS // b * b
    ends = [b, block - 10 * p, 2 * block - 10 * p]
    return sorted({n + d for n in ends for d in (-1, 0, 1) if n + d >= 1} | {1}), 3 * block + 5


AR_COEFFS = pytest.mark.parametrize("coeffs", [
    (), (0.6,), (0.7, -0.2), (0.0,) * 15 + (0.6,), (0.0,) * 95 + (0.6,),
    random_stable_coeffs(29, 3),
], ids=["white", "ar1", "ar2", "seasonal16", "seasonal96", "random29"])
AR_RAMP = pytest.mark.parametrize("ramp", [False, True], ids=["constant", "ramp"])


@AR_COEFFS
@AR_RAMP
def test_gen_ar_matches_one_band_solve(coeffs, ramp):
    # the same series as one LAPACK solve over all rows, at and around block
    # ends; white noise is the scaled draws themselves, bit for bit
    noise = ramp_noise_schedule(16, 8, 1.0, 3.0) if ramp else 0.7
    lengths, longest = block_ends(len(coeffs))
    for length in lengths + [longest]:
        spec = ArSpec(coeffs, noise, length, seed=length)
        y, expected = gen_ar(spec).values[:, 0], one_band_solve(spec)
        if not coeffs:
            assert y.tobytes() == expected.tobytes(), length
        # relative to the series scale as well, as in test_gen_ar_matches_ar_recursion
        np.testing.assert_allclose(y, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max(), err_msg=str(length))


@AR_COEFFS
@AR_RAMP
def test_gen_ar_is_a_float_hex_prefix_of_a_longer_series(coeffs, ramp):
    # every block is zero-padded to one shape, so a row's value does not
    # depend on where the series ends
    noise = ramp_noise_schedule(16, 8, 1.0, 3.0) if ramp else 0.7
    lengths, longest = block_ends(len(coeffs))
    whole = gen_ar(ArSpec(coeffs, noise, longest, seed=4)).values[:, 0]
    for length in lengths:
        head = gen_ar(ArSpec(coeffs, noise, length, seed=4)).values[:, 0]
        assert head.tobytes() == whole[:length].tobytes(), length


def test_gen_ar_frame_matches_one_band_solves():
    # each column is gen_ar's series of its child seed, bit for bit
    spec = ArSpec((0.5,), 1.0, 20000, seed=0)
    seeds = np.random.SeedSequence(spec.seed).spawn(8)
    columns = [ArSpec(spec.coeffs, spec.noise_std, spec.length, int(child.generate_state(1)[0]))
               for child in seeds]
    frame = gen_ar_frame(spec, 8).values
    assert frame.tobytes() == np.column_stack([gen_ar(c).values[:, 0] for c in columns]).tobytes()
    expected = np.column_stack([one_band_solve(c) for c in columns])
    np.testing.assert_allclose(frame, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def gen_ar_peak(coeffs, length):
    """Traced allocation peak of one gen_ar call, in bytes."""
    spec = ArSpec(coeffs, 1.0, length, seed=0)
    tracemalloc.start()
    try:
        gen_ar(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_gen_ar_memory_follows_the_output():
    # one band of all rows was (p+1) x (n + 10p) floats: about 78 MB at lag 96
    # and 100 000 rows.  Blocked, the order adds at most what a band buffer
    # of one block took, and a row costs its 8 output bytes.
    n, p = 100_000, 96
    seasonal = (0.0,) * (p - 1) + (0.6,)
    gen_ar_peak(seasonal, 10)  # its operators are built outside the traced calls
    # the size of the earlier (p+1) x (p + block) band buffer
    band_bytes = 8 * (p + 1) * (p + max(p, data.CHUNK_FLOATS // (p + 1)))
    slack = 64 * 1024
    assert gen_ar_peak(seasonal, n) - gen_ar_peak((0.6,), n) < band_bytes + slack
    assert gen_ar_peak(seasonal, 2 * n) - gen_ar_peak(seasonal, n) < 8 * n + slack


def test_unstable_spec_rejected():
    with pytest.raises(UnstableSpecError):
        ArSpec(coeffs=(1.1,), noise_std=1.0, length=100, seed=0)
    with pytest.raises(UnstableSpecError):
        ArSpec(coeffs=(0.9, 0.2), noise_std=1.0, length=100, seed=0)
    # rejected before the eigenvalue check, whose eigvals raises LinAlgError
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(UnstableSpecError, match="finite"):
            ArSpec(coeffs=(0.5, bad), noise_std=1.0, length=100, seed=0)


@pytest.mark.parametrize("noise_std", [np.array([]), np.ones((2, 3))], ids=["empty", "2-D"])
def test_ar_spec_rejects_a_schedule_that_is_not_1d_and_non_empty(noise_std):
    # an empty schedule raised IndexError in gen_ar, a 2-D one a broadcast ValueError
    with pytest.raises(InvalidDimensionError, match="noise_std"):
        gen_ar(ArSpec((0.5,), noise_std, 10, 0))


@pytest.mark.parametrize("kwargs", [{"length": 10.5}, {"seed": 1.5}, {"length": True}],
                         ids=["float-length", "float-seed", "bool-length"])
def test_ar_spec_rejects_non_integer_length_and_seed(kwargs):
    # gen_ar raised TypeError on a float length or seed
    with pytest.raises(InvalidConfigError, match="must be an integer"):
        gen_ar(ArSpec((0.5,), **{"noise_std": 1.0, "length": 10, "seed": 0, **kwargs}))


def test_ar_spec_stores_numpy_integers_as_int():
    spec = ArSpec((0.5,), 1.0, np.int64(10), np.int32(3))
    assert type(spec.length) is int and type(spec.seed) is int
    assert spec == ArSpec((0.5,), 1.0, 10, 3)


def test_ar_spec_keeps_a_read_only_copy_of_the_schedule():
    sched = np.ones(4)
    spec = ArSpec((0.5,), sched, 100, 0)
    before = gen_ar(spec).values.copy()
    sched[0] = -1.0
    assert spec.noise_std[0] == 1.0
    with pytest.raises(ValueError):
        spec.noise_std[0] = -1.0
    assert np.array_equal(gen_ar(spec).values, before)


@pytest.mark.parametrize("n_vars, error", [
    (2.5, InvalidConfigError), (True, InvalidConfigError),
    (0, InvalidDimensionError), (-1, InvalidDimensionError),
], ids=["float", "bool", "zero", "negative"])
def test_gen_ar_frame_rejects_a_bad_column_count(n_vars, error):
    # 2.5 raised TypeError, -1 OverflowError from SeedSequence.spawn, and 0
    # returned a frame with no columns
    with pytest.raises(error):
        gen_ar_frame(ArSpec((0.5,), 1.0, 10, 0), n_vars)


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


def test_ma_weights_rejects_a_non_integer_count():
    # 2.5 raised numpy's TypeError
    with pytest.raises(InvalidConfigError, match="must be an integer"):
        ma_weights((0.5,), 2.5)


def test_ma_weights_rejects_a_negative_count():
    # -1 raised numpy's ValueError, "negative dimensions"
    with pytest.raises(InvalidDimensionError, match=">= 0"):
        ma_weights((0.5,), -1)


@pytest.mark.parametrize("cov", [np.ones(3), np.ones((2, 3)), np.ones((2, 2, 2))],
                         ids=["1-d", "non-square", "3-d"])
def test_cov_to_corr_rejects_a_non_square_array(cov):
    # a 1-D array raised numpy's ValueError from np.diagonal
    with pytest.raises(InvalidDimensionError, match="square 2-D"):
        cov_to_corr(cov)


@pytest.mark.parametrize("variance", [0.0, -1.0, float("nan")], ids=["zero", "negative", "nan"])
def test_cov_to_corr_rejects_a_variance_that_is_not_positive(variance):
    # a zero variance returned NaN behind a divide RuntimeWarning
    cov = np.array([[1.0, 0.0], [0.0, variance]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="not positive"):
            cov_to_corr(cov)


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


@pytest.mark.parametrize("horizon", [2.5, np.float64(3.0), True],
                         ids=["float", "numpy-float", "bool"])
def test_conditional_cov_rejects_a_non_integer_horizon(horizon):
    # 2.5 raised TypeError, and True returned a 1 x 1 covariance
    with pytest.raises(InvalidConfigError, match="must be an integer"):
        ar_conditional_cov(ArSpec((0.5,), 1.0, 100, 0), horizon)


@pytest.mark.parametrize("args, error", [
    ((2.5, 3, 1.0, 2.0), InvalidConfigError),
    ((2, 3.0, 1.0, 2.0), InvalidConfigError),
    ((2, 3, -1.0, 2.0), InvalidConfigError),
    ((2, 3, 1.0, 0.0), InvalidConfigError),
    ((2, 3, float("nan"), 2.0), InvalidConfigError),
    ((2, 3, 1.0, float("inf")), InvalidConfigError),
], ids=["float-history", "float-horizon", "negative-start", "zero-end", "nan-start",
        "inf-end"])
def test_ramp_schedule_rejects_bad_sizes_and_variances(args, error):
    # sizes raised TypeError; -1.0 gave NaN behind a sqrt RuntimeWarning, and
    # NaN, zero and infinite variances passed silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            ramp_noise_schedule(*args)


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
    X, Y = window_samples(ws)
    design = np.column_stack([np.ones(len(X)), X])
    coef, *_ = np.linalg.lstsq(design, Y, rcond=None)
    resid = Y - design @ coef
    emp = np.cov(resid.T)
    oracle = ar_conditional_cov(spec, T)
    mask = np.abs(oracle) > 0.05
    assert np.all(np.abs(emp[mask] - oracle[mask]) / np.abs(oracle[mask]) < 0.10)


def test_ar_spec_equality_and_hash_cover_an_array_schedule():
    # the generated dataclass methods compared the schedule arrays with ==
    # (ValueError) and hashed them (TypeError)
    a = ArSpec((0.5,), np.ones(4), 100, 0)
    b = ArSpec((0.5,), np.ones(4), 100, 0)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert ArSpec((0.5,), 1.0, 100, 0) == ArSpec((0.5,), np.array([1.0]), 100, 0)
    sched = np.ones(4)
    sched[3] = 2.0
    for other in (
        ArSpec((0.5,), sched, 100, 0),
        ArSpec((0.5,), np.ones(3), 100, 0),
        ArSpec((0.4,), np.ones(4), 100, 0),
        ArSpec((0.5,), np.ones(4), 101, 0),
        ArSpec((0.5,), np.ones(4), 100, 1),
    ):
        assert a != other
    assert a != "spec"
