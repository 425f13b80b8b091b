"""Dataset ingestion, windowing, chronological splitting, and synthetic data.

Windows are read-only views of the series.  ``WindowSet.sample_block``
copies a whole split into one sample block [X | 1 | Y].
``WindowSet.sample_blocks`` is the blockwise reader: it writes the sample
rows of chosen windows into the caller's buffers, a block at a time, with no
temporary larger than ``CHUNK_FLOATS`` floats.

The synthetic side generates autoregressive series with an optional periodic
innovation-scale schedule, solving the recursion through a band buffer of
about the same ``CHUNK_FLOATS`` floats, and provides the exact conditional
covariance of the label steps given the past, which serves as the oracle for
benchmark and diagnostic tests.
"""

from __future__ import annotations

import csv
import logging
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    CsvParseError,
    InsufficientDataError,
    InvalidConfigError,
    InvalidDimensionError,
    InvalidSplitError,
    NumericError,
    UnstableSpecError,
    integer,
)
from .weighting import lapack

log = logging.getLogger(__name__)


def _all_finite(v: np.ndarray) -> bool:
    """``np.isfinite(v).all()`` without its one-byte-per-value mask: a NaN
    propagates through min and max, and an infinity is one of them."""
    return bool(np.isfinite(v.min(initial=0.0)) and np.isfinite(v.max(initial=0.0)))


@dataclass(frozen=True)
class SeriesFrame:
    """Time-major N x D value matrix with column names.

    ``values`` is a read-only view that shares the caller's array: the frame
    copies nothing, and the caller's array stays writeable.
    """

    values: np.ndarray
    names: list[str]

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if v.ndim != 2:
            raise InvalidDimensionError("values must be 2-D (time x variables)")
        if v.shape[1] != len(self.names):
            raise InvalidDimensionError(
                f"{v.shape[1]} columns but {len(self.names)} names"
            )
        if not _all_finite(v):
            raise NumericError("series contains non-finite entries")
        v = v.view()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def n_vars(self) -> int:
        return self.values.shape[1]


class WindowSet:
    """Paired (X, Y) sliding windows with their source start indices.

    X stacks to (n, H, D), Y to (n, T, D); a window starting at s covers
    source rows [s, s + H + T).  Reads through ``arrays``, ``sample_block``
    and ``sample_blocks`` are counted so leakage tests can assert a split
    was never touched.
    """

    def __init__(self, X: np.ndarray, Y: np.ndarray, starts: np.ndarray):
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        starts = np.asarray(starts, dtype=int)
        if X.ndim != 3 or Y.ndim != 3:
            raise InvalidDimensionError("X and Y must stack to 3-D arrays")
        if X.shape[0] != Y.shape[0] or X.shape[0] != starts.shape[0]:
            raise InvalidDimensionError("window counts disagree")
        if X.shape[2] != Y.shape[2]:
            raise InvalidDimensionError("X and Y variable counts disagree")
        self._X = X
        self._Y = Y
        self.starts = starts
        self.history = X.shape[1]
        self.horizon = Y.shape[1]
        self.n_vars = X.shape[2]
        self.reads = 0
        self._parent: WindowSet | None = None

    def __len__(self) -> int:
        return self._X.shape[0]

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) stacks; counts as a read of this split and its ancestors."""
        node = self
        while node is not None:
            node.reads += 1
            node = node._parent
        return self._X, self._Y

    def sample_block(self) -> np.ndarray:
        """The split's samples as one n*D x (H+1+T) block [X | 1 | Y], rows
        window-major and variable-minor.  The window views are copied
        straight into the block; counts as one read."""
        X, Y = self.arrays()
        n, H, D = X.shape
        T = Y.shape[1]
        block = np.empty((n * D, H + 1 + T))
        np.copyto(block[:, :H].reshape(n, D, H), X.transpose(0, 2, 1))
        block[:, H] = 1.0
        np.copyto(block[:, H + 1:].reshape(n, D, T), Y.transpose(0, 2, 1))
        return block

    def sample_blocks(
        self, rows: np.ndarray, x_out: np.ndarray, y_out: np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield the sample rows of windows ``rows``, one block at a time.

        A block takes as many windows k as ``x_out`` holds, len(x_out) // D.
        Their k*D history rows are written into the leading rows of ``x_out``
        (width H) and their labels into ``y_out`` (width T), window-major and
        variable-minor as in ``sample_block``, and those two views are yielded;
        the next block overwrites them.  Windows are gathered a few at a
        time, so no temporary holds more than ``CHUNK_FLOATS`` floats.  The
        pass counts as one read.
        """
        X, Y = self.arrays()
        block = len(x_out) // self.n_vars
        for lo in range(0, len(rows), block):
            idx = rows[lo:lo + block]
            k = len(idx) * self.n_vars
            yield _gather(X, idx, x_out[:k]), _gather(Y, idx, y_out[:k])

    def slice(self, lo: int, hi: int) -> "WindowSet":
        child = WindowSet(self._X[lo:hi], self._Y[lo:hi], self.starts[lo:hi])
        child._parent = self
        return child

    def coverage(self) -> tuple[int, int]:
        """Half-open range of source rows touched by any window."""
        span = self.history + self.horizon
        return int(self.starts.min()), int(self.starts.max()) + span


# Floats in one chunk of a blockwise pass: the gather of WindowSet.sample_blocks,
# the residual rows of partial_corr_matrix, and gen_ar's band buffer.
CHUNK_FLOATS = 2**13


def _gather(stack: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Windows ``idx`` of an (n, width, D) stack written into ``out`` as its
    len(idx) * D rows of width ``width``; returns ``out``.  The windows are
    fancy-indexed a chunk of at most CHUNK_FLOATS floats at a time."""
    width, D = stack.shape[1], stack.shape[2]
    src = stack.transpose(0, 2, 1)
    dest = out.reshape(len(idx), D, width)
    few = max(1, CHUNK_FLOATS // (D * width))
    for c in range(0, len(idx), few):
        np.copyto(dest[c:c + few], src[idx[c:c + few]])
    return out


def load_csv(path, skip_first_column: bool = False) -> SeriesFrame:
    """Read a comma-separated, '.'-decimal, UTF-8 file into a SeriesFrame.

    The first non-empty row holds the column names.  A row whose cell count
    differs from the header's, or a cell that is not a finite number, is
    rejected with a parse error carrying the 1-based row (and, for a bad
    cell, the column) of the first fault in reading order.

    numpy's C reader parses the body, date column or not; whenever it cannot
    vouch for its result, the file is read again cell by cell, finding the fault.
    """
    path = Path(path)
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise CsvParseError(f"cannot read {path}: {exc}") from exc
    with fh:
        try:
            frame = _load_fast(fh, skip_first_column)
            if frame is None:
                fh.seek(0)
                frame = _load_checked(fh, path, skip_first_column)
        except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8; an oversized cell
            raise CsvParseError(f"cannot parse {path}: {exc}") from exc
    return frame


def _load_fast(fh, skip_first_column: bool) -> SeriesFrame | None:
    """The file through np.loadtxt, or None if the result might differ from
    the cell-by-cell reading (which then also finds any fault).  Quotes split
    as in ``csv``; a date column reads as 0.0 and is dropped after the width
    check, so a long row still fails it."""
    header = next((row for row in csv.reader(fh) if row), None)
    if header is None:
        return None
    try:
        # a header-only file makes loadtxt warn rather than raise
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None, quotechar='"',
                                converters={0: lambda cell: 0.0} if skip_first_column else None)
    except (ValueError, Warning):
        return None
    if values.shape[1] != len(header) or not _all_finite(values):
        return None
    if skip_first_column:  # contiguous, so sums round as on the undated file
        values, header = np.ascontiguousarray(values[:, 1:]), header[1:]
    return SeriesFrame(values, header)


def _load_checked(fh, path, skip_first_column: bool) -> SeriesFrame:
    """Cell by cell, for files numpy refuses; raises at the first fault, with its position."""
    names = None
    rows, row_numbers = [], []
    ragged = None
    for i, row in enumerate(csv.reader(fh), start=1):
        if not row:
            continue
        cells = row[1:] if skip_first_column else row
        if names is None:
            names = cells
        elif len(cells) != len(names):
            ragged = CsvParseError(
                f"row {i} has {len(cells)} cells, expected {len(names)}", row=i
            )
            break
        else:
            rows.append(cells)
            row_numbers.append(i)
    values = _parse_cells(rows, row_numbers)
    if ragged is not None:
        raise ragged
    if not rows:
        raise CsvParseError(f"{path} contains no data rows")
    return SeriesFrame(values, names)


def _parse_cells(rows, row_numbers) -> np.ndarray:
    """Cell-by-cell conversion; raises at the first cell that is not a finite number."""
    parsed = []
    for i, cells in zip(row_numbers, rows):
        parsed.append([])
        for j, cell in enumerate(cells, start=1):
            try:
                v = float(cell)
            except ValueError:
                raise CsvParseError(
                    f"non-numeric cell {cell!r} at row {i}, column {j}", row=i, column=j
                ) from None
            if not np.isfinite(v):
                raise CsvParseError(
                    f"non-finite cell at row {i}, column {j}", row=i, column=j
                )
            parsed[-1].append(v)
    return np.array(parsed, dtype=float)


def write_csv(frame: SeriesFrame, path) -> None:
    """Header through csv.writer, then %.17g cells in CRLF rows through np.savetxt."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(frame.names)
        np.savetxt(fh, frame.values, fmt="%.17g", delimiter=",", newline="\r\n")


@dataclass
class Standardizer:
    mean: np.ndarray
    std: np.ndarray
    floored: list[int] = field(default_factory=list)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std


def standardize(frame: SeriesFrame) -> Standardizer:
    """Fit zero-mean/unit-variance column statistics to the frame.

    Pass the training region only, to avoid leaking future statistics.
    Constant columns get a 1e-8 std floor.  NumericError is raised for a
    mean or std that overflows, which would map every value to zero, and for
    a column of tiny values that truly vary but that the floor would squash
    to zero.
    """
    if frame.length == 0:
        raise InvalidSplitError("cannot fit statistics to a frame with no rows")
    mean = frame.values.mean(axis=0)
    std = frame.values.std(axis=0)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
        raise NumericError("column mean or std is not finite; values too large to standardize")
    floored = [int(j) for j in np.nonzero(std < 1e-8)[0]]
    # The floor scales a column's spread by std / 1e-8; below sqrt(eps) that
    # spread is lost.  Such a column is refused unless its values agree to
    # about half the digits, i.e. it is constant up to rounding.
    tol = np.sqrt(np.finfo(float).eps)
    squashed = []
    for j in floored:
        column = frame.values[:, j]
        if std[j] < 1e-8 * tol and np.ptp(column) > tol * np.abs(column).max():
            squashed.append(j)
    if squashed:
        raise NumericError(
            f"columns {squashed} vary at a scale the 1e-8 std floor squashes to zero; "
            "values too small to standardize"
        )
    if floored:
        log.warning("std floor applied to columns %s", floored)
    return Standardizer(mean, np.maximum(std, 1e-8), floored)


def make_windows(
    frame: SeriesFrame, history: int, horizon: int, stride: int = 1
) -> WindowSet:
    """Extract (X, Y) pairs; X ends exactly where Y begins.

    With stride=1 the window count is N - H - T + 1.  A larger stride keeps
    only starts 0, stride, 2*stride, ... (used to phase-align windows
    against a periodic innovation schedule).  X and Y are read-only views
    of the frame's values; no window is copied.
    """
    history, horizon = integer("history", history), integer("horizon", horizon)
    stride = integer("stride", stride)
    if history < 1 or horizon < 1 or stride < 1:
        raise InvalidDimensionError("history, horizon and stride must be >= 1")
    if frame.n_vars == 0:
        raise InvalidDimensionError("the series has no data columns")
    span = history + horizon
    if frame.length < span:
        raise InsufficientDataError(
            f"need at least {span} rows, have {frame.length}"
        )
    starts = np.arange(0, frame.length - span + 1, stride)
    # (n, D, span): the window axis comes last.
    spans = np.lib.stride_tricks.sliding_window_view(frame.values, span, axis=0)[::stride]
    X = spans[:, :, :history].transpose(0, 2, 1)
    Y = spans[:, :, history:].transpose(0, 2, 1)
    return WindowSet(X, Y, starts)


def _part_bounds(n: int, fractions) -> list[tuple[int, int]]:
    fractions = np.asarray(fractions, dtype=float)
    if np.any(fractions <= 0) or abs(fractions.sum() - 1.0) > 1e-9:
        raise InvalidSplitError("fractions must be positive and sum to 1")
    edges = np.floor(np.cumsum(fractions) * n).astype(int)
    edges[-1] = n
    bounds = []
    lo = 0
    for hi in edges:
        if hi <= lo:
            raise InvalidSplitError("a split part would receive zero rows")
        bounds.append((lo, int(hi)))
        lo = int(hi)
    return bounds


def chrono_split(data, fractions):
    """Contiguous, ordered, disjoint split of a frame or window set.

    Frames split by rows; window sets split by window position.  Windowing
    the parts of a frame split drops the windows that would straddle a part
    boundary, so counts sum to less than windowing the whole frame.
    """
    if isinstance(data, SeriesFrame):
        return [
            SeriesFrame(data.values[lo:hi], list(data.names))
            for lo, hi in _part_bounds(data.length, fractions)
        ]
    if isinstance(data, WindowSet):
        return [data.slice(lo, hi) for lo, hi in _part_bounds(len(data), fractions)]
    raise TypeError(f"cannot split {type(data).__name__}")


@dataclass(frozen=True, eq=False)
class ArSpec:
    """Stable AR(p) process spec with a per-step innovation-scale schedule.

    ``noise_std`` is either a scalar or a non-empty 1-D array treated as
    periodic with its own length, anchored at the first retained sample.  The
    spec keeps a read-only copy of it.  Specs are equal, and hash alike, when
    their coefficients, schedule values, length and seed are.
    """

    coeffs: tuple[float, ...]
    noise_std: float | np.ndarray = 1.0
    length: int = 1000
    seed: int = 0

    def __post_init__(self):
        coeffs = tuple(float(c) for c in np.asarray(self.coeffs, dtype=float).ravel())
        object.__setattr__(self, "coeffs", coeffs)
        sched = np.atleast_1d(np.array(self.noise_std, dtype=float))
        if sched.ndim != 1 or sched.size == 0:
            raise InvalidDimensionError("noise_std must be a scalar or a non-empty 1-D schedule")
        if np.any(sched <= 0) or not np.all(np.isfinite(sched)):
            raise UnstableSpecError("noise_std entries must be positive and finite")
        sched.setflags(write=False)
        object.__setattr__(self, "noise_std", sched)
        object.__setattr__(self, "length", integer("length", self.length))
        object.__setattr__(self, "seed", integer("seed", self.seed))
        if self.length < 1:
            raise InvalidDimensionError("length must be >= 1")
        if not self.seed >= 0:
            raise InvalidConfigError(f"seed must be nonnegative, got {self.seed!r}")
        if not np.all(np.isfinite(coeffs)):
            raise UnstableSpecError(f"AR coefficients {coeffs} must be finite")
        if coeffs and np.max(np.abs(_companion_eigs(coeffs))) >= 1.0 - 1e-9:
            raise UnstableSpecError(
                f"AR coefficients {coeffs} are not stable"
            )

    def _key(self) -> tuple:
        return self.coeffs, self.noise_std.tobytes(), self.length, self.seed

    def __eq__(self, other):
        if not isinstance(other, ArSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def order(self) -> int:
        return len(self.coeffs)


def _companion_eigs(coeffs) -> np.ndarray:
    p = len(coeffs)
    comp = np.zeros((p, p))
    comp[0, :] = coeffs
    if p > 1:
        comp[1:, :-1] = np.eye(p - 1)
    return np.linalg.eigvals(comp)


def ramp_noise_schedule(
    history: int, horizon: int, var_start: float, var_end: float
) -> np.ndarray:
    """Periodic std schedule: flat at sqrt(var_start) over the history slots,
    then variance ramping var_start -> var_end across the horizon slots.
    Both variances must be positive and finite."""
    history, horizon = integer("history", history), integer("horizon", horizon)
    if history < 0 or horizon < 1:
        raise InvalidDimensionError("history must be >= 0 and horizon >= 1")
    for name, var in (("var_start", var_start), ("var_end", var_end)):
        if not 0 < var < np.inf:  # also rejects NaN
            raise InvalidConfigError(f"{name} must be positive and finite, got {var!r}")
    head = np.full(history, np.sqrt(var_start))
    tail = np.sqrt(np.linspace(var_start, var_end, horizon))
    return np.concatenate([head, tail])


def ma_weights(coeffs, count: int) -> np.ndarray:
    """First ``count`` moving-average weights of the AR polynomial (psi_0=1)."""
    if integer("count", count) < 0:
        raise InvalidDimensionError(f"count must be >= 0, got {count}")
    psi = np.zeros(count)
    psi[:1] = 1.0
    for m in range(1, count):
        acc = 0.0
        for j, phi in enumerate(coeffs, start=1):
            if j > m:
                break
            acc += phi * psi[m - j]
        psi[m] = acc
    return psi


def gen_ar(spec: ArSpec) -> SeriesFrame:
    """Seeded realization of an AR process; 10*p burn-in samples are discarded.

    The innovation schedule is anchored so position 0 falls on the first
    retained sample (burn-in uses negative positions, wrapped periodically).
    The recursion y[n] = eps[n] + sum_k phi_k y[n-k] is the banded solve
    A y = eps, with A unit lower triangular and A[n, n-k] = -phi_k.

    It is solved block by block through one (p+1) x (p + block) band buffer
    of about ``CHUNK_FLOATS`` floats, so memory is O(n + p * block), not O(p * n).
    Each block's solve starts with p rows holding the previous block's last
    p outputs (zeros before the first block), and the band entries that
    would land on those rows are zero, so they pass through unchanged.  Every
    kept row thus gets the same multiply-adds, in the same order, as in one
    solve over all rows, from the same innovation stream drawn in pieces:
    the series is float-hex equal to the one-solve result.
    """
    values = np.empty((spec.length, 1))
    _fill_ar(spec, values[:, 0])
    return SeriesFrame(values, ["y"])


def _fill_ar(spec: ArSpec, out: np.ndarray) -> None:
    """Write gen_ar's series for ``spec`` into the length-n vector ``out``."""
    rng = np.random.default_rng(spec.seed)
    p = spec.order
    burn = 10 * p
    total = spec.length + burn
    period = spec.noise_std.shape[0]
    block = max(p, CHUNK_FLOATS // (p + 1))
    # LAPACK lower band storage: row k holds the k-th subdiagonal; row 0, the
    # unit diagonal, is not read.  Fortran order, or the wrapper copies it.
    band = np.zeros((p + 1, p + block), order="F")
    for k, phi in enumerate(spec.coeffs, start=1):
        band[k, p - k:] = -phi
    rhs = np.zeros((p + block, 1), order="F")
    dtbtrs = lapack().dtbtrs
    for start in range(0, total, block):
        m = min(block, total - start)
        eps = rhs[p:p + m, 0]
        rng.standard_normal(out=eps)
        eps *= spec.noise_std[(np.arange(start, start + m) - burn) % period]
        y, _ = dtbtrs(band[:, :p + m], rhs[:p + m], uplo="L", diag="U", overwrite_b=1)
        first = max(start, burn)  # burn-in rows are not kept
        if first < start + m:
            out[first - burn:start + m - burn] = y[p + first - start:, 0]
        rhs[:p] = y[m:m + p]


def gen_ar_frame(spec: ArSpec, n_vars: int) -> SeriesFrame:
    """Independent realizations (per-variable child seeds) as columns."""
    if integer("n_vars", n_vars) < 1:
        raise InvalidDimensionError(f"n_vars must be >= 1, got {n_vars}")
    seeds = np.random.SeedSequence(spec.seed).spawn(n_vars)
    values = np.empty((spec.length, n_vars))
    for d, child in enumerate(seeds):
        child_seed = int(child.generate_state(1)[0])
        _fill_ar(ArSpec(spec.coeffs, spec.noise_std, spec.length, child_seed), values[:, d])
    return SeriesFrame(values, [f"y{d}" for d in range(n_vars)])


def ar_conditional_cov(spec: ArSpec, horizon: int) -> np.ndarray:
    """Exact covariance of the next ``horizon`` steps given the full past.

    Only innovations entering after the conditioning time contribute:
    Cov[i, j] = sum_k psi_{i-k} psi_{j-k} sigma_k^2 over label steps k.
    The first label step sits at schedule position period - horizon, as in
    windows whose starts are aligned to the schedule period.  NumericError
    if the covariance is not finite (a squared innovation scale overflows).
    """
    if integer("horizon", horizon) < 1:
        raise InvalidDimensionError("horizon must be >= 1")
    psi = ma_weights(spec.coeffs, horizon)
    period = spec.noise_std.shape[0]
    stds = spec.noise_std[(period - horizon + np.arange(horizon)) % period]
    cov = np.zeros((horizon, horizon))
    for k in range(horizon):  # innovation entering at label step k (0-based)
        contrib = np.zeros(horizon)
        contrib[k:] = psi[: horizon - k]
        cov += np.outer(contrib, contrib) * stds[k] ** 2
    if not _all_finite(cov):
        raise NumericError("conditional covariance is not finite; the noise scale is too large")
    return cov
