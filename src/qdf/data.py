"""Dataset ingestion, windowing, chronological splitting, and synthetic data.

The synthetic side generates autoregressive series with an optional periodic
innovation-scale schedule and provides the exact conditional covariance of
the label steps given the past, which serves as the oracle for benchmark and
diagnostic tests.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from .errors import (
    CsvParseError,
    InsufficientDataError,
    InvalidDimensionError,
    InvalidSplitError,
    NumericError,
    UnstableSpecError,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SeriesFrame:
    """Time-major N x D value matrix with column names and provenance."""

    values: np.ndarray
    names: list[str]
    source: str = ""

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if v.ndim != 2:
            raise InvalidDimensionError("values must be 2-D (time x variables)")
        if v.shape[1] != len(self.names):
            raise InvalidDimensionError(
                f"{v.shape[1]} columns but {len(self.names)} names"
            )
        if not np.all(np.isfinite(v)):
            raise NumericError("series contains non-finite entries")
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
    source rows [s, s + H + T).  Reads through ``arrays`` / ``as_samples``
    are counted so leakage tests can assert a split was never touched.
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

    def as_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """Flatten variables into rows: (n*D, H) inputs, (n*D, T) labels."""
        X, Y = self.arrays()
        n, H, D = X.shape
        T = Y.shape[1]
        Xs = X.transpose(0, 2, 1).reshape(n * D, H)
        Ys = Y.transpose(0, 2, 1).reshape(n * D, T)
        return Xs, Ys

    def slice(self, lo: int, hi: int) -> "WindowSet":
        child = WindowSet(self._X[lo:hi], self._Y[lo:hi], self.starts[lo:hi])
        child._parent = self
        return child

    def coverage(self) -> tuple[int, int]:
        """Half-open range of source rows touched by any window."""
        span = self.history + self.horizon
        return int(self.starts.min()), int(self.starts.max()) + span


def load_csv(path, skip_first_column: bool = False, has_header: bool = True) -> SeriesFrame:
    """Read a comma-separated, '.'-decimal, UTF-8 file into a SeriesFrame.

    Rows containing non-finite values after parsing, or a cell count other
    than the first row's, are rejected with a parse error carrying the
    1-based row (and, for a bad cell, the column).
    """
    path = Path(path)
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise CsvParseError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        rows = []
        names = None
        width = None
        for i, row in enumerate(reader):
            if not row:
                continue
            cells = row[1:] if skip_first_column else row
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise CsvParseError(
                    f"row {i + 1} has {len(cells)} cells, expected {width}", row=i + 1
                )
            if i == 0 and has_header:
                names = cells
                continue
            parsed = []
            for j, cell in enumerate(cells):
                try:
                    v = float(cell)
                except ValueError:
                    raise CsvParseError(
                        f"non-numeric cell {cell!r} at row {i + 1}, column {j + 1}",
                        row=i + 1,
                        column=j + 1,
                    ) from None
                if not np.isfinite(v):
                    raise CsvParseError(
                        f"non-finite cell at row {i + 1}, column {j + 1}",
                        row=i + 1,
                        column=j + 1,
                    )
                parsed.append(v)
            rows.append(parsed)
    if not rows:
        raise CsvParseError(f"{path} contains no data rows")
    values = np.asarray(rows, dtype=float)
    if names is None:
        names = [f"v{j}" for j in range(values.shape[1])]
    return SeriesFrame(values, list(names), source=str(path))


def write_csv(frame: SeriesFrame, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(frame.names)
        for row in frame.values:
            writer.writerow([f"{v:.17g}" for v in row])


@dataclass
class Standardizer:
    mean: np.ndarray
    std: np.ndarray
    floored: list[int] = field(default_factory=list)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def invert(self, values: np.ndarray) -> np.ndarray:
        return values * self.std + self.mean


def standardize(frame: SeriesFrame, stats_rows: tuple[int, int] | None = None):
    """Zero-mean/unit-variance columns using stats from the given row range.

    ``stats_rows`` defaults to the whole frame; pass the training region to
    avoid leaking future statistics.  Constant columns get a 1e-8 std floor.
    """
    lo, hi = stats_rows if stats_rows is not None else (0, frame.length)
    block = frame.values[lo:hi]
    if block.shape[0] == 0:
        raise InvalidSplitError("statistics range is empty")
    mean = block.mean(axis=0)
    std = block.std(axis=0)
    floored = [int(j) for j in np.nonzero(std < 1e-8)[0]]
    if floored:
        log.warning("std floor applied to columns %s", floored)
    std = np.maximum(std, 1e-8)
    stats = Standardizer(mean, std, floored)
    out = SeriesFrame(stats.apply(frame.values), list(frame.names), frame.source)
    return out, stats


def make_windows(
    frame: SeriesFrame, history: int, horizon: int, stride: int = 1, offset: int = 0
) -> WindowSet:
    """Extract (X, Y) pairs; X ends exactly where Y begins.

    With stride=1 the window count is N - H - T + 1.  A larger stride keeps
    only starts at offset, offset+stride, ... (used to phase-align windows
    against a periodic innovation schedule).
    """
    if history < 1 or horizon < 1 or stride < 1:
        raise InvalidDimensionError("history, horizon and stride must be >= 1")
    if offset < 0:
        raise InvalidDimensionError("offset must be >= 0")
    span = history + horizon
    if frame.length < span:
        raise InsufficientDataError(
            f"need at least {span} rows, have {frame.length}"
        )
    starts = np.arange(offset, frame.length - span + 1, stride)
    if starts.size == 0:
        raise InsufficientDataError("stride/offset leave no complete window")
    X = np.stack([frame.values[s : s + history] for s in starts])
    Y = np.stack([frame.values[s + history : s + span] for s in starts])
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
            SeriesFrame(data.values[lo:hi], list(data.names), data.source)
            for lo, hi in _part_bounds(data.length, fractions)
        ]
    if isinstance(data, WindowSet):
        return [data.slice(lo, hi) for lo, hi in _part_bounds(len(data), fractions)]
    raise TypeError(f"cannot split {type(data).__name__}")


@dataclass(frozen=True)
class ArSpec:
    """Stable AR(p) process spec with a per-step innovation-scale schedule.

    ``noise_std`` is either a scalar or a 1-D array treated as periodic with
    its own length, anchored at the first retained sample.
    """

    coeffs: tuple[float, ...]
    noise_std: float | np.ndarray = 1.0
    length: int = 1000
    seed: int = 0

    def __post_init__(self):
        coeffs = tuple(float(c) for c in np.asarray(self.coeffs, dtype=float).ravel())
        object.__setattr__(self, "coeffs", coeffs)
        sched = np.atleast_1d(np.asarray(self.noise_std, dtype=float))
        if np.any(sched <= 0) or not np.all(np.isfinite(sched)):
            raise UnstableSpecError("noise_std entries must be positive and finite")
        object.__setattr__(self, "noise_std", sched)
        if self.length < 1:
            raise InvalidDimensionError("length must be >= 1")
        if coeffs and np.max(np.abs(_companion_eigs(coeffs))) >= 1.0 - 1e-9:
            raise UnstableSpecError(
                f"AR coefficients {coeffs} are not stable"
            )

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def std_at(self, t: int) -> float:
        return float(self.noise_std[t % self.noise_std.shape[0]])


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
    then variance ramping var_start -> var_end across the horizon slots."""
    head = np.full(history, np.sqrt(var_start))
    tail = np.sqrt(np.linspace(var_start, var_end, horizon))
    return np.concatenate([head, tail])


def ma_weights(coeffs, count: int) -> np.ndarray:
    """First ``count`` moving-average weights of the AR polynomial (psi_0=1)."""
    psi = np.zeros(count)
    if count == 0:
        return psi
    psi[0] = 1.0
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
    """
    rng = np.random.default_rng(spec.seed)
    p = spec.order
    burn = 10 * p
    total = spec.length + burn
    period = spec.noise_std.shape[0]
    stds = spec.noise_std[(np.arange(total) - burn) % period]
    eps = rng.standard_normal(total) * stds
    y = lfilter([1.0], np.r_[1.0, -np.asarray(spec.coeffs)], eps)
    return SeriesFrame(
        y[burn:, None],
        ["y"],
        source=f"ar(p={p}, seed={spec.seed})",
    )


def gen_ar_frame(spec: ArSpec, n_vars: int) -> SeriesFrame:
    """Stack independent realizations (per-variable child seeds) as columns."""
    seeds = np.random.SeedSequence(spec.seed).spawn(n_vars)
    cols = []
    for child in seeds:
        child_seed = int(child.generate_state(1)[0])
        frame = gen_ar(
            ArSpec(spec.coeffs, spec.noise_std, spec.length, child_seed)
        )
        cols.append(frame.values[:, 0])
    return SeriesFrame(
        np.column_stack(cols),
        [f"y{d}" for d in range(n_vars)],
        source=f"ar(p={spec.order}, seed={spec.seed}, vars={n_vars})",
    )


def ar_conditional_cov(spec: ArSpec, horizon: int, label_offset: int | None = None) -> np.ndarray:
    """Exact covariance of the next ``horizon`` steps given the full past.

    Only innovations entering after the conditioning time contribute:
    Cov[i, j] = sum_k psi_{i-k} psi_{j-k} sigma_k^2 over label steps k.
    ``label_offset`` is the schedule position of the first label step; it
    defaults to the schedule period minus the horizon, matching windows
    whose starts are aligned to the schedule period.
    """
    if horizon < 1:
        raise InvalidDimensionError("horizon must be >= 1")
    psi = ma_weights(spec.coeffs, horizon)
    period = spec.noise_std.shape[0]
    if label_offset is None:
        label_offset = (period - horizon) % period
    stds = spec.noise_std[(label_offset + np.arange(horizon)) % period]
    cov = np.zeros((horizon, horizon))
    for k in range(horizon):  # innovation entering at label step k (0-based)
        contrib = np.zeros(horizon)
        contrib[k:] = psi[: horizon - k]
        cov += np.outer(contrib, contrib) * stds[k] ** 2
    return cov


def cov_to_corr(cov: np.ndarray) -> np.ndarray:
    d = np.sqrt(np.diagonal(cov))
    return cov / np.outer(d, d)
