"""In-memory spans around calls into qdf's modules, installed from outside.

Each public function is replaced at the name its calling module looks it up
(``qdf.workflow.atomic_update``, ``qdf.objective.materialize``, ...), so the
library itself carries no instrumentation.  A span records its name, parent
span, wall and CPU start/end, plus an optional value taken from the call
(a validation loss, a round count, a tracemalloc peak).  Spans stay in
memory and are written out once, when the traced run ends.  Allocation
peaks are measured by replaying the call under tracemalloc afterwards (see
``Tracer.measure_allocations``), so tracemalloc does not slow the timed spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
from contextlib import contextmanager

# (module, attribute, span name).  The span name is "<defining module>.<function>";
# one function is wrapped at every module that calls it.
WRAPS = [
    ("qdf.cli", "load_csv", "data.load_csv"),
    ("qdf.cli", "chrono_split", "data.chrono_split"),
    ("qdf.cli", "standardize", "data.standardize"),
    ("qdf.cli", "make_windows", "data.make_windows"),
    ("qdf.cli", "partial_corr_matrix", "diagnostics.partial_corr_matrix"),
    ("qdf.cli", "run_variant", "workflow.run_variant"),
    ("qdf.diagnostics", "make_windows", "data.make_windows"),
    ("qdf.bench", "run_matrix", "bench.cell"),
    ("qdf.bench", "benchmark_data", "bench.benchmark_data"),
    ("qdf.bench", "gen_ar", "data.gen_ar"),
    ("qdf.bench", "make_windows", "data.make_windows"),
    ("qdf.bench", "chrono_split", "data.chrono_split"),
    ("qdf.bench", "run_variant", "workflow.run_variant"),
    ("qdf.data.WindowSet", "as_samples", "data.as_samples"),
    ("qdf.workflow", "learn_weighting", "workflow.learn_weighting"),
    ("qdf.workflow", "train_final", "workflow.train_final"),
    ("qdf.workflow", "evaluate", "workflow.evaluate"),
    ("qdf.workflow", "chrono_split", "data.chrono_split"),
    ("qdf.workflow", "make_split_pair", "bilevel.make_split_pair"),
    ("qdf.workflow", "atomic_update", "bilevel.atomic_update"),
    ("qdf.workflow", "forecast_batch", "model.forecast_batch"),
    ("qdf.workflow", "grad_params_batch", "model.grad_params_batch"),
    ("qdf.workflow", "sgd_step", "model.sgd_step"),
    ("qdf.workflow", "quadratic_loss", "objective.quadratic_loss"),
    ("qdf.workflow", "grad_wrt_residual", "objective.grad_wrt_residual"),
    ("qdf.workflow", "materialize", "weighting.materialize"),
    ("qdf.objective", "materialize", "weighting.materialize"),
    ("qdf.bilevel", "materialize", "weighting.materialize"),
    ("qdf.bilevel", "normalize_scale", "weighting.normalize_scale"),
    ("qdf.weighting", "materialize", "weighting.materialize"),
]


# Spans whose value is the tracemalloc peak of the call, in bytes.
ALLOC_SPANS = {"data.make_windows"}


def _value_of(name: str, out):
    """What a span keeps of its call's return value."""
    if name == "objective.quadratic_loss":
        return float(out)  # inside train_final: one per epoch, the validation loss
    if name == "workflow.learn_weighting":
        return len(out[1])  # outer rounds run
    return None


class Tracer:
    def __init__(self):
        # Each span: [name, parent index, t0, t1, cpu0, cpu1, value]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._replays: list[tuple] = []

    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[4] = time.process_time()
        rec[2] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        rec[5] = time.process_time()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, fn, name: str):
        """``fn`` inside a span; inlined rather than ``with span`` to keep the
        per-call cost, paid thousands of times per run, small."""
        keep_args = name in ALLOC_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            rec[6] = _value_of(name, out)
            if keep_args:
                self._replays.append((rec, fn, args, kwargs))
            return out

        return traced

    def measure_allocations(self) -> None:
        """Give each ALLOC_SPANS span the tracemalloc peak of an identical call.

        The calls are replayed after the traced run, so tracemalloc never slows
        a timed span; the span's value becomes the peak in bytes.
        """
        with self.span("trace.replay_allocations"):
            for rec, fn, args, kwargs in self._replays:
                tracemalloc.start()
                try:
                    fn(*args, **kwargs)
                    rec[6] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        self._replays.clear()

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def _resolve(dotted: str):
    """A module, or a class inside one (``qdf.data.WindowSet``)."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        mod, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


def install(tracer: Tracer) -> list[str]:
    """Wrap every name in WRAPS; returns the names that no longer exist."""
    missing = []
    for owner_name, attr, span_name in WRAPS:
        try:
            owner = _resolve(owner_name)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{owner_name}.{attr}")
            continue
        setattr(owner, attr, tracer.wrap(fn, span_name))
    return missing
