"""The default benchmark matrix, pinned cell by cell (a characterization test).

Every cell of 4 presets x 4 variants x seeds 0-4 at 600 windows runs as its
own ``run_matrix`` call, as ``qdf bench`` runs it, and is compared with the
committed ``data/bench_matrix.json``: status, error class, outer rounds and
phase step counts exactly, the test metrics at rtol 1e-12 (BLAS kernels
differ by CPU in the last bits).  Only a change that means to move results
regenerates the fixture, and names every moved cell:

    PYTHONPATH=src python tests/test_bench_matrix.py
"""

import json
import math
from pathlib import Path

import pytest

from qdf import bench
from qdf.errors import QdfError
from qdf.workflow import VARIANTS

FIXTURE = Path(__file__).parent / "data" / "bench_matrix.json"
SEEDS = range(5)


def run_cells() -> dict:
    """Per cell "preset/variant/seed": what the fixture records of it."""
    cells = {}
    try:
        for preset in bench.PRESETS:
            for seed in SEEDS:
                for variant in VARIANTS:
                    key = f"{preset}/{variant}/{seed}"
                    try:
                        (report,) = bench.run_matrix([preset], [variant], [seed])
                    except QdfError as exc:
                        cells[key] = {"status": "failed", "error": type(exc).__name__}
                        continue
                    cells[key] = {
                        "status": "passed",
                        "error": None,
                        "rounds": len(report.frobenius_trace),
                        "phase_steps": report.phase_steps,
                        "metrics": report.metrics,
                    }
    finally:
        bench._held.clear()
    return cells


def test_default_matrix_matches_the_pinned_cells():
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = run_cells()
    assert list(got) == list(want)
    failed = [key for key, cell in want.items() if cell["status"] == "failed"]
    assert failed == ["hetero-corr/qdf-offdiag/3"]
    for key, cell in want.items():
        metrics = cell.pop("metrics", {})
        got_metrics = got[key].pop("metrics", {})
        assert got[key] == cell, key
        assert set(got_metrics) == set(metrics), key
        for name, value in metrics.items():
            assert math.isclose(got_metrics[name], value, rel_tol=1e-12, abs_tol=0.0), (
                key, name, got_metrics[name], value)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(run_cells(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
