"""Child-process side of the benchmark; every mode runs in a fresh interpreter.

    child.py gen [csv seed rows phi cols]     warm up, write the input, print the environment
    child.py setup <cli argv...>              the public calls the CLI makes before its command's work
    child.py bench <out.json>                 the 80-cell ablation matrix, one run_matrix per cell;
                                              prints the stamp at which qdf.bench is imported
    child.py trace <spans.json> <workload> [argv...]
                                              one operation in-process, spans around module calls

``run.py`` starts these with ``PYTHONPATH`` pointing at the checkout's ``src``
and single-threaded BLAS; it never imports ``qdf`` itself.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def stamp() -> float:
    """System-wide monotonic clock, comparable with the parent's spawn stamp."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# --- inputs ---------------------------------------------------------------


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def cmd_gen(args: list[str]) -> None:
    """Write ``csv`` (if given) from a seeded AR(1); print the environment.

    Also the run's warm-up: importing qdf.cli compiles every module's .pyc.
    """
    import qdf.cli  # noqa: F401

    if args:
        from qdf import ArSpec, gen_ar, gen_ar_frame, write_csv

        csv, seed, rows, phi, cols = args
        spec = ArSpec((float(phi),), 1.0, int(rows), int(seed))
        frame = gen_ar(spec) if cols == "1" else gen_ar_frame(spec, int(cols))
        write_csv(frame, csv)
    print(json.dumps(environment()))


# --- set-up probe ---------------------------------------------------------


def cmd_setup(argv: list[str]) -> None:
    """Spawn-to-ready: the public calls the CLI makes before its command's work, then exit."""
    from qdf.cli import build_parser, load_csv

    load_csv(build_parser().parse_args(argv).data)
    print(stamp())


# --- bench cells ----------------------------------------------------------


def run_cells(bench) -> dict:
    """Every (preset, variant, seed) cell as its own run_matrix call.

    A cell that raises is recorded and the matrix goes on.  ``bench`` is the
    ``qdf.bench`` module; run_matrix is looked up on it per call so a traced
    run can wrap it.
    """
    from qdf.errors import QdfError
    from qdf.workflow import VARIANTS

    cells, reports = [], []
    for preset in bench.PRESETS:
        for variant in VARIANTS:
            for seed in range(5):
                cell = {"preset": preset, "variant": variant, "seed": seed}
                try:
                    (report,) = bench.run_matrix([preset], [variant], [seed])
                except QdfError as exc:
                    cell["error"] = {"type": type(exc).__name__, "message": str(exc)}
                except Exception as exc:  # a contract break, not a counted defect
                    cell["error"] = {
                        "type": type(exc).__name__,
                        "message": str(exc),
                        "traceback": traceback.format_exc(),
                    }
                else:
                    cell["metrics"] = report.metrics
                    reports.append(report)
                cells.append(cell)
    return {
        "cells": cells,
        "rows": bench.aggregate(reports),
        "timings_cpu_ms": _sum_dicts(r.timings_cpu_ms for r in reports),
        "phase_steps": _sum_dicts(r.phase_steps for r in reports),
    }


def _sum_dicts(dicts) -> dict:
    total: dict = {}
    for d in dicts:
        for k, v in d.items():
            total[k] = total.get(k, 0) + v
    return total


def cmd_bench(out_path: str) -> None:
    """Run the matrix; the stamp after the import is the operation's set-up time."""
    import qdf.bench as bench

    print(stamp(), flush=True)
    result = run_cells(bench)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, allow_nan=False)


# --- traced run -----------------------------------------------------------


def cmd_trace(spans_path: str, workload: str, argv: list[str]) -> int:
    from tracer import Tracer, install

    tracer = Tracer()
    extra: dict = {}
    with tracer.span("cli.import"):
        if workload == "bench":
            import qdf.bench as bench
        else:
            import qdf.cli
    extra["missing"] = install(tracer)
    try:
        if workload == "bench":
            result = run_cells(bench)
            with open(argv[0], "w", encoding="utf-8") as fh:
                json.dump(result, fh, allow_nan=False)
            code = 0
        else:
            code = qdf.cli.main(argv)
    finally:
        tracer.measure_allocations()
        tracer.dump(spans_path, extra)
    return code


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "gen":
        cmd_gen(rest)
    elif mode == "setup":
        cmd_setup(rest)
    elif mode == "bench":
        cmd_bench(rest[0])
    elif mode == "trace":
        return cmd_trace(rest[0], rest[1], rest[2:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
