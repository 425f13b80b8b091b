"""Command-line front end: synth, train, bench, diagnose.

Exit codes: 0 success, 2 usage error (argparse), 3 data error, 4 numeric or
conditioning error.  Failures print a machine-readable JSON object to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import bench as benchlib
from .data import (
    ArSpec,
    SeriesFrame,
    ar_conditional_cov,
    chrono_split,
    gen_ar,
    load_csv,
    make_windows,
    ramp_noise_schedule,
    standardize,
    write_csv,
)
from .diagnostics import check_threshold, fraction_above, partial_corr_matrix
from .errors import InvalidConfigError, InvalidSplitError, NumericError, QdfError
from .model import save_checkpoint
from .weighting import write_matrix_csv
from .workflow import OPTIMIZERS, VARIANTS, QdfConfig, run_variant


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdf",
        description="Train direct multi-step forecasters under a learnable "
        "quadratic-form weighted objective.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic AR series CSV plus its oracle covariance")
    p.add_argument("--phi", type=float, action="append", default=None,
                   help="AR coefficient; repeat for higher orders (default: none, white noise)")
    p.add_argument("--noise", type=float, default=1.0, help="innovation std (constant schedule)")
    p.add_argument("--ramp-from", type=float, default=None, help="variance at the first horizon step")
    p.add_argument("--ramp-to", type=float, default=None, help="variance at the last horizon step")
    p.add_argument("--n", type=int, default=20000, help="series length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--history", type=int, default=96, help="history slots of the ramp schedule")
    p.add_argument("--horizon", type=int, default=96, help="horizon for the oracle covariance")
    p.add_argument("--out", type=Path, required=True, help="output CSV path")
    p.add_argument("--oracle-json", type=Path, default=None,
                   help="sidecar path (default: <out>.oracle.json)")

    p = sub.add_parser("train", help="run one training variant end to end")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--valid-data", type=Path, default=None,
                   help="explicit validation CSV (otherwise carved from the training split)")
    p.add_argument("--date-column", action="store_true", help="skip the first CSV column")
    p.add_argument("--history", type=int, default=96)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--variant", choices=VARIANTS, default="qdf")
    # Tuning flags: each dest is a QdfConfig field, and its default is that field's.
    p.add_argument("--k-splits", type=int, default=QdfConfig.k_splits)
    p.add_argument("--inner-steps", type=int, default=QdfConfig.inner_steps)
    p.add_argument("--outer-rounds", type=int, default=QdfConfig.outer_rounds)
    p.add_argument("--eta", type=float, default=QdfConfig.eta)
    p.add_argument("--inner-lr", type=float, default=QdfConfig.inner_lr)
    p.add_argument("--lr", dest="final_lr", metavar="LR", type=float,
                   default=QdfConfig.final_lr, help="final-training learning rate")
    p.add_argument("--optimizer", dest="final_optimizer", choices=OPTIMIZERS,
                   default=QdfConfig.final_optimizer)
    p.add_argument("--epochs", type=int, default=QdfConfig.epochs)
    p.add_argument("--batch", dest="batch_size", metavar="BATCH", type=int,
                   default=QdfConfig.batch_size)
    p.add_argument("--seed", type=int, default=QdfConfig.seed)
    p.add_argument("--tol", type=float, default=QdfConfig.tol)
    p.add_argument("--dump-sigma", type=Path, default=None)
    p.add_argument("--report", type=Path, default=None, help="report JSON path (default: stdout)")
    p.add_argument("--save-model", type=Path, default=None, help="checkpoint prefix")

    p = sub.add_parser("bench", help="run the synthetic ablation benchmark matrix")
    p.add_argument("--presets", default="hetero-corr",
                   help=f"comma list from {benchlib.PRESETS}")
    p.add_argument("--variants", default="df,qdf,qdf-diag,qdf-offdiag",
                   help="comma list of variants")
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma list of seeds")
    p.add_argument("--n-windows", type=int, default=600)
    p.add_argument("--out-dir", type=Path, default=Path("bench_out"))

    p = sub.add_parser("diagnose", help="partial-correlation diagnostics of label steps")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--date-column", action="store_true")
    p.add_argument("--subsample", type=int, default=5000)
    p.add_argument("--reg-history", type=int, default=8)
    p.add_argument("--horizon", type=int, default=96)
    p.add_argument("--variable", type=int, default=None,
                   help="variable index (default: pooled across variables)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=0.1)
    p.add_argument("--out-prefix", type=Path, required=True)
    return parser


def cmd_synth(args) -> int:
    coeffs = tuple(args.phi) if args.phi else ()
    if (args.ramp_from is None) != (args.ramp_to is None):
        raise InvalidConfigError("--ramp-from and --ramp-to must be given together")
    noise = args.noise
    if args.ramp_from is not None:
        noise = noise * ramp_noise_schedule(args.history, args.horizon,
                                            args.ramp_from, args.ramp_to)
    spec = ArSpec(coeffs, noise, args.n, args.seed)
    # Everything that can be rejected comes first, so a rejection writes nothing.
    oracle = ar_conditional_cov(spec, args.horizon)
    series = gen_ar(spec)
    sidecar = args.oracle_json or args.out.with_suffix(args.out.suffix + ".oracle.json")
    payload = {
        "schema": 1,
        "coeffs": list(coeffs),
        "seed": args.seed,
        "length": args.n,
        "horizon": args.horizon,
        "conditional_covariance": oracle.tolist(),
    }
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    try:
        write_csv(series, args.out)
        sidecar.parent.mkdir(parents=True, exist_ok=True)
        sidecar.write_text(text, encoding="utf-8")
    except BaseException:
        # Both files or neither: a failed write takes the other one with it.
        for path in (args.out, sidecar):
            with contextlib.suppress(OSError):
                path.unlink()
        raise
    print(f"wrote {args.out} and {sidecar}")
    return 0


def _load_windows(args):
    """Chronological train/valid/test windows, standardized by train stats."""
    frame = load_csv(args.data, skip_first_column=args.date_column)
    if args.valid_data is not None:
        valid_frame = load_csv(args.valid_data, skip_first_column=args.date_column)
        if valid_frame.names != frame.names:
            raise InvalidSplitError(
                f"--valid-data columns {valid_frame.names} differ from "
                f"--data columns {frame.names}"
            )
        train_part, test_part = chrono_split(frame, [0.8, 0.2])
        parts = [train_part, valid_frame, test_part]
    else:
        parts = chrono_split(frame, [0.7, 0.1, 0.2])
    stats = standardize(parts[0])
    windows = [
        make_windows(
            SeriesFrame(stats.apply(p.values), list(p.names)),
            args.history, args.horizon, stride=args.stride,
        )
        for p in parts
    ]
    return (*windows, stats)


def cmd_train(args) -> int:
    train, valid, test, stats = _load_windows(args)
    cfg = QdfConfig(**{f.name: getattr(args, f.name) for f in fields(QdfConfig)})
    report, model, w = run_variant(train, valid, test, args.variant, cfg)
    if args.dump_sigma is not None:
        write_matrix_csv(args.dump_sigma, w.sigma)
        report.sigma_path = str(args.dump_sigma)
    report.config["data"] = {
        "path": str(args.data),
        "valid_path": str(args.valid_data) if args.valid_data else None,
        "history": args.history,
        "horizon": args.horizon,
        "stride": args.stride,
        "date_column": bool(args.date_column),
    }
    if args.save_model is not None:
        save_checkpoint(
            model,
            args.save_model,
            meta={
                "n_vars": train.n_vars,
                "mean": stats.mean.tolist(),
                "std": stats.std.tolist(),
            },
        )
    if args.report is not None:
        report.save(args.report)
        print(f"wrote {args.report}")
    else:
        print(report.to_json())
    return 0


def cmd_bench(args) -> int:
    presets = [s.strip() for s in args.presets.split(",") if s.strip()]
    variants = [s.strip() for s in args.variants.split(",") if s.strip()]
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise InvalidConfigError(
            f"--seeds must be a comma list of integers, got {args.seeds!r}"
        ) from None
    for kind, names, known in (("preset", presets, benchlib.PRESETS),
                               ("variant", variants, VARIANTS)):
        for name in names:
            if name not in known:
                raise InvalidConfigError(f"unknown {kind} {name!r}")
    for flag, values in (("--presets", presets), ("--variants", variants),
                         ("--seeds", seeds)):
        if not values:
            raise InvalidConfigError(f"{flag} lists no entries")
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise InvalidConfigError(f"{flag} repeats {repeated}; each entry runs once")
    # One run_matrix call per cell: a diverged cell (exit 4) is recorded and the
    # matrix goes on; any other error aborts it.
    reports, failed = [], []
    for preset in presets:
        for seed in seeds:
            for variant in variants:
                try:
                    reports += benchlib.run_matrix([preset], [variant], [seed],
                                                   n_windows=args.n_windows)
                except QdfError as exc:
                    if exc.exit_code != 4:
                        raise
                    failed.append({"preset": preset, "variant": variant, "seed": seed,
                                   "error": {"type": type(exc).__name__, "message": str(exc)}})
    rows = benchlib.aggregate(reports)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "bench.json").write_text(
        json.dumps({"schema": 1, "rows": rows,
                    "runs": [json.loads(r.to_json()) for r in reports], "failed": failed},
                   indent=2, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    header = "preset,variant,seeds,mse_mean,mse_std,mae_mean,mae_std,nll_mean,nll_std"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['preset']},{r['variant']},{r['seeds']},"
            f"{r['mse_mean']:.6f},{r['mse_std']:.6f},"
            f"{r['mae_mean']:.6f},{r['mae_std']:.6f},"
            f"{r['nll_mean']:.6f},{r['nll_std']:.6f}"
        )
    (out / "bench.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for r in rows:
        print(
            f"{r['preset']:12s} {r['variant']:12s} "
            f"mse {r['mse_mean']:.4f}±{r['mse_std']:.4f} "
            f"mae {r['mae_mean']:.4f}±{r['mae_std']:.4f}"
        )
    print(f"wrote {out/'bench.csv'} and {out/'bench.json'}")
    if failed:
        cells = ", ".join(f"{c['preset']}/{c['variant']}/{c['seed']}" for c in failed)
        raise NumericError(f"{len(failed)} bench cell(s) failed: {cells}; see {out / 'bench.json'}")
    return 0


def cmd_diagnose(args) -> int:
    check_threshold(args.threshold)
    frame = load_csv(args.data, skip_first_column=args.date_column)
    report = partial_corr_matrix(
        frame,
        history=args.reg_history,
        horizon=args.horizon,
        subsample=args.subsample,
        variable=args.variable,
        seed=args.seed,
    )
    prefix = Path(args.out_prefix)
    matrix_path = Path(f"{prefix}_matrix.csv")
    write_matrix_csv(matrix_path, report.matrix)
    summary = {
        "schema": 1,
        "threshold": args.threshold,
        f"fraction_above_{args.threshold:g}": fraction_above(report, args.threshold),
        "cond_var": report.cond_var.tolist(),
        "meta": report.meta,
        "flags": report.flags,
    }
    summary_path = Path(f"{prefix}_summary.json")
    summary_path.write_text(
        json.dumps(summary, indent=2, allow_nan=False) + "\n", encoding="utf-8"
    )
    print(f"wrote {matrix_path} and {summary_path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "synth": cmd_synth,
        "train": cmd_train,
        "bench": cmd_bench,
        "diagnose": cmd_diagnose,
    }
    # Warnings and qdf's log records are held back so that a failing run's
    # stderr is one JSON object.
    held = _HeldLog()
    logger = logging.getLogger("qdf")
    logger.addHandler(held)
    try:
        with warnings.catch_warnings(record=True) as caught:
            try:
                code = handlers[args.command](args)
            except QdfError as exc:
                _emit_error(exc, caught, held.messages)
                return exc.exit_code
            except (OSError, MemoryError) as exc:
                _emit_error(exc, caught, held.messages)
                return 3
    finally:
        logger.removeHandler(held)
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    for message in held.messages:
        print(message, file=sys.stderr)
    return code


class _HeldLog(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _emit_error(exc: BaseException, caught, messages) -> None:
    error = {"type": type(exc).__name__, "message": str(exc)}
    messages = [str(w.message) for w in caught] + messages
    if messages:
        error["warnings"] = messages
    print(json.dumps({"error": error}, allow_nan=False), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
