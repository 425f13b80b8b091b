"""Command-line front end: synth, train, bench, diagnose.

Exit codes: 0 success, 2 usage error (argparse), 3 data error, 4 numeric or
conditioning error.  Failures print a machine-readable JSON object to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bench as benchlib
from .data import (
    ArSpec,
    ar_conditional_cov,
    chrono_split,
    gen_ar,
    load_csv,
    make_windows,
    ramp_noise_schedule,
    standardize,
    write_csv,
)
from .diagnostics import fraction_above, partial_corr_matrix
from .errors import InvalidSplitError, QdfError
from .model import save_checkpoint
from .weighting import write_matrix_csv
from .workflow import VARIANTS, QdfConfig, run_variant


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
    p.add_argument("--k-splits", type=int, default=3)
    p.add_argument("--inner-steps", type=int, default=1)
    p.add_argument("--outer-rounds", type=int, default=10)
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--inner-lr", type=float, default=0.02)
    p.add_argument("--lr", type=float, default=0.01, help="final-training learning rate")
    p.add_argument("--optimizer", choices=["sgd", "adam"], default="sgd")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4)
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
        raise InvalidSplitError("--ramp-from and --ramp-to must be given together")
    if args.ramp_from is not None:
        sched = args.noise * ramp_noise_schedule(
            args.history, args.horizon, args.ramp_from, args.ramp_to
        )
        noise = sched
    else:
        noise = args.noise
    spec = ArSpec(coeffs, noise, args.n, args.seed)
    frame = gen_ar(spec)
    write_csv(frame, args.out)
    oracle = ar_conditional_cov(spec, args.horizon)
    sidecar = args.oracle_json or args.out.with_suffix(args.out.suffix + ".oracle.json")
    payload = {
        "schema": 1,
        "coeffs": list(coeffs),
        "seed": args.seed,
        "length": args.n,
        "horizon": args.horizon,
        "conditional_covariance": oracle.tolist(),
    }
    Path(sidecar).write_text(
        json.dumps(payload, indent=2, allow_nan=False) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.out} and {sidecar}")
    return 0


def _load_windows(args):
    """Chronological train/valid/test windows, standardized by train stats."""
    from .data import SeriesFrame

    frame = load_csv(args.data, skip_first_column=args.date_column)
    if args.valid_data is not None:
        valid_frame = load_csv(args.valid_data, skip_first_column=args.date_column)
        train_part, test_part = chrono_split(frame, [0.8, 0.2])
        parts = [train_part, valid_frame, test_part]
    else:
        parts = chrono_split(frame, [0.7, 0.1, 0.2])
    _, stats = standardize(parts[0])
    windows = [
        make_windows(
            SeriesFrame(stats.apply(p.values), list(p.names), p.source),
            args.history, args.horizon, stride=args.stride,
        )
        for p in parts
    ]
    return (*windows, stats)


def cmd_train(args) -> int:
    train, valid, test, stats = _load_windows(args)
    cfg = QdfConfig(
        k_splits=args.k_splits,
        outer_rounds=args.outer_rounds,
        inner_steps=args.inner_steps,
        inner_lr=args.inner_lr,
        eta=args.eta,
        tol=args.tol,
        epochs=args.epochs,
        batch_size=args.batch,
        final_lr=args.lr,
        final_optimizer=args.optimizer,
        seed=args.seed,
    )
    report, model, w = run_variant(
        train, valid, test, args.variant, cfg, sigma_path=args.dump_sigma
    )
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
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    for kind, names, known in (("preset", presets, benchlib.PRESETS),
                               ("variant", variants, VARIANTS)):
        for name in names:
            if name not in known:
                raise InvalidSplitError(f"unknown {kind} {name!r}")
    reports = benchlib.run_matrix(presets, variants, seeds, n_windows=args.n_windows)
    rows = benchlib.aggregate(reports)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "bench.json").write_text(
        json.dumps({"schema": 1, "rows": rows,
                    "runs": [json.loads(r.to_json()) for r in reports]},
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
    return 0


def cmd_diagnose(args) -> int:
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
    prefix.parent.mkdir(parents=True, exist_ok=True)
    matrix_path = Path(f"{prefix}_matrix.csv")
    write_matrix_csv(matrix_path, report.matrix)
    summary = {
        "schema": 1,
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
    try:
        return handlers[args.command](args)
    except QdfError as exc:
        _emit_error(exc)
        return exc.exit_code
    except OSError as exc:
        _emit_error(exc)
        return 3


def _emit_error(exc: BaseException) -> None:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload, allow_nan=False), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
