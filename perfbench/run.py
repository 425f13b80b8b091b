"""Layered benchmark of the qdf library and CLI.

    python3 perfbench/run.py --workload diagnose --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all        # every workload, timed then traced
    python3 perfbench/run.py --record-reference    # rewrite reference.json at seed 0

Run it from a checkout of the repository.  Each workload runs as child
processes against ``src/qdf`` with single-threaded BLAS, one child at a time;
each child's CPU time and peak RSS come from its own rusage (``os.wait4``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: wall and CPU
time per operation at a fixed host speed (``wall_cal_s``, ``cpu_cal_s``: the
median over the run, scaled by a calibration task timed in the same run; see
CALIBRATION), peak RSS per operation and set-up time, each the median over
the run.  The raw ``wall_s`` and ``cpu_s`` are printed beside them.
``--seconds`` is the measuring time of the run: set-up probes, operations and
calibrations all count, and no operation starts that would be expected to end
past it.  ``bench`` times its set-up inside every operation (the import
before the first cell); ``diagnose`` takes three separate probes.  The
untimed child that writes the inputs is the warm-up: it imports ``qdf.cli``,
compiling every ``.pyc``, and leaves the input in the page cache.
``--trace 1`` makes one untraced and one traced operation and reports the
per-layer metrics from spans recorded around calls into each module (see
tracer.py).

Every operation passes the correctness gate: CLI exit code, no traceback,
strict JSON outputs, and equality with reference.json at the reference seed
or seed-independent invariants at any other seed.  The last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
SETUP_PROBES = 3
RUN_BUDGET_S = 170.0  # children are killed past this, so a run ends within 180 s

# A fixed task that does not touch qdf, run as its own child at the start of a
# timed run and after every set-up probe and operation.  The host's speed
# drifts by a third over minutes (shared cores) and moves this task and the
# operations together; dividing the operations' median time by this task's
# median time in the same run cancels most of the drift.  It mixes interpreter
# work with small numpy calls, as qdf does.
CALIBRATION = """
import numpy as np
a = np.linspace(0.5, 1.5, 256).reshape(16, 16) / 16
x = np.ones(16)
acc = 0.0
rows = {}
for i in range(20000):
    x = a @ x
    x /= x.sum()
    acc += float(x[i % 16])
    rows[i % 97] = acc
print(f"{acc:.3f}")
"""
CALIBRATION_OUTPUT = "1250.000"
CALIBRATION_NOMINAL_S = 0.3  # the task's median time on the 2-vCPU host the bounds were set on
# After a long operation the task runs until it has taken this share of the
# operation's time, so one noisy sample does not set the run's speed.
CALIBRATION_SHARE = 0.05

# CLI argv of each workload; {csv} is the generated input, {out} the op's output dir.
CLI_ARGV = {
    "diagnose": [
        "diagnose", "--data", "{csv}", "--reg-history", "8", "--horizon", "96",
        "--subsample", "5000", "--out-prefix", "{out}/diag",
    ],
}
# Rows, AR(1) coefficient and columns of each CLI workload's generated series.
INPUTS = {"diagnose": (20_000, 0.5, 8)}
WORKLOADS = ("diagnose", "bench")
BENCH_CELLS = 80
PHASES = ("inner_fwd", "inner_bwd", "outer_fwd", "outer_bwd")

_TRAIN_SPANS = [
    "data.as_samples", "weighting.materialize", "weighting.normalize_scale",
    "objective.quadratic_loss", "objective.grad_wrt_residual", "model.sgd_step",
    "model.forecast_batch", "model.grad_params_batch", "bilevel.atomic_update",
    "bilevel.make_split_pair", "workflow.run_variant", "workflow.learn_weighting",
    "workflow.train_final", "workflow.evaluate",
]
EXPECTED_SPANS = {
    "diagnose": ["cli.import", "data.load_csv", "data.make_windows",
                 "diagnostics.partial_corr_matrix"],
    "bench": ["cli.import", "bench.cell", "bench.benchmark_data", "data.gen_ar",
              "data.make_windows", "data.chrono_split"] + _TRAIN_SPANS,
}


class BenchError(Exception):
    """The benchmark cannot run (no program, or inputs could not be made)."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# --- processes -------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Imports read cached .pyc, as an installed qdf would, whatever the caller's setting.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Runner:
    """Spawns one child at a time and accounts for it from its own rusage."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()

    def spawn(self, cmd: list[str], tag: str) -> dict:
        out_path, err_path = self.work / f"{tag}.out", self.work / f"{tag}.err"
        timeout = self.deadline - now()
        if timeout <= 0:
            raise BenchError("run budget exhausted")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = now()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.work)
            killer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            t1 = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "t0": t0,
            "wall": t1 - t0,
            "cpu": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024.0,  # Linux reports KiB
            "code": proc.returncode,
            "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
            "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
        }

    def calibrate(self) -> dict:
        res = self.checked(["-c", CALIBRATION], "cal")
        if res["stdout"].strip() != CALIBRATION_OUTPUT:
            raise BenchError(f"calibration printed {res['stdout'].strip()!r}")
        return res

    def python(self, args: list[str], tag: str) -> dict:
        return self.spawn([sys.executable, *args], tag)

    def checked(self, args: list[str], tag: str) -> dict:
        res = self.python(args, tag)
        if res["code"] != 0:
            raise BenchError(f"{tag} exited {res['code']}:\n{res['stderr'][-2000:]}")
        return res


# --- strict outputs and comparisons ---------------------------------------


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def strict_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def close(a: float, b: float) -> bool:
    """Admits reordered sums (a few ulp, amplified through the unrolled loops)
    but not a changed algorithm."""
    return abs(a - b) <= 1e-9 + 1e-6 * abs(b)


def matches(got, want) -> bool:
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(matches(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(matches, got, want))
    if isinstance(want, float):
        return isinstance(got, (int, float)) and close(got, want)
    return got == want


def compare(name: str, got, want, problems: list[str]) -> None:
    """Append a problem if ``got`` differs from the reference ``want``."""
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        bad = [i for i, (g, w) in enumerate(zip(got, want)) if not matches(g, w)]
        if bad:
            problems.append(f"{name}: {len(bad)} of {len(want)} entries differ from the "
                            f"reference, first at [{bad[0]}]")
    elif not matches(got, want):
        problems.append(f"{name} differs from the reference: {got!r:.200} != {want!r:.200}")


def finite_positive(name: str, value, problems: list[str]) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        problems.append(f"{name} = {value!r} is not finite and positive")


# --- per-workload outputs --------------------------------------------------


def diagnose_outputs(out: Path) -> dict:
    rows = (out / "diag_matrix.csv").read_text(encoding="utf-8").split()
    summary = strict_json(out / "diag_summary.json")
    return {"matrix": [[float(x) for x in r.split(",")] for r in rows],
            "cond_var": summary["cond_var"], "meta": summary["meta"]}


def ar1_cond_cov(phi: float, i: int, j: int) -> float:
    """Covariance of label steps i and j of a unit-innovation AR(1) given its past."""
    return phi ** abs(i - j) * (1 - phi ** (2 * (min(i, j) + 1))) / (1 - phi**2)


def check_diagnose(got: dict, problems: list[str]) -> None:
    """Invariants of the pooled partial-correlation matrix of independent AR(1)
    columns; sampling error stays under 0.03 on 5000 windows."""
    _, phi, cols = INPUTS["diagnose"]
    m = got["matrix"]
    T = 96  # --horizon of the diagnose argv
    if len(m) != T or any(len(r) != T for r in m):
        problems.append(f"partial-correlation matrix is not {T} x {T}")
        return
    if any(m[i][j] != m[j][i] for i in range(T) for j in range(i)):
        problems.append("partial-correlation matrix is not symmetric")
    if any(m[i][i] != 1.0 for i in range(T)):
        problems.append("partial-correlation diagonal is not 1")
    sd = [math.sqrt(ar1_cond_cov(phi, i, i)) for i in range(T)]
    worst = max(abs(m[i][j] - ar1_cond_cov(phi, i, j) / (sd[i] * sd[j]))
                for i in range(T) for j in range(T))
    if not worst < 0.06:
        problems.append(f"partial correlations are {worst:.3f} from the AR(1) oracle")
    if got["meta"].get("windows") != 5000 or got["meta"].get("samples") != 5000 * cols:
        problems.append(f"meta {got['meta']} is not 5000 windows x {cols} variables")
    for k, v in enumerate(got["cond_var"]):
        if not abs(v - sd[k] ** 2) < 0.1 * sd[k] ** 2:
            problems.append(f"cond_var[{k}] = {v!r} far from the AR(1) value {sd[k] ** 2:.3f}")
            break


def cell_key(c: dict) -> str:
    return f"{c['preset']}/{c['variant']}/{c['seed']}"


def bench_outputs(out: Path) -> dict:
    return strict_json(out / "bench.json")


def check_bench(got: dict, ref: dict | None) -> tuple[int, bool, list[str]]:
    """(failed cells, whether every failure is a recorded defect, problems).

    The cells are fixed, so they are always compared with the reference.  A
    cell that failed in the reference and fails the same way counts as failed
    but keeps the run correct; if it starts succeeding, that is a fix.
    """
    problems: list[str] = []
    want = ref["cells"] if ref else {}
    failed, unknown = 0, 0
    if len(got["cells"]) != BENCH_CELLS:
        unknown += 1
        problems.append(f"{len(got['cells'])} cells run, expected {BENCH_CELLS}")
    for c in got["cells"]:
        key, w = cell_key(c), want.get(cell_key(c), {})
        if "error" in c:
            failed += 1
            err = f"{c['error']['type']}: {c['error']['message']}"
            if w.get("error") == c["error"]["type"]:
                problems.append(f"known defect: cell {key} failed ({err})")
            else:
                unknown += 1
                problems.append(f"cell {key} failed: {err}")
            continue
        bad: list[str] = []
        for k in ("mse", "mae", "nll"):
            finite_positive(f"cell {key} {k}", c["metrics"].get(k), bad)
        if "metrics" in w:
            compare(f"cell {key}", c["metrics"], w["metrics"], bad)
        if bad:
            failed += 1
            unknown += 1
            problems.extend(bad)
    if ref is not None:
        fixed = sorted({k for k, w in want.items() if "error" in w}
                       - {cell_key(c) for c in got["cells"] if "error" in c})
        problems.extend(f"recorded defect fixed: cell {k} now succeeds" for k in fixed)
        skip = {k.rsplit("/", 1)[0] for k in fixed}  # their rows gain a seed

        def rows(rs):
            return [r for r in rs if f"{r['preset']}/{r['variant']}" not in skip]

        bad = []
        compare("aggregate rows", rows(got["rows"]), rows(ref["rows"]), bad)
        unknown += bool(bad)
        problems.extend(bad)
    return failed, unknown == 0, problems


def check_outputs(name: str, got: dict, ref: dict | None) -> tuple[int, bool, list[str]]:
    """(failed operations, correct, problems) for one operation's outputs."""
    if name == "bench":
        return check_bench(got, ref)
    problems: list[str] = []
    check_diagnose(got, problems)
    if ref is not None:
        for k in ref:
            compare(k, got[k], ref[k], problems)
    return int(bool(problems)), not problems, problems


READERS = {"diagnose": diagnose_outputs, "bench": bench_outputs}


# --- one operation ---------------------------------------------------------


class Workload:
    def __init__(self, name: str, seed: int, runner: Runner):
        self.name = name
        self.seed = seed
        self.runner = runner
        self.csv = runner.work / f"{name}.csv"
        self.out = runner.work / "op"
        self.reference = None
        # bench's cells do not depend on the seed, so it is always compared
        if (seed == REFERENCE_SEED or name == "bench") and REFERENCE.is_file():
            self.reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(name)
        self.ops = 0

    def argv(self) -> list[str]:
        if self.name == "bench":
            return [str(self.out / "bench.json")]
        return [a.format(csv=self.csv, out=self.out) for a in CLI_ARGV[self.name]]

    def prepare(self) -> dict:
        """Write the seeded input; returns the child's environment block."""
        inputs = []
        if self.name in INPUTS:
            inputs = [str(self.csv), str(self.seed), *map(str, INPUTS[self.name])]
        res = self.runner.checked([str(HERE / "child.py"), "gen", *inputs], "gen")
        return json.loads(res["stdout"].splitlines()[-1])

    def setup_probe(self) -> float:
        res = self.runner.checked([str(HERE / "child.py"), "setup", *self.argv()],
                                  "setup")
        return float(res["stdout"].split()[-1]) - res["t0"]

    def operation(self, traced: bool = False) -> dict:
        """Run once, gate it, and return its accounting."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        self.ops += 1
        if traced:
            args = [str(HERE / "child.py"), "trace", str(self.out / "spans.json"),
                    self.name, *self.argv()]
        elif self.name == "bench":
            args = [str(HERE / "child.py"), "bench", *self.argv()]
        else:
            args = ["-m", "qdf.cli", *self.argv()]
        res = self.runner.python(args, f"op{self.ops}")
        res.update(attempted=BENCH_CELLS if self.name == "bench" else 1, outputs=None)
        problems: list[str] = []
        if self.name == "bench" and not traced and res["code"] == 0:
            try:
                res["setup"] = float(res["stdout"].split()[0]) - res["t0"]
            except (IndexError, ValueError):
                problems.append(f"no set-up stamp on stdout: {res['stdout'][:200]!r}")
        if res["code"] not in (0, 2, 3, 4):
            problems.append(f"exit code {res['code']} breaks the CLI contract (0/2/3/4)")
        elif res["code"] != 0:
            problems.append(f"exit code {res['code']}: {res['stderr'].strip()[-300:]}")
        if "Traceback" in res["stderr"]:
            problems.append("traceback on stderr:\n" + res["stderr"][-1500:])
        if not problems:
            try:
                res["outputs"] = READERS[self.name](self.out)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"outputs unreadable or not strict JSON: {exc!r}")
        if problems:
            res.update(failed=res["attempted"], correct=False)
        else:
            failed, correct, found = check_outputs(self.name, res["outputs"], self.reference)
            res.update(failed=failed, correct=correct)
            problems.extend(found)
        if traced and res["outputs"] is not None:
            res["spans"] = json.loads((self.out / "spans.json").read_text(encoding="utf-8"))
        res["problems"] = problems
        return res


# --- per-layer metrics from one traced operation ----------------------------


def quantiles(values: list[float]) -> tuple[float, float | None, float | None]:
    """(median, tail value, tail percentile); the tail is the highest
    percentile with at least ten samples beyond it."""
    if not values:
        return 0.0, None, None
    v = sorted(values)
    n = len(v)
    if n < 11:
        return statistics.median(v), None, None
    return statistics.median(v), v[n - 11], 100.0 * (n - 10) / n


def per_layer(workload: str, traced: dict, untraced: dict) -> tuple[dict, dict, list, list]:
    """(metrics, notes on metrics, guard messages, span table lines)."""
    data = traced["spans"]
    spans = data["spans"]
    by = defaultdict(list)
    child_wall = defaultdict(float)
    for i, (name, parent, t0, t1, c0, c1, value) in enumerate(spans):
        by[name].append(i)
        if parent >= 0:
            child_wall[parent] += t1 - t0

    def wall(i):
        return spans[i][3] - spans[i][2]

    def total(name):
        return sum(wall(i) for i in by[name])

    def count(name):
        return len(by[name])

    m: dict[str, float] = {}
    m["cli.import_s"] = total("cli.import")
    m["data.load_csv_s"] = total("data.load_csv")
    m["data.make_windows_s"] = total("data.make_windows")
    m["data.make_windows_alloc_mb"] = sum(
        spans[i][6] or 0 for i in by["data.make_windows"]) / 2**20
    m["data.as_samples_calls"] = count("data.as_samples")
    m["data.as_samples_s"] = total("data.as_samples")
    m["data.gen_ar_s"] = total("data.gen_ar")
    m["weighting.materialize_calls"] = count("weighting.materialize")
    m["weighting.materialize_s"] = total("weighting.materialize")
    m["weighting.normalize_scale_s"] = total("weighting.normalize_scale")
    for fn in ("quadratic_loss", "grad_wrt_residual"):
        m[f"objective.{fn}_calls"] = count(f"objective.{fn}")
        m[f"objective.{fn}_s"] = total(f"objective.{fn}")
    m["model.sgd_step_calls"] = count("model.sgd_step")
    m["model.forecast_batch_s"] = total("model.forecast_batch")
    m["model.grad_params_batch_s"] = total("model.grad_params_batch")
    m["bilevel.atomic_update_calls"] = count("bilevel.atomic_update")
    med, tail, pct = quantiles([wall(i) for i in by["bilevel.atomic_update"]])
    m["bilevel.atomic_update_s"] = med
    m["bilevel.atomic_update_tail_s"] = tail if tail is not None else 0.0
    tails = {"bilevel.atomic_update_tail_s": pct}
    outputs = traced["outputs"] or {}
    cpu_ms = outputs.get("timings_cpu_ms", {})
    steps = outputs.get("phase_steps", {})
    guard = [f"wrapped name is gone: {n}" for n in data.get("missing", [])]
    for ph in PHASES:
        if workload != "diagnose" and ph not in cpu_ms:
            guard.append(f"report has no timings_cpu_ms.{ph}")
        m[f"bilevel.{ph}_cpu_ms"] = cpu_ms.get(ph, 0.0)
        m[f"bilevel.{ph}_steps"] = steps.get(ph, 0)
    m["bilevel.make_split_pair_s"] = total("bilevel.make_split_pair")
    m["workflow.learn_weighting_s"] = total("workflow.learn_weighting")
    m["workflow.outer_rounds_run"] = sum(spans[i][6] or 0 for i in by["workflow.learn_weighting"])
    m["workflow.train_final_s"] = total("workflow.train_final")
    runs, best = 0, 0
    for tf in by["workflow.train_final"]:
        losses = [spans[i][6] for i in by["objective.quadratic_loss"] if spans[i][1] == tf]
        if losses:
            runs += len(losses)
            best += 1 + losses.index(min(losses))
    m["workflow.epochs_run"] = runs
    m["workflow.useful_epoch_ratio"] = best / runs if runs else 0.0
    m["workflow.train_final_step_us"] = (
        1e6 * m["workflow.train_final_s"] / m["model.sgd_step_calls"]
        if m["model.sgd_step_calls"] else 0.0)
    m["workflow.evaluate_s"] = total("workflow.evaluate")
    m["diagnostics.partial_corr_matrix_s"] = total("diagnostics.partial_corr_matrix")
    med, tail, pct = quantiles([wall(i) for i in by["bench.cell"]])
    m["bench.cell_s"] = med
    m["bench.cell_tail_s"] = tail if tail is not None else 0.0
    tails["bench.cell_tail_s"] = pct
    m["bench.benchmark_data_s"] = total("bench.benchmark_data")
    m["trace.overhead_s"] = traced["wall"] - untraced["wall"]
    top = sum(wall(i) for i, s in enumerate(spans) if s[1] < 0)
    m["trace.unaccounted_s"] = traced["wall"] - top

    for name in EXPECTED_SPANS[workload]:
        if not by[name]:
            guard.append(f"span {name} expected on {workload} fired 0 times")
    table = [f"  {'span':34s} {'calls':>7s} {'wall_s':>9s} {'cpu_s':>9s} {'self_s':>9s}"]
    for name in sorted((n for n in by if by[n]), key=total, reverse=True):
        idx = by[name]
        cpu = sum(spans[i][5] - spans[i][4] for i in idx)
        self_s = sum(wall(i) - child_wall[i] for i in idx)
        table.append(f"  {name:34s} {len(idx):7d} {total(name):9.4f} {cpu:9.4f} {self_s:9.4f}")
    notes = {k: f"(p{pct:.1f})" for k, pct in tails.items() if pct is not None}
    return m, notes, guard, table


# --- a whole run ------------------------------------------------------------


def load_metric_specs() -> dict:
    """BENCHMARK.json's metric lists; they name what each mode reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def host_block(env: dict, load_start, load_end) -> list[str]:
    cpu_model = "?"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    threads = {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS")}
    return [
        f"  python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"BLAS {env['blas']}",
        f"  nproc {os.cpu_count()} (affinity {len(os.sched_getaffinity(0))}), cpu {cpu_model}",
        f"  children run with OPENBLAS/OMP/MKL_NUM_THREADS=1 (run.py's own: {threads})",
        "  load average start {:.2f} {:.2f} {:.2f}, end {:.2f} {:.2f} {:.2f}".format(
            *load_start, *load_end),
    ]


def log(line: str) -> None:
    print(line, flush=True)


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 specs: dict) -> dict:
    load_start = os.getloadavg()
    runner = Runner(work, now() + RUN_BUDGET_S)
    wl = Workload(name, seed, runner)
    env = wl.prepare()  # also the warm-up: .pyc compiled and the input in the page cache
    ops: list[dict] = []
    if trace:
        untraced = wl.operation()
        traced = wl.operation(traced=True)
        ops = [untraced, traced]
        log(f"== {name}: traced run (seed {seed}) ==")
        if traced.get("spans") is None:
            raise BenchError("traced operation failed:\n" + "\n".join(traced["problems"]))
        values, notes, guard, table = per_layer(name, traced, untraced)
        for spec in specs["per_layer"]:
            log(f"  {spec['name']:36s} {fmt(values[spec['name']]):>14s} {spec['unit']:5s} "
                f"{notes.get(spec['name'], '')}")
        for g in guard:
            log(f"  TRACE GUARD: {g}")
        log("  spans (wall and CPU inclusive; self excludes child spans):")
        for line in table:
            log(line)
    else:
        cal: list[dict] = []

        def calibrate_after(wall: float) -> None:
            """Calibrate at least once, and for CALIBRATION_SHARE of ``wall``."""
            spent = 0.0
            while not spent or spent < CALIBRATION_SHARE * wall:
                cal.append(runner.calibrate())
                spent += cal[-1]["wall"]

        start = now()
        calibrate_after(0.0)
        setup = []
        if name != "bench":
            for _ in range(SETUP_PROBES):
                setup.append(wl.setup_probe())
                calibrate_after(0.0)
        min_ops = SETUP_PROBES if name == "bench" else 1
        while len(ops) < min_ops or (
                now() - start + statistics.median(o["wall"] for o in ops) <= seconds):
            ops.append(wl.operation())
            calibrate_after(ops[-1]["wall"])
        if name == "bench":
            setup = [o["setup"] for o in ops if "setup" in o]
            if not setup:
                raise BenchError("no bench operation printed its set-up stamp:\n"
                                 + "\n".join(ops[0]["problems"]))
        samples = {"wall_s": [o["wall"] for o in ops], "cpu_s": [o["cpu"] for o in ops],
                   "setup_s": setup, "peak_rss_mb": [o["rss_mb"] for o in ops],
                   "calibration_wall_s": [c["wall"] for c in cal],
                   "calibration_cpu_s": [c["cpu"] for c in cal]}
        values = {k: statistics.median(xs) for k, xs in samples.items()}
        for k in ("wall", "cpu"):
            values[f"{k}_cal_s"] = (values[f"{k}_s"] * CALIBRATION_NOMINAL_S
                                    / values[f"calibration_{k}_s"])
        log(f"== {name}: timed run (seed {seed}, {seconds:g} s) ==")
        for k, xs in samples.items():
            unit = "MB" if k == "peak_rss_mb" else "s"
            log(f"  {k:18s} {fmt(values[k]):>12s} {unit:2s} (median of {len(xs)}: "
                f"{' '.join(f'{x:.4g}' for x in xs)})")
        for k in ("wall", "cpu"):
            log(f"  {k + '_cal_s':18s} {fmt(values[k + '_cal_s']):>12s} s  "
                f"({k}_s x {CALIBRATION_NOMINAL_S} / calibration_{k}_s)")
    attempted = sum(o["attempted"] for o in ops)
    failed = sum(o["failed"] for o in ops)
    log(f"  {'fail_ratio':12s} {failed}/{attempted} = {failed / attempted:.4f}")
    for problem, n in Counter(p for o in ops for p in o["problems"]).items():
        log(f"  {n} of {len(ops)} ops: {problem}")
    log("  environment:")
    for line in host_block(env, load_start, os.getloadavg()):
        log(line)
    kind = "per_layer" if trace else "end_to_end"
    return {
        "correct": all(o["correct"] for o in ops),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs[kind]},
    }


def record_reference(work: Path) -> None:
    """Record this checkout's outputs at the reference seed as the new reference."""
    ref = {}
    for name in WORKLOADS:
        wl = Workload(name, REFERENCE_SEED, Runner(work, now() + RUN_BUDGET_S))
        wl.reference = None
        wl.prepare()
        op = wl.operation()
        for p in op["problems"]:
            log(f"  {name}: {p}")
        if op["outputs"] is None:
            raise BenchError(f"{name} produced no outputs")
        out = op["outputs"]
        if name == "bench":
            ref[name] = {
                "cells": {cell_key(c): ({"error": c["error"]["type"]} if "error" in c
                                        else {"metrics": c["metrics"]}) for c in out["cells"]},
                "rows": out["rows"],
            }
        else:
            ref[name] = {"matrix": out["matrix"], "cond_var": out["cond_var"]}
        log(f"recorded {name}")
    REFERENCE.write_text(json.dumps(ref, allow_nan=False) + "\n", encoding="utf-8")
    log(f"wrote {REFERENCE}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from this checkout at the reference seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qdf" / "cli.py").is_file():
        print(f"no qdf sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    specs = load_metric_specs()
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if args.record_reference:
            record_reference(work)
            return 0
        if args.workload != "all":
            res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                               work, specs)
        else:
            res = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for name in WORKLOADS:
                for trace in (False, True):
                    r = run_workload(name, args.seed, args.seconds, trace, work, specs)
                    res["correct"] &= r["correct"]
                    res["attempted"] += r["attempted"]
                    res["failed"] += r["failed"]
                    res["metrics"].update({f"{name}/{k}": v for k, v in r["metrics"].items()})
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(res, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
