import json
import logging
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import qdf
from qdf import cli, errors
from qdf.cli import main
from qdf.data import ArSpec, SeriesFrame, gen_ar, gen_ar_frame, write_csv
from qdf.workflow import VARIANTS, QdfConfig


@pytest.fixture
def synth_csv(tmp_path):
    path = tmp_path / "series.csv"
    frame = gen_ar(ArSpec((0.6,), 1.0, 1200, seed=3))
    write_csv(frame, path)
    return path


def test_synth_writes_csv_and_oracle(tmp_path):
    out = tmp_path / "ar.csv"
    code = main([
        "synth", "--phi", "0.5", "--noise", "1.0", "--n", "2000",
        "--seed", "7", "--horizon", "4", "--out", str(out),
    ])
    assert code == 0
    assert out.exists()
    sidecar = tmp_path / "ar.csv.oracle.json"
    payload = json.loads(sidecar.read_text())
    cov = np.array(payload["conditional_covariance"])
    assert np.allclose(cov[:2, :2], [[1.0, 0.5], [0.5, 1.25]], atol=1e-12)
    assert payload["schema"] == 1


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["synth", "--phi", "0.5", "--n", "500", "--seed", "9", "--horizon", "3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_synth_unstable_spec_exits_3(tmp_path, capsys):
    code = main(["synth", "--phi", "1.1", "--n", "100",
                 "--out", str(tmp_path / "x.csv"), "--horizon", "2"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "UnstableSpecError"


@pytest.mark.parametrize("argv", [
    ["--horizon", "0"],
    ["--horizon", "0", "--ramp-from", "1.0", "--ramp-to", "3.0"],
    ["--history", "-5", "--horizon", "2", "--ramp-from", "1.0", "--ramp-to", "3.0"],
], ids=" ".join)
def test_synth_rejected_shape_writes_no_file(argv, tmp_path, capsys):
    code = main(["synth", "--n", "100", "--out", str(tmp_path / "a.csv"), *argv])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "InvalidDimensionError"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--ramp-from", "--ramp-to"])
def test_synth_ramp_flag_alone_exits_3(flag, tmp_path, capsys):
    code = main(["synth", "--n", "100", "--horizon", "2", "--out", str(tmp_path / "a.csv"),
                 flag, "2.0"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "InvalidConfigError"
    assert list(tmp_path.iterdir()) == []


def test_synth_failed_sidecar_write_leaves_no_file(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file, not a directory\n")
    code = main(["synth", "--n", "200", "--horizon", "4", "--out", str(tmp_path / "a.csv"),
                 "--oracle-json", str(blocker / "x.json")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error"}
    assert list(tmp_path.iterdir()) == [blocker]  # the CSV is gone


def test_synth_sidecar_into_new_directory(tmp_path):
    sidecar = tmp_path / "new2" / "x.json"
    code = main(["synth", "--n", "200", "--horizon", "4", "--out", str(tmp_path / "b.csv"),
                 "--oracle-json", str(sidecar)])
    assert code == 0
    assert (tmp_path / "b.csv").exists()
    assert json.loads(sidecar.read_text())["horizon"] == 4


def test_synth_ramp_schedule(tmp_path):
    out = tmp_path / "ramp.csv"
    code = main([
        "synth", "--n", "2000", "--seed", "1", "--history", "8", "--horizon", "4",
        "--ramp-from", "1.0", "--ramp-to", "3.0", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "ramp.csv.oracle.json").read_text())
    diag = np.diagonal(np.array(payload["conditional_covariance"]))
    assert np.allclose(diag, np.linspace(1.0, 3.0, 4), atol=1e-12)


def train_args(csv, tmp_path, variant="qdf", **extra):
    args = [
        "train", "--data", str(csv), "--history", "8", "--horizon", "4",
        "--variant", variant, "--outer-rounds", "2", "--eta", "0.05",
        "--inner-lr", "0.02", "--lr", "0.01", "--epochs", "3",
        "--batch", "32", "--seed", "11",
        "--report", str(tmp_path / f"report_{variant}.json"),
    ]
    for key, val in extra.items():
        args += [f"--{key.replace('_', '-')}", str(val)]
    return args


def test_train_writes_report_and_sigma(synth_csv, tmp_path):
    sigma_path = tmp_path / "sigma.csv"
    code = main(train_args(synth_csv, tmp_path) + ["--dump-sigma", str(sigma_path)])
    assert code == 0
    report = json.loads((tmp_path / "report_qdf.json").read_text())
    assert report["schema"] == 1
    assert report["variant"] == "qdf"
    assert set(report["metrics"]) == {"mse", "mae", "nll"}
    assert all(np.isfinite(v) for v in report["metrics"].values())
    assert set(report["timings_ms"]) == {
        "inner_fwd", "inner_bwd", "outer_fwd", "outer_bwd", "final_train"
    }
    assert report["sigma_path"] == str(sigma_path)
    sigma = np.loadtxt(sigma_path, delimiter=",")
    assert sigma.shape == (4, 4)


def test_train_eta_zero_qdf_equals_df(synth_csv, tmp_path):
    assert main(train_args(synth_csv, tmp_path, variant="df")) == 0
    assert main(train_args(synth_csv, tmp_path, variant="qdf", eta=0.0)) == 0
    rep_df = json.loads((tmp_path / "report_df.json").read_text())
    rep_q = json.loads((tmp_path / "report_qdf.json").read_text())
    assert rep_df["metrics"] == rep_q["metrics"]


def test_train_missing_file_exits_3(tmp_path, capsys):
    code = main(train_args(tmp_path / "missing.csv", tmp_path))
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert "error" in err


def test_train_reproducible_reports(synth_csv, tmp_path):
    assert main(train_args(synth_csv, tmp_path)) == 0
    first = json.loads((tmp_path / "report_qdf.json").read_text())
    assert main(train_args(synth_csv, tmp_path)) == 0
    second = json.loads((tmp_path / "report_qdf.json").read_text())
    assert first["metrics"] == second["metrics"]
    assert first["frobenius_trace"] == second["frobenius_trace"]


def test_train_save_model_checkpoint(synth_csv, tmp_path):
    prefix = tmp_path / "ckpt" / "model"
    code = main(train_args(synth_csv, tmp_path) + ["--save-model", str(prefix)])
    assert code == 0
    from qdf.model import load_checkpoint

    model, header = load_checkpoint(prefix)
    assert model.history == 8 and model.horizon == 4
    assert "mean" in header and "std" in header


def test_train_dump_sigma_into_new_directory(synth_csv, tmp_path):
    # like --report and --save-model, --dump-sigma creates its parent directory
    sigma_path = tmp_path / "new" / "sigma.csv"
    assert main(train_args(synth_csv, tmp_path) + ["--dump-sigma", str(sigma_path)]) == 0
    sigma = np.loadtxt(sigma_path, delimiter=",")
    assert sigma.shape == (4, 4) and np.isfinite(sigma).all()


def test_train_explicit_validation_file(synth_csv, tmp_path):
    vpath = tmp_path / "valid.csv"
    write_csv(gen_ar(ArSpec((0.6,), 1.0, 300, seed=77)), vpath)
    code = main(train_args(synth_csv, tmp_path) + ["--valid-data", str(vpath)])
    assert code == 0


@pytest.mark.parametrize("columns", [["y", "y2"], ["x"]], ids=["count", "name"])
def test_train_validation_file_with_other_columns_exits_3(synth_csv, tmp_path, capsys,
                                                          columns):
    values = gen_ar(ArSpec((0.6,), 1.0, 300, seed=77)).values
    vpath = tmp_path / "valid.csv"
    write_csv(SeriesFrame(np.repeat(values, len(columns), axis=1), columns), vpath)
    code = main(train_args(synth_csv, tmp_path) + ["--valid-data", str(vpath)])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "InvalidSplitError"
    assert not (tmp_path / "report_qdf.json").exists()


def test_bench_matrix_and_table(tmp_path):
    out_dir = tmp_path / "bench"
    code = main([
        "bench", "--presets", "white", "--variants", "df,qdf",
        "--seeds", "0,1", "--n-windows", "120", "--out-dir", str(out_dir),
    ])
    assert code == 0
    payload = json.loads((out_dir / "bench.json").read_text())
    assert len(payload["runs"]) == 4  # 1 preset x 2 variants x 2 seeds
    assert len(payload["rows"]) == 2
    table = (out_dir / "bench.csv").read_text().strip().splitlines()
    assert table[0].startswith("preset,variant,seeds,mse_mean")
    assert len(table) == 3


def test_bench_diverging_cell_is_recorded_and_exits_4(tmp_path, capsys):
    out_dir = tmp_path / "h"
    code = main(["bench", "--seeds", "3", "--out-dir", str(out_dir)])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "NumericError"
    assert "hetero-corr/qdf-offdiag/3" in err["error"]["message"]
    payload = json.loads((out_dir / "bench.json").read_text())
    assert [(c["preset"], c["variant"], c["seed"], c["error"]["type"])
            for c in payload["failed"]] == [("hetero-corr", "qdf-offdiag", 3, "NumericError")]
    assert len(payload["runs"]) == 3
    table = (out_dir / "bench.csv").read_text().strip().splitlines()
    assert [line.split(",")[:3] for line in table[1:]] == [
        ["hetero-corr", v, "1"] for v in ("df", "qdf", "qdf-diag")
    ]


def test_bench_deterministic(tmp_path):
    argv = ["bench", "--presets", "white", "--variants", "df", "--seeds", "0",
            "--n-windows", "120"]
    assert main(argv + ["--out-dir", str(tmp_path / "b1")]) == 0
    assert main(argv + ["--out-dir", str(tmp_path / "b2")]) == 0
    assert (tmp_path / "b1" / "bench.csv").read_text() == (tmp_path / "b2" / "bench.csv").read_text()


def test_bench_unknown_variant_exits_3(tmp_path, capsys):
    # a bad name late in the list stops the command before any cell runs
    code = main(["bench", "--variants", "df,mystery", "--seeds", "0",
                 "--out-dir", str(tmp_path / "b")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "InvalidConfigError"
    assert "mystery" in err["error"]["message"]
    assert not (tmp_path / "b").exists()


def test_bench_unknown_preset_exits_3(tmp_path, capsys):
    code = main(["bench", "--presets", "nope", "--variants", "df", "--seeds", "0",
                 "--out-dir", str(tmp_path / "b")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "InvalidConfigError"
    assert "nope" in err["error"]["message"]
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("flag, field", [
    ("batch", "batch_size"), ("stride", "stride"), ("epochs", "epochs"),
    ("lr", "final_lr"), ("inner-lr", "inner_lr"),
])
def test_train_nonpositive_size_exits_3(synth_csv, tmp_path, capsys, flag, field):
    code = main(train_args(synth_csv, tmp_path) + [f"--{flag}", "0"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error"}
    assert field in err["error"]["message"]
    assert not (tmp_path / "report_qdf.json").exists()


def test_train_diverged_weighting_exits_4(synth_csv, tmp_path, capsys):
    code = main(train_args(synth_csv, tmp_path, history=16, horizon=16, eta="1e6"))
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error"}
    assert err["error"]["type"] == "NumericError"
    assert not (tmp_path / "report_qdf.json").exists()


def test_train_diverged_outer_step_exits_4(synth_csv, tmp_path, capsys):
    # the overflowing hypergradient step used to reach the WeightingParams
    # constructor and exit 3 with InvalidDimensionError
    code = main(train_args(synth_csv, tmp_path, variant="qdf-diag", inner_lr="1e30"))
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error"}
    assert err["error"]["type"] == "NumericError"
    assert "outer step diverged" in err["error"]["message"]
    assert not (tmp_path / "report_qdf-diag.json").exists()


def test_train_diverged_inner_step_names_inner_lr(synth_csv, tmp_path, capsys):
    # Sigma of the normalized step overflows while the proposal stays finite:
    # the Frobenius delta is what diverges, and the inner step size caused it
    code = main(train_args(synth_csv, tmp_path, inner_lr="1e30"))
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error"}
    assert err["error"]["type"] == "NumericError"
    assert "Frobenius delta not finite" in err["error"]["message"]
    assert "inner_lr" in err["error"]["message"]
    assert not (tmp_path / "report_qdf.json").exists()


def test_train_diverged_inner_loop_names_eta(tmp_path, capsys):
    # the inner step is stable only while inner_lr * lmax(Sigma^-1) * lmax(G)
    # stays below 2, and eta moves Sigma^-1: here the default inner_lr
    # diverges after an outer step of eta = 1e6, and the message named inner_lr alone
    data = tmp_path / "s.csv"
    assert main(["synth", "--n", "2000", "--phi", "0.6", "--out", str(data)]) == 0
    capsys.readouterr()
    code = main(["train", "--data", str(data), "--history", "8", "--horizon", "4",
                 "--variant", "qdf-offdiag", "--eta", "1e6", "--report", str(tmp_path / "r.json")])
    assert code == 4
    err = json.loads(capsys.readouterr().err)["error"]
    assert (err["type"], err["message"]) == (
        "NumericError", "inner loop diverged; reduce inner_lr or eta")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("flag, value", [("eta", "1e6"), ("inner-lr", "5")])
def test_train_ill_conditioned_weighting_exits_4(synth_csv, tmp_path, capsys, flag, value):
    # Sigma stays finite here; its condition number is what diverges
    code = main(train_args(synth_csv, tmp_path) + [f"--{flag}", value])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "NumericError"
    assert "cond(Sigma)" in err["error"]["message"]
    assert not (tmp_path / "report_qdf.json").exists()


@pytest.mark.parametrize("argv", [
    ["bench", "--seeds", "x"],
    ["bench", "--seeds", "-1", "--variants", "df"],
    ["bench", "--seeds", ""],
    ["bench", "--presets", ","],
    ["bench", "--variants", ","],
    ["bench", "--presets", "white,white", "--variants", "df"],
    ["bench", "--variants", "df,qdf,df"],
    ["bench", "--seeds", "0,0", "--variants", "df"],
    ["train", "--seed", "-1"],
    ["synth", "--seed", "-1"],
    ["diagnose", "--subsample", "-1"],
    ["diagnose", "--subsample", "10", "--seed", "-1"],
    ["train", "--tol", "inf"],
    ["train", "--eta", "inf"],
], ids=" ".join)
def test_out_of_range_input_exits_3(argv, synth_csv, tmp_path, capsys):
    required = {
        "bench": ["--out-dir", str(tmp_path / "b")],
        "train": ["--data", str(synth_csv), "--history", "8", "--horizon", "4"],
        "synth": ["--n", "100", "--horizon", "2", "--out", str(tmp_path / "s.csv")],
        "diagnose": ["--data", str(synth_csv), "--horizon", "4",
                     "--out-prefix", str(tmp_path / "d")],
    }[argv[0]]
    assert main(argv + required) == 3
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error"}
    assert err["error"]["type"] == "InvalidConfigError"


def run_module(*args, **env):
    """``python <args>`` with this checkout's qdf importable, and ``env`` set."""
    src = str(Path(qdf.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=pythonpath, **env),
                          capture_output=True, text=True)


def scipy_modules(code):
    """The scipy modules loaded after running ``code`` in a fresh process."""
    proc = run_module("-c", f"import json, sys\n{code}\n"
                      "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_does_not_load_scipy_signal():
    for module in ("qdf.cli", "qdf.bench"):
        assert scipy_modules(f"import {module}") == [], module


def test_synthetic_data_does_not_load_scipy_signal(tmp_path):
    # gen_ar's AR recursion and the weighting's Sigma^-1 use numpy alone: no
    # scipy module is loaded, neither scipy.signal nor scipy's LAPACK wrappers
    out = str(tmp_path / "s.csv")
    for code in ("import qdf.bench; qdf.bench.benchmark_data('hetero-corr', 0)",
                 "from qdf.cli import main; "
                 f"main(['synth', '--n', '500', '--phi', '0.6', '--horizon', '4', '--out', {out!r}])",
                 "from qdf.weighting import identity_params; identity_params(4).inverse"):
        assert scipy_modules(code) == [], code


def test_diagnose_does_not_load_scipy(tmp_path):
    # the fit uses numpy.linalg alone
    path = tmp_path / "s.csv"
    write_csv(SeriesFrame(np.random.default_rng(5).standard_normal((400, 2)), ["a", "b"]), path)
    out = str(tmp_path / "d")
    for extra in ([], ["--variable", "1"]):
        argv = ["diagnose", "--data", str(path), "--reg-history", "4", "--horizon", "6",
                "--out-prefix", out, *extra]
        assert scipy_modules(f"from qdf.cli import main; assert main({argv!r}) == 0") == [], extra
    assert (tmp_path / "d_matrix.csv").exists()


def test_commands_run_without_scipy(tmp_path):
    # qdf runs on numpy alone: with scipy unimportable every command exits as
    # it does with scipy installed, and no scipy module is loaded
    data = tmp_path / "s.csv"
    runs = [["synth", "--n", "2000", "--phi", "0.6", "--horizon", "4", "--out", str(data)]]
    runs += [["train", "--data", str(data), "--history", "8", "--horizon", "4", "--variant", v,
              "--report", str(tmp_path / f"{v}.json")] for v in VARIANTS]
    runs += [["bench", "--presets", "white", "--seeds", "0", "--out-dir", str(tmp_path / "b")],
             ["diagnose", "--data", str(data), "--reg-history", "4", "--horizon", "6",
              "--out-prefix", str(tmp_path / "d")]]
    proc = run_module("-c", "\n".join([
        "import json, sys",
        "sys.modules['scipy'] = None  # import scipy raises ImportError",
        "from qdf.cli import main",
        f"codes = [main(argv) for argv in {runs!r}]",
        "loaded = [m for m, module in sys.modules.items() if m.startswith('scipy') and module]",
        "print(json.dumps([codes, loaded]))",
    ]))
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(runs), proc.stderr
    assert loaded == []
    assert all((tmp_path / f"{v}.json").exists() for v in VARIANTS)


def test_failing_run_stderr_is_one_json_object(synth_csv):
    # a subprocess, because pytest records warnings in-process
    proc = run_module("-m", "qdf.cli", "train", "--data", str(synth_csv),
                      "--history", "16", "--horizon", "16", "--eta", "1e6")
    assert proc.returncode == 4
    err = json.loads(proc.stderr)
    assert set(err) == {"error"}
    assert err["error"]["type"] == "NumericError"
    assert err["error"]["warnings"]


def test_warnings_shown_on_success_and_folded_into_error(monkeypatch, tmp_path, capsys):
    argv = ["diagnose", "--data", "x.csv", "--out-prefix", str(tmp_path / "d")]

    def warn_then(result):
        def handler(args):
            warnings.warn("careful", RuntimeWarning)
            if isinstance(result, Exception):
                raise result
            return result
        return handler

    monkeypatch.setattr(cli, "cmd_diagnose", warn_then(0))
    with pytest.warns(RuntimeWarning, match="careful"):
        assert main(argv) == 0
    monkeypatch.setattr(cli, "cmd_diagnose", warn_then(errors.NumericError("boom")))
    assert main(argv) == 4
    assert json.loads(capsys.readouterr().err) == {"error": {
        "type": "NumericError", "message": "boom", "warnings": ["careful"],
    }}


def test_log_records_held_back_like_warnings(monkeypatch, tmp_path, capsys):
    argv = ["diagnose", "--data", "x.csv", "--out-prefix", str(tmp_path / "d")]

    def log_then(result):
        def handler(args):
            logging.getLogger("qdf.diagnostics").warning("ridge fallback")
            if isinstance(result, Exception):
                raise result
            return result
        return handler

    monkeypatch.setattr(cli, "cmd_diagnose", log_then(0))
    assert main(argv) == 0
    assert capsys.readouterr().err == "ridge fallback\n"
    monkeypatch.setattr(cli, "cmd_diagnose", log_then(errors.NumericError("boom")))
    assert main(argv) == 4
    assert json.loads(capsys.readouterr().err) == {"error": {
        "type": "NumericError", "message": "boom", "warnings": ["ridge fallback"],
    }}


@pytest.mark.parametrize("phi", ["nan", "inf"])
def test_synth_non_finite_phi_exits_3_and_writes_nothing(tmp_path, capsys, phi):
    out = tmp_path / "x.csv"
    assert main(["synth", "--phi", "0.5", "--phi", phi, "--out", str(out), "--horizon", "2"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "UnstableSpecError"
    assert list(tmp_path.iterdir()) == []


def test_synth_too_large_to_allocate_exits_3_and_writes_nothing(tmp_path):
    # 8 PB of output: beyond the x86-64 address space, so the allocation fails
    # at once whatever the overcommit setting (it used to end in a traceback)
    out = tmp_path / "x.csv"
    proc = run_module("-m", "qdf.cli", "synth", "--n", str(10**15), "--phi", "0.5",
                      "--out", str(out))
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stderr)
    assert set(err) == {"error"}
    assert err["error"]["type"] == "MemoryError"
    assert list(tmp_path.iterdir()) == []


def test_synth_overflowing_oracle_exits_4_and_writes_nothing(tmp_path):
    # the squared noise scale is inf, and 0 * inf put a nan in the oracle
    # covariance, which the strict-JSON sidecar used to meet as a traceback
    out = tmp_path / "x.csv"
    proc = run_module("-m", "qdf.cli", "synth", "--noise", "1e200", "--phi", "0.5",
                      "--out", str(out))
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stderr)
    assert set(err) == {"error"}
    assert err["error"]["type"] == "NumericError"
    assert "covariance is not finite" in err["error"]["message"]
    assert list(tmp_path.iterdir()) == []


def test_train_overflowing_test_metrics_exit_4_and_write_no_report(synth_csv, tmp_path):
    # the last fifth of the series, the test split, scaled by 1e200: the
    # standardized test residuals square to inf, so mse is inf and nll nan,
    # which the strict-JSON report used to meet as a traceback
    values = np.loadtxt(synth_csv, delimiter=",", skiprows=1, ndmin=2)
    values[int(0.8 * len(values)):] *= 1e200
    data = tmp_path / "big_tail.csv"
    write_csv(SeriesFrame(values, ["y"]), data)
    report = tmp_path / "r.json"
    proc = run_module("-m", "qdf.cli", "train", "--data", str(data), "--history", "8",
                      "--horizon", "4", "--report", str(report))
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stderr)
    assert set(err) == {"error"}
    assert err["error"]["type"] == "NumericError"
    assert "test metrics ['mse', 'nll'] are not finite" in err["error"]["message"]
    assert not report.exists()


@pytest.mark.parametrize("command", ["train", "diagnose"])
def test_overflowing_csv_exits_4_with_one_json_object(tmp_path, command):
    # 1e200-scale values: the column std overflows to inf.  train used to
    # standardize every value to 0 and exit 0 with mse = 0; diagnose met a nan
    # residual variance in its JSON summary.
    data = tmp_path / "big.csv"
    write_csv(SeriesFrame(1e200 * np.random.default_rng(0).standard_normal((3000, 2)),
                          ["a", "b"]), data)
    extra = ["--history", "8"] if command == "train" else ["--out-prefix", str(tmp_path / "d")]
    proc = run_module("-m", "qdf.cli", command, "--data", str(data), "--horizon", "4", *extra)
    assert proc.returncode == 4, proc.stderr
    err = json.loads(proc.stderr)
    assert set(err) == {"error"}
    assert err["error"]["type"] == "NumericError"
    assert [p.name for p in tmp_path.iterdir()] == ["big.csv"]


def test_underflowing_csv_train_exits_4_with_one_json_object(tmp_path):
    # 1e-300-scale values: each column's std is below the 1e-8 floor, which
    # used to squash every standardized value to about 1e-292 and exit 0 with
    # mse = nll = 0
    data = tmp_path / "tiny.csv"
    write_csv(SeriesFrame(1e-300 * np.random.default_rng(0).standard_normal((3000, 2)),
                          ["a", "b"]), data)
    proc = run_module("-m", "qdf.cli", "train", "--data", str(data),
                      "--history", "8", "--horizon", "4")
    assert proc.returncode == 4, proc.stderr
    err = json.loads(proc.stderr)
    assert set(err) == {"error"}
    assert err["error"]["type"] == "NumericError"
    assert "too small to standardize" in err["error"]["message"]


def test_header_only_csv_error_carries_no_numpy_warning(tmp_path, capsys):
    # numpy's reader warns on a body with no data; load_csv falls back silently
    data = tmp_path / "header.csv"
    data.write_text("a,b\n\n", encoding="utf-8")
    code = main(["diagnose", "--data", str(data), "--out-prefix", str(tmp_path / "d")])
    assert code == 3
    assert json.loads(capsys.readouterr().err) == {"error": {
        "type": "CsvParseError", "message": f"{data} contains no data rows",
    }}


@pytest.mark.parametrize("body, reason", [
    (b"a,b\n1,2\n3,\xe9\n", "can't decode byte 0xe9"),
    (b"a,b\n1,2\n3," + b"9" * 140_000 + b"\n4,5\n", "field larger than field limit"),
], ids=["latin-1", "oversized-cell"])
@pytest.mark.parametrize("date_column", [[], ["--date-column"]], ids=["fast", "cell-by-cell"])
def test_unreadable_csv_exits_3_with_one_json_object(tmp_path, body, reason, date_column):
    # both used to end in a traceback (UnicodeDecodeError, _csv.Error), exit 1
    data = tmp_path / "bad.csv"
    data.write_bytes(body)
    proc = run_module("-m", "qdf.cli", "diagnose", "--data", str(data), "--horizon", "2",
                      "--reg-history", "1", "--out-prefix", str(tmp_path / "d"), *date_column)
    assert proc.returncode == 3, proc.stderr
    err = json.loads(proc.stderr)
    assert set(err) == {"error"}
    assert err["error"]["type"] == "CsvParseError"
    assert reason in err["error"]["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["bad.csv"]


def test_train_tuning_defaults_come_from_config():
    args = cli.build_parser().parse_args(["train", "--data", "x.csv", "--horizon", "4"])
    tuned = [f for f in fields(QdfConfig) if hasattr(args, f.name)]
    assert {f.name for f in tuned} == {f.name for f in fields(QdfConfig)}
    for f in tuned:
        assert getattr(args, f.name) == f.default, f.name


# Every library error, and OSError, with the exit code it maps to.
EXIT_CODES = {
    "QdfError": 3,
    "InvalidDimensionError": 3,
    "EmptyInputError": 3,
    "InvalidConfigError": 3,
    "InvalidSplitError": 3,
    "InsufficientDataError": 3,
    "UnstableSpecError": 3,
    "CsvParseError": 3,
    "OSError": 3,
    "ConditioningError": 4,
    "NumericError": 4,
    "UndefinedCorrelationError": 4,
}


def test_exit_code_table_covers_every_library_error():
    library = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.QdfError)}
    assert library | {"OSError"} == set(EXIT_CODES)


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_error_exits_with_its_code(name, monkeypatch, tmp_path, capsys):
    exc_type = getattr(errors, name, OSError)

    def fail(args):
        raise exc_type("boom")

    monkeypatch.setattr(cli, "cmd_diagnose", fail)
    code = main(["diagnose", "--data", "x.csv", "--out-prefix", str(tmp_path / "d")])
    assert code == EXIT_CODES[name]
    assert json.loads(capsys.readouterr().err) == {"error": {"type": name, "message": "boom"}}


def test_train_default_flags_complete_quickly(tmp_path):
    # default flags (history 96, k-splits 3, epochs 50, sgd) on a synthetic
    # series finish well within the interactive budget
    import time

    path = tmp_path / "bench.csv"
    write_csv(gen_ar(ArSpec((0.5,), 1.0, 6000, seed=7)), path)
    t0 = time.time()
    code = main(["train", "--data", str(path), "--horizon", "96",
                 "--report", str(tmp_path / "rep.json")])
    elapsed = time.time() - t0
    assert code == 0
    assert elapsed < 60
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["config"]["k_splits"] == 3
    assert report["config"] == {**QdfConfig().as_dict(), "data": report["config"]["data"]}
    assert report["config"]["data"]["history"] == 96
    assert np.isfinite(report["metrics"]["mse"])


def test_diagnose_emits_matrix_and_summary(synth_csv, tmp_path):
    prefix = tmp_path / "diag" / "run"
    code = main([
        "diagnose", "--data", str(synth_csv), "--reg-history", "6",
        "--horizon", "5", "--subsample", "800", "--out-prefix", str(prefix),
    ])
    assert code == 0
    matrix = np.loadtxt(f"{prefix}_matrix.csv", delimiter=",")
    assert matrix.shape == (5, 5)
    assert np.allclose(np.diagonal(matrix), 1.0)
    summary = json.loads((tmp_path / "diag" / "run_summary.json").read_text())
    assert "fraction_above_0.1" in summary
    assert len(summary["cond_var"]) == 5
    assert summary["meta"]["samples"] <= 800


def test_diagnose_outputs_are_byte_equal_at_one_and_two_blas_threads(tmp_path):
    # every window of 3000 x 4 rows at T = 96: 11588 sample rows, where one
    # gemm over the whole sample axis, such as Y^T [X | 1], rounds differently
    # at 1 and at 2 threads of OpenBLAS 0.3.31; diagnose reduces in fixed blocks of
    # windows, so its outputs do not depend on the thread count
    data = tmp_path / "s.csv"
    write_csv(gen_ar_frame(ArSpec((0.5,), 1.0, 3000, 0), 4), data)
    outputs = []
    for threads in ("1", "2"):
        prefix = tmp_path / f"t{threads}"
        proc = run_module("-m", "qdf.cli", "diagnose", "--data", str(data), "--reg-history", "8",
                          "--horizon", "96", "--subsample", "100000", "--out-prefix", str(prefix),
                          OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append([Path(f"{prefix}_{name}").read_bytes()
                        for name in ("matrix.csv", "summary.json")])
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["meta"]["samples"] == 11588


def test_diagnose_summary_records_the_threshold(synth_csv, tmp_path):
    # both thresholds print as 0.1 in the summary key; the threshold field tells them apart
    for i, threshold in enumerate(["0.1000001", "0.10000001"]):
        prefix = tmp_path / f"d{i}"
        code = main(["diagnose", "--data", str(synth_csv), "--horizon", "4",
                     "--threshold", threshold, "--out-prefix", str(prefix)])
        assert code == 0
        summary = json.loads(Path(f"{prefix}_summary.json").read_text())
        assert summary["threshold"] == float(threshold)
        assert "fraction_above_0.1" in summary


@pytest.mark.parametrize("threshold", ["nan", "-1", "1.5", "inf"])
def test_diagnose_threshold_outside_unit_interval_exits_3(threshold, synth_csv, tmp_path, capsys):
    code = main(["diagnose", "--data", str(synth_csv), "--horizon", "4",
                 "--threshold", threshold, "--out-prefix", str(tmp_path / "out" / "d")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error"}
    assert err["error"]["type"] == "InvalidConfigError"
    assert "threshold" in err["error"]["message"]
    assert not (tmp_path / "out").exists()


def test_diagnose_ett_style_shape(tmp_path):
    rng = np.random.default_rng(5)
    rows = ["date," + ",".join(f"c{j}" for j in range(7))]
    for i in range(400):
        rows.append(f"t{i}," + ",".join(f"{v:.5f}" for v in rng.standard_normal(7)))
    path = tmp_path / "ett.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    prefix = tmp_path / "diagett"
    code = main([
        "diagnose", "--data", str(path), "--date-column", "--reg-history", "4",
        "--horizon", "6", "--subsample", "300", "--out-prefix", str(prefix),
    ])
    assert code == 0
    matrix = np.loadtxt(f"{prefix}_matrix.csv", delimiter=",")
    assert matrix.shape == (6, 6)


@pytest.mark.parametrize("command", ["train", "diagnose"])
def test_csv_without_data_columns_exits_3(command, tmp_path, capsys):
    path = tmp_path / "dates.csv"
    path.write_text("date\n" + "".join(f"2020-01-{d:02d}\n" for d in range(1, 29)),
                    encoding="utf-8")
    argv = {
        "train": train_args(path, tmp_path),
        "diagnose": ["diagnose", "--data", str(path), "--reg-history", "2", "--horizon", "2",
                     "--out-prefix", str(tmp_path / "d")],
    }[command]
    assert main(argv + ["--date-column"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error"}
    assert err["error"]["type"] == "InvalidDimensionError"


def test_diagnose_ragged_csv_exits_3(tmp_path, capsys):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n4,5\n", encoding="utf-8")
    code = main(["diagnose", "--data", str(path), "--out-prefix", str(tmp_path / "d")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error"}
    assert err["error"]["type"] == "CsvParseError"
    assert "row 3" in err["error"]["message"]


@pytest.mark.parametrize("optimizer, lr", [("sgd", "1e30"), ("adam", "1e300")])
def test_train_diverged_final_training_exits_4(synth_csv, tmp_path, capsys, optimizer, lr):
    # the minibatch loop checks every parameter update, for either optimizer
    # (an Adam step is about lr in size, so it needs the larger lr to overflow)
    code = main(train_args(synth_csv, tmp_path, variant="df", lr=lr, optimizer=optimizer))
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error"}
    assert err["error"]["type"] == "NumericError"
    assert "model parameters must be finite" in err["error"]["message"]
    assert not (tmp_path / "report_df.json").exists()
