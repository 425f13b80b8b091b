import json

import numpy as np
import pytest

from qdf import cli, errors
from qdf.cli import main
from qdf.data import ArSpec, gen_ar, write_csv


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


def test_train_explicit_validation_file(synth_csv, tmp_path):
    vpath = tmp_path / "valid.csv"
    write_csv(gen_ar(ArSpec((0.6,), 1.0, 300, seed=77)), vpath)
    code = main(train_args(synth_csv, tmp_path) + ["--valid-data", str(vpath)])
    assert code == 0


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


def test_bench_deterministic(tmp_path):
    argv = ["bench", "--presets", "white", "--variants", "df", "--seeds", "0",
            "--n-windows", "120"]
    assert main(argv + ["--out-dir", str(tmp_path / "b1")]) == 0
    assert main(argv + ["--out-dir", str(tmp_path / "b2")]) == 0
    assert (tmp_path / "b1" / "bench.csv").read_text() == (tmp_path / "b2" / "bench.csv").read_text()


def test_bench_unknown_variant_exits_3(tmp_path, capsys):
    code = main(["bench", "--variants", "mystery", "--seeds", "0",
                 "--out-dir", str(tmp_path / "b")])
    assert code == 3
    capsys.readouterr()


def test_bench_unknown_preset_exits_3(tmp_path, capsys):
    code = main(["bench", "--presets", "nope", "--variants", "df", "--seeds", "0",
                 "--out-dir", str(tmp_path / "b")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "InvalidSplitError"
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


def test_diagnose_ragged_csv_exits_3(tmp_path, capsys):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n4,5\n", encoding="utf-8")
    code = main(["diagnose", "--data", str(path), "--out-prefix", str(tmp_path / "d")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error"}
    assert err["error"]["type"] == "CsvParseError"
    assert "row 3" in err["error"]["message"]
