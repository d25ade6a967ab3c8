import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sketchls.cli import main
from sketchls.datagen import SyntheticSpec, gen_gaussian_data
from sketchls.dataio import save_dense_csv


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _pairs(out):
    result = {}
    for line in out.splitlines():
        key, _, value = line.partition(" ")
        result[key] = value
    return result


@pytest.fixture()
def dataset(tmp_path):
    p, _ = gen_gaussian_data(SyntheticSpec(n=64, d=6, rho=0.5, seed=91))
    path = tmp_path / "data.csv"
    save_dense_csv(p, path)
    return str(path)


class TestBoundsCommand:
    def test_documented_values(self, capsys):
        code, out, _ = _run(capsys, "bounds", "--d", "100", "--m", "300", "--r2", "1")
        assert code == 0
        pairs = _pairs(out)
        assert float(pairs["exact_classical"]) == pytest.approx(0.502513, abs=1e-6)
        assert float(pairs["general_lower"]) == pytest.approx(0.333333, abs=1e-6)
        assert pairs["upper_sa"].startswith("NA")

    def test_json_mode(self, capsys):
        code, out, _ = _run(capsys, "bounds", "--d", "100", "--m", "300", "--r2", "1",
                            "--rho", "0.1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_classical"] == pytest.approx(100 / 199)
        assert payload["upper_pred"] == payload["upper_sa"]

    def test_b_requires_sigma_min(self, capsys):
        code, _, err = _run(capsys, "bounds", "--d", "10", "--m", "40", "--r2", "1",
                            "--B", "2.0")
        assert code == 1 and "sigma-min" in err

    def test_deterministic_output(self, capsys):
        args = ("bounds", "--d", "10", "--m", "40", "--r2", "1", "--rho", "2")
        _, out1, _ = _run(capsys, *args)
        _, out2, _ = _run(capsys, *args)
        assert out1 == out2


class TestSolveCommands:
    def test_datagen_then_solve(self, capsys, tmp_path):
        out_path = tmp_path / "inst.csv"
        code, out, _ = _run(capsys, "datagen", "--n", "64", "--d", "6", "--rho", "0.5",
                            "--seed", "91", "--out", str(out_path))
        assert code == 0 and out_path.exists()
        code, out, _ = _run(capsys, "solve", "--data", str(out_path), "--format", "csv",
                            "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["snr"] == pytest.approx(0.5, rel=1e-9)
        assert payload["r2"] == pytest.approx(2.0, rel=1e-9)
        assert len(payload["x_ls"]) == 6

    def test_solve_writes_out_file(self, capsys, dataset, tmp_path):
        out_file = tmp_path / "sol.json"
        code, _, _ = _run(capsys, "solve", "--data", dataset, "--out", str(out_file))
        assert code == 0
        assert json.loads(out_file.read_text())["r2"] == pytest.approx(2.0, rel=1e-9)

    def test_sketch_solve(self, capsys, dataset):
        code, out, _ = _run(capsys, "sketch-solve", "--data", dataset, "--family",
                            "gaussian", "--m", "24", "--seed", "3", "--estimator",
                            "shrinkage", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["estimator"] == "shrinkage"
        assert payload["shrink_factor"] <= 1.0
        assert payload["pred_err"] >= 0.0
        assert len(payload["x_hat"]) == 6

    def test_missing_data_exits_2(self, capsys):
        code, _, err = _run(capsys, "solve", "--data", "/nonexistent.csv")
        assert code == 2 and "error" in err

    def test_rank_deficient_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,1,1\n2,2,2\n3,3,3\n4,4,4\n")  # duplicate feature columns
        code, _, err = _run(capsys, "solve", "--data", str(path))
        assert code == 3 and "numerical" in err


class TestExperimentCommand:
    def _config(self, tmp_path, out):
        text = (
            "synthetic.n = 128\nsynthetic.d = 10\nsynthetic.rho = 0.1\n"
            "sketch.families = gaussian\nsketch.m_values = 40\n"
            "experiment.estimators = classical, shrinkage\n"
            "experiment.reps = 5\nexperiment.seed = 7\n"
            f"output.path = {out}\n"
        )
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        return str(cfg)

    def test_runs_and_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "res.csv"
        cfg = self._config(tmp_path, out)
        code, _, _ = _run(capsys, "experiment", "--config", cfg)
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + 2 cells

    def test_thread_count_does_not_change_csv(self, capsys, tmp_path):
        out = tmp_path / "res.csv"
        cfg = self._config(tmp_path, out)
        _run(capsys, "experiment", "--config", cfg, "--threads", "1")
        first = out.read_bytes()
        _run(capsys, "experiment", "--config", cfg, "--threads", "3")
        assert out.read_bytes() == first

    def test_missing_config_exits_2(self, capsys):
        code, _, _ = _run(capsys, "experiment", "--config", "missing.cfg")
        assert code == 2

    def test_threads_env_fallback(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "res.csv"
        cfg = self._config(tmp_path, out)
        _run(capsys, "experiment", "--config", cfg)
        first = out.read_bytes()
        monkeypatch.setenv("SKETCHLS_THREADS", "3")
        _run(capsys, "experiment", "--config", cfg)
        assert out.read_bytes() == first


class TestVerifyCommands:
    def test_gram_pass(self, capsys):
        code, out, _ = _run(capsys, "verify", "gram", "--family", "gaussian",
                            "--n", "32", "--m", "16", "--reps", "2000", "--seed", "1")
        assert code == 0 and _pairs(out)["status"] == "PASS"

    def test_gram_tolerance_failure_exits_4(self, capsys):
        code, out, _ = _run(capsys, "verify", "gram", "--family", "gaussian",
                            "--n", "32", "--m", "16", "--reps", "200", "--seed", "1",
                            "--tol", "1e-9")
        assert code == 4 and _pairs(out)["status"] == "FAIL"

    def test_stein_pass(self, capsys):
        code, out, _ = _run(capsys, "verify", "stein", "--d", "10", "--samples", "50000",
                            "--seed", "3", "--json")
        assert code == 0 and json.loads(out)["status"] == "PASS"

    def test_residual_pass(self, capsys):
        code, out, _ = _run(capsys, "verify", "residual", "--n", "128", "--d", "10",
                            "--m", "40", "--reps", "300", "--seed", "3", "--tol", "0.05")
        assert code == 0 and _pairs(out)["status"] == "PASS"


class TestUsage:
    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--d", "10", "--m", "40", "--r2", "1", "--bogus"])
        assert exc.value.code == 1

    def test_missing_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1


class TestInvalidInputExits2:
    def test_nonfinite_csv(self, capsys, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("1,2,3\n2,nan,1\n3,1,1\n4,5,2\n5,1,7\n")
        code, out, err = _run(capsys, "solve", "--data", str(path))
        assert code == 2 and out == ""
        assert err == "error: A contains non-finite entries\n"

    def test_datagen_wide(self, capsys, tmp_path):
        code, out, err = _run(capsys, "datagen", "--n", "5", "--d", "10", "--rho", "1",
                              "--seed", "0", "--out", str(tmp_path / "x.csv"))
        assert code == 2 and out == ""
        assert err == "error: need n > d >= 1, got n=5, d=10\n"
        assert not (tmp_path / "x.csv").exists()

    def test_more_features_than_rows(self, capsys, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("1,2,3,4\n2,5,1,7\n")
        code, out, err = _run(capsys, "solve", "--data", str(path))
        assert code == 2 and out == ""
        assert err == "error: need n > d >= 1, got A with shape (2, 3)\n"

    def test_sketch_size_zero(self, capsys, dataset):
        code, out, err = _run(capsys, "sketch-solve", "--data", dataset, "--family",
                              "gaussian", "--m", "0", "--seed", "1")
        assert code == 2 and out == ""
        assert err == "error: sketch size m must be >= 1, got 0\n"

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits(self, capsys, dataset, seed):
        code, out, err = _run(capsys, "sketch-solve", "--data", dataset, "--family",
                              "srht", "--m", "20", "--seed", seed)
        assert code == 2 and out == ""
        assert err == f"error: seed must fit in 64 unsigned bits, got {seed}\n"

    def test_unknown_data_format_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("data.path = x.csv\ndata.format = xml\nsketch.families = gaussian\n"
                       "sketch.m_values = 40\nexperiment.estimators = classical\n"
                       f"output.path = {tmp_path / 'res.csv'}\n")
        code, out, err = _run(capsys, "experiment", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == "error: bad value for 'data.format': 'xml'\n"


def test_non_integer_threads_env_exits_1(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("synthetic.n = 64\nsynthetic.d = 4\nsynthetic.rho = 1\n"
                   "sketch.families = gaussian\nsketch.m_values = 20\n"
                   f"experiment.estimators = classical\noutput.path = {tmp_path / 'res.csv'}\n")
    monkeypatch.setenv("SKETCHLS_THREADS", "abc")
    code, out, err = _run(capsys, "experiment", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == "usage error: SKETCHLS_THREADS must be an integer, got 'abc'\n"
    assert not (tmp_path / "res.csv").exists()


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "sketchls", "bounds", "--d", "100", "--m",
                           "300", "--r2", "1", "--rho", "0.1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("exact_classical ")
