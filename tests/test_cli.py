import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchls import FAMILIES, ExperimentConfig, cli, errors, run_experiment
from sketchls.bounds import BoundReport
from sketchls.cli import main
from sketchls.core import lstsq_solve, prediction_error, solve_exact
from sketchls.datagen import SyntheticSpec, gen_gaussian_data
from sketchls.dataio import DatasetFile, load, save_dense_csv
from sketchls.estimators import (
    ESTIMATORS,
    classical,
    estimate_residual_full,
    estimate_residual_sketched,
    js_oracle,
    positive_part,
    shrinkage,
    shrinkage_alt,
)
from sketchls.sketches import SketchSpec, apply, make_operator, sampling_weights


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

    def test_keys_are_the_report_fields_in_order(self, capsys):
        args = ("bounds", "--d", "100", "--m", "300", "--r2", "1", "--rho", "0.1")
        names = [f.name for f in dataclasses.fields(BoundReport) if f.name != "reasons"]
        assert names == ["exact_classical", "unbiased_lower", "general_lower", "upper_sa",
                         "upper_pred", "eps_prime", "ratio_R"]
        assert list(_pairs(_run(capsys, *args)[1])) == names
        assert list(json.loads(_run(capsys, *args, "--json")[1])) == sorted(names)

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

    def test_default_thread_count_gives_the_csv_of_three(self, capsys, tmp_path):
        out = tmp_path / "res.csv"
        cfg = self._config(tmp_path, out)
        _run(capsys, "experiment", "--config", cfg)
        first = out.read_bytes()
        _run(capsys, "experiment", "--config", cfg, "--threads", "3")
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
        for family in ("srht", "gaussian"):  # a Gaussian draw takes SketchSpec's checks too
            code, out, err = _run(capsys, "sketch-solve", "--data", dataset, "--family",
                                  family, "--m", "20", "--seed", seed)
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


def _small_config(tmp_path, m_values="20"):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("synthetic.n = 64\nsynthetic.d = 4\nsynthetic.rho = 1\n"
                   f"sketch.families = gaussian\nsketch.m_values = {m_values}\n"
                   f"experiment.estimators = classical\noutput.path = {tmp_path / 'res.csv'}\n")
    return cfg


@pytest.mark.parametrize("flag, env, message", [
    ("-3", None, "--threads must be >= 1, got -3"),
    ("0", "2", "--threads must be >= 1, got 0"),
])
def test_thread_count_below_one_exits_1(capsys, tmp_path, monkeypatch, flag, env, message):
    # SKETCHLS_THREADS, once a fallback for --threads, is not read: it rescues no bad flag
    cfg = _small_config(tmp_path)
    if env is None:
        monkeypatch.delenv("SKETCHLS_THREADS", raising=False)
    else:
        monkeypatch.setenv("SKETCHLS_THREADS", env)
    code, out, err = _run(capsys, "experiment", "--config", str(cfg), "--threads", flag)
    assert code == 1 and out == ""
    assert err == f"usage error: {message}\n"
    assert not (tmp_path / "res.csv").exists()


def test_threads_flag_wins_over_env(capsys, tmp_path, monkeypatch):
    cfg = _small_config(tmp_path)
    monkeypatch.setenv("SKETCHLS_THREADS", "abc")
    code, _, err = _run(capsys, "experiment", "--config", str(cfg), "--threads", "2")
    assert code == 0, err


def test_sketch_size_below_one_in_config_exits_2(capsys, tmp_path):
    cfg = _small_config(tmp_path, m_values="-3, 20")
    code, out, err = _run(capsys, "experiment", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: sketch sizes must be >= 1, got m = -3\n"
    assert not (tmp_path / "res.csv").exists()


def test_repeated_sketch_size_in_config_exits_2(capsys, tmp_path):
    cfg = _small_config(tmp_path, m_values="20, 20")
    code, out, err = _run(capsys, "experiment", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: m_values must be strictly ascending, got (20, 20)\n"
    assert not (tmp_path / "res.csv").exists()


def _reference_sketch(instance, family, m, seed):
    """(SA, Sy): a Gaussian draw from its law, G R~ / sqrt(m); any other family's explicit S."""
    if family == "gaussian":
        G = np.random.default_rng(seed).standard_normal((m, instance.d + 1))
        SB = G @ instance.R_tilde / np.sqrt(m)
        return SB[:, :instance.d], SB[:, instance.d]
    A, y = instance.A, instance.y
    op = make_operator(SketchSpec(family, m, seed), len(A), weights=sampling_weights(family, A))
    return apply(op, A), apply(op, y)


def _reference_sketch_solve(data, family, m, seed, estimator):
    """The sketch-solve dispatch as an explicit if-chain, kept frozen as a reference."""
    instance = load(DatasetFile(path=data))
    A, y, d = instance.A, instance.y, instance.d
    SA, Sy = _reference_sketch(instance, family, m, seed)
    rec0 = classical(SA, Sy)
    sol = solve_exact(instance)
    if estimator == "classical":
        return rec0
    if estimator == "js-oracle":
        return js_oracle(rec0.x_hat, SA, sol.r2, d, m)
    if estimator == "shrinkage":
        return shrinkage(rec0.x_hat, SA, estimate_residual_full(A, y, rec0.x_hat, d, m), d, m)
    if estimator == "shrinkage-alt":
        return shrinkage_alt(rec0.x_hat, SA, estimate_residual_sketched(SA, Sy, rec0.x_hat, d, m),
                             d, m)
    if estimator == "positive-part":
        return positive_part(rec0.x_hat, SA, estimate_residual_full(A, y, rec0.x_hat, d, m), d, m)
    raise AssertionError(f"no reference for {estimator!r}")


def _gram_x_hat(family, m, seed, data):
    """The classical x_hat of the reference's [SA | Sy] = SB through its factor U = L^T R~:
    L is the Cholesky factor of X^T X, X = SB R~^-1."""
    instance = load(DatasetFile(path=data))
    X = np.column_stack(_reference_sketch(instance, family, m, seed)) @ instance.R_tilde_inv
    U = np.linalg.cholesky(X.T @ X).T @ instance.R_tilde
    return lstsq_solve(U, instance.d, True)


_VECTOR_KINDS = [k for k, e in ESTIMATORS.items() if e.targets != "matrix"]


def test_vector_kinds_are_the_reference_kinds():
    assert _VECTOR_KINDS == ["classical", "js-oracle", "shrinkage", "shrinkage-alt",
                             "positive-part"]


@pytest.mark.parametrize("family, m, seed", [("gaussian", 24, 3), ("srht", 30, 4),
                                              ("leverage", 40, 5), ("countsketch", 12, 6)])
@pytest.mark.parametrize("kind", _VECTOR_KINDS)
def test_sketch_solve_matches_the_reference_dispatch(capsys, dataset, family, m, seed, kind):
    code, out, err = _run(capsys, "sketch-solve", "--data", dataset, "--family", family,
                          "--m", str(m), "--seed", str(seed), "--estimator", kind, "--json")
    assert code == 0, err
    payload = json.loads(out)
    ref = _reference_sketch_solve(dataset, family, m, seed, kind)
    assert payload["estimator"] == ref.kind == kind
    assert payload["degenerate"] == str(ref.degenerate).lower()
    # sketch-solve applies S once to [A | y] and factors it as L^T R~, not by the reference's
    # QR, so x_hat and every norm move in their last digits.  Sampling and CountSketch
    # sketch each column alike, so their classical x_hat is bitwise that formula on the
    # reference's [SA | Sy]
    if kind == "classical" and family in ("leverage", "countsketch"):
        assert payload["x_hat"] == [float(v) for v in _gram_x_hat(family, m, seed, dataset)]
    np.testing.assert_allclose(payload["x_hat"], ref.x_hat, rtol=1e-12, atol=0)
    assert payload["shrink_factor"] == pytest.approx(ref.shrink_factor, rel=1e-12, abs=0)
    if ref.r2_estimate is None:
        assert payload["r2_estimate"] == "NA"
    else:
        assert payload["r2_estimate"] == pytest.approx(ref.r2_estimate, rel=1e-12, abs=0)
    instance = load(DatasetFile(path=dataset))
    A, y, d, sol = instance.A, instance.y, instance.d, solve_exact(instance)
    expected = prediction_error(A, ref.x_hat, sol.x_ls)
    assert payload["pred_err"] == pytest.approx(expected, rel=1e-12, abs=0)
    if kind == "classical":
        return
    # the reference shares the estimator functions; check the factor against the README's
    # 1 - (d-2) r2_hat / (m ||SA x||^2), from explicit products, to catch a formula change
    SA, Sy = _reference_sketch(instance, family, m, seed)
    x = classical(SA, Sy).x_hat
    r2_hat = {"js-oracle": sol.r2, "shrinkage-alt": m / (m - d) * np.sum((SA @ x - Sy) ** 2)}.get(
        kind, (m - d - 1) / (m - 1) * np.sum((A @ x - y) ** 2))
    factor = 1 - (d - 2) * r2_hat / (m * np.sum((SA @ x) ** 2))
    if kind == "positive-part":
        factor = max(factor, 0.0)
    assert payload["shrink_factor"] == pytest.approx(factor, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_sketch_solve_reproduces_a_sweep_repetition(capsys, dataset, family):
    """sketch-solve at a repetition's seed gives that repetition's logs bitwise, every kind."""
    m, reps = 24, 3
    cfg = ExperimentConfig(source=DatasetFile(path=dataset), families=(family,), m_values=(m,),
                           estimators=tuple(_VECTOR_KINDS), reps=reps, master_seed=13)
    res = run_experiment(cfg)
    for kind in _VECTOR_KINDS:
        cell = res.cell(family, m, kind)
        for r, seed in enumerate(cfg.rep_seeds(family, m)):
            code, out, err = _run(capsys, "sketch-solve", "--data", dataset, "--family", family,
                                  "--m", str(m), "--seed", str(seed), "--estimator", kind, "--json")
            assert code == 0, err
            payload = json.loads(out)
            assert payload["pred_err"] / res.n == cell.log["pred_err"][r], (kind, r)
            assert payload["shrink_factor"] == cell.log["factor"][r], (kind, r)


def test_sketch_solve_rejects_the_matrix_estimator(capsys, dataset):
    with pytest.raises(SystemExit) as exc:
        main(["sketch-solve", "--data", dataset, "--family", "gaussian", "--m", "24",
              "--seed", "3", "--estimator", "shrinkage-fro"])
    assert exc.value.code == 1
    assert "invalid choice: 'shrinkage-fro'" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "sketchls", "bounds", "--d", "100", "--m",
                           "300", "--r2", "1", "--rho", "0.1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("exact_classical ")


@pytest.fixture()
def inputs(tmp_path, dataset):
    """Files the exit-code table names in braces."""
    rank = tmp_path / "rank.csv"
    rank.write_text("1,1,1\n2,2,2\n3,3,3\n4,4,4\n")  # duplicate feature columns
    features = np.random.default_rng(5).standard_normal((20, 3))
    features[0] = 0.0  # a zero row has row-norm sampling probability 0
    zero_row = tmp_path / "zero_row.csv"
    zero_row.write_text("".join(f"1,{','.join(map(repr, row.tolist()))}\n" for row in features))
    base = _small_config(tmp_path).read_text()
    huge_index = tmp_path / "huge_index.txt"
    huge_index.write_text("1 1000000000000:1.0\n2 1:3\n")
    utf8_csv = tmp_path / "utf8.csv"
    utf8_csv.write_bytes(b"1,2\n\xff,3\n")
    utf8_sparse = tmp_path / "utf8.txt"
    utf8_sparse.write_bytes(b"1 1:2\n\xff 1:3\n")
    cfg_utf8 = tmp_path / "utf8.cfg"
    cfg_utf8.write_bytes(base.encode() + b"# \xff\n")
    overflow = tmp_path / "overflow.csv"  # finite, but its QR overflows
    overflow.write_text("1e308,1e308,1\n-1e308,1e308,2\n1e308,-1e308,0\n1,2,3\n")

    def dense_csv(name, rows):
        path = tmp_path / name
        path.write_text("".join(",".join(map(repr, row.tolist())) + "\n" for row in rows))
        return path

    signs = np.random.default_rng(0).choice([-1e300, 1e300], size=(8, 3))
    energy_overflow = dense_csv("energy_overflow.csv", signs)  # factors, but r2 is past float64
    zeros = tmp_path / "zeros.csv"
    zeros.write_text("1,0,0\n2,0,0\n3,0,0\n")
    rng = np.random.default_rng(7)
    y, features = rng.standard_normal(60), rng.standard_normal((60, 3))
    # ||R||_F^2 overflows, so the rank certificate cannot decide, and so does A * A
    huge_scale = dense_csv("huge_scale.csv", np.column_stack((y, features * 1e155)))
    # every entry of A * A underflows to zero
    tiny_scale = dense_csv("tiny_scale.csv", np.column_stack((y, features * 1e-170)))
    # the Gram of [A | y] is subnormal, so the instance's factor is the Householder QR's
    subnormal_scale = dense_csv("subnormal_scale.csv", np.column_stack((y, features)) * 1e-158)
    repeat_index = tmp_path / "repeat_index.txt"
    repeat_index.write_text("1 1:1.0 2:3.0 2:5.0\n2 1:3\n0 2:1\n")

    def config(name, text):
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        return str(path)

    return {
        "data": dataset,
        "rank": str(rank),
        "zero_row": str(zero_row),
        "huge_index": str(huge_index),
        "utf8_csv": str(utf8_csv),
        "utf8_sparse": str(utf8_sparse),
        "cfg_utf8": str(cfg_utf8),
        "overflow": str(overflow),
        "energy_overflow": str(energy_overflow),
        "zeros": str(zeros),
        "huge_scale": str(huge_scale),
        "tiny_scale": str(tiny_scale),
        "subnormal_scale": str(subnormal_scale),
        "repeat_index": str(repeat_index),
        "missing": str(tmp_path / "missing.csv"),
        "out": str(tmp_path / "out.csv"),
        "nodir": str(tmp_path / "no" / "out.csv"),
        "cfg": config("ok", base),
        "cfg_seed": config("seed", base + "experiment.seed = -1\n"),
        "cfg_unknown_key": config("unknown_key", base + "bounds.eps = 0.0\n"),
        "cfg_kappa_nan": config("kappa_nan", base + "noise.kappa = nan\n"),
        "cfg_kappa_inf": config("kappa_inf", base + "noise.kappa = inf\n"),
        "cfg_rank": config("rank", f"data.path = {rank}\n" + "".join(
            line for line in base.splitlines(True) if not line.startswith("synthetic."))),
        "cfg_huge_scale": config("huge_scale", f"data.path = {huge_scale}\n"
                                 "sketch.families = gaussian, uniform\nsketch.m_values = 20\n"
                                 "experiment.estimators = classical, shrinkage\n"
                                 f"experiment.reps = 3\noutput.path = {tmp_path / 'res.csv'}\n"),
        "cfg_huge_rownorm": config("huge_rownorm", f"data.path = {huge_scale}\n"
                                   "sketch.families = rownorm\nsketch.m_values = 20\n"
                                   "experiment.estimators = classical, shrinkage\n"
                                   f"experiment.reps = 3\noutput.path = {tmp_path / 'rn.csv'}\n"),
        "cfg_huge_reps": config("huge_reps", base + f"experiment.reps = {2**62}\n"),
    }


_BOUNDS = "bounds --d 10 --m 40 --r2 1"
_SKETCH = "sketch-solve --data {data} --family srht --m 24 --seed 3"
_DATAGEN = "datagen --n 64 --d 4 --rho 1"
_RESIDUAL = "verify residual --n 64 --d 4 --m 20 --reps 50"
_GRAM = "verify gram --family countsketch --n 8 --m 4"

# Every exit code each subcommand can reach.  Not reachable: 3 from datagen (null-space
# noise vanishing twice), bounds (undefined bounds are reported as NA), verify stein (the
# covariance is built positive definite) and verify gram (its weight source is Gaussian).
# A row that expects exit 2 or 3 names a fragment its one line of stderr must contain.
_EXIT_TABLE = [
    (f"{_DATAGEN} --seed 1 --out {{out}}", 0, None),
    (f"{_DATAGEN} --seed 1", 1, None),
    (f"{_DATAGEN} --seed -1 --out {{out}}", 2, "seed must fit"),
    (f"{_DATAGEN} --seed {2**64} --out {{out}}", 2, "seed must fit"),
    ("datagen --n 64 --d 4 --rho 0 --seed 1 --out {out}", 2, "rho must be positive"),
    (f"datagen --n {2**62} --d 4 --rho 1 --seed 1 --out {{out}}", 2, "too large for numpy"),
    (f"{_DATAGEN} --seed 1 --out {{nodir}}", 2, "No such file or directory"),
    ("solve --data {data}", 0, None),
    ("solve", 1, None),
    ("solve --data {missing}", 2, "no such file"),
    ("solve --data {rank}", 3, "A is rank deficient"),
    ("solve --data {zeros}", 3, "A is rank deficient"),
    ("solve --format sparse --data {huge_index}", 2, "need n > d >= 1"),
    ("solve --data {utf8_csv}", 2, "not UTF-8 (line 2)"),
    ("solve --format sparse --data {utf8_sparse}", 2, "not UTF-8 (line 2)"),
    ("solve --data {overflow}", 2, "too large to factor without overflow"),
    ("solve --data {energy_overflow}", 2, "squared norms overflow float64"),
    ("solve --format sparse --data {repeat_index}", 2, "feature index 2 repeats"),
    ("solve --data {huge_scale}", 0, None),
    ("solve --data {subnormal_scale}", 0, None),
    (_SKETCH, 0, None),
    (f"{_SKETCH} --estimator shrinkage-fro", 1, None),
    ("sketch-solve --data {data} --family srht --m 0 --seed 3", 2, "sketch size m must be >= 1"),
    (f"sketch-solve --data {{data}} --family gaussian --m {2**62} --seed 3", 2,
     "too large for numpy"),
    (f"sketch-solve --data {{data}} --family rademacher --m {2**62} --seed 3", 2,
     "too large for numpy"),
    (f"sketch-solve --data {{data}} --family countsketch --m {2**62} --seed 3", 2,
     "too large for numpy"),
    ("sketch-solve --data {data} --family srht --m 24 --seed -1", 2, "seed must fit"),
    ("sketch-solve --data {data} --family gaussian --m 3 --seed 3", 3,
     "m=3 <= d+3=9: shrinkage domain"),
    ("sketch-solve --data {data} --family gaussian --m 3 --seed 3 --estimator classical", 3,
     "m=3 < d=6: sketched problem is rank deficient"),
    ("sketch-solve --data {data} --family gaussian --m 6 --seed 3 --estimator js-oracle", 3,
     "m=6 <= d+3=9: shrinkage domain"),
    ("sketch-solve --data {data} --family gaussian --m 7 --seed 3 --estimator shrinkage-alt", 3,
     "m=7 <= d+3=9: shrinkage domain"),
    ("sketch-solve --data {zero_row} --family rownorm --m 8 --seed 1", 3, "strictly positive"),
    ("sketch-solve --data {huge_scale} --family uniform --m 20 --seed 1 --estimator shrinkage",
     0, None),
    ("sketch-solve --data {huge_scale} --family rownorm --m 20 --seed 1", 0, None),
    ("sketch-solve --data {tiny_scale} --family rownorm --m 20 --seed 1", 0, None),
    ("sketch-solve --data {huge_scale} --family leverage --m 20 --seed 1", 0, None),
    ("sketch-solve --data {tiny_scale} --family leverage --m 20 --seed 1", 0, None),
    ("experiment --config {cfg}", 0, None),
    ("experiment", 1, None),
    ("experiment --config {cfg} --threads 0", 1, None),
    ("experiment --config {missing}", 2, "no such config file"),
    ("experiment --config {cfg_seed}", 2, "seed must fit"),
    ("experiment --config {cfg_unknown_key}", 2, "unknown key 'bounds.eps'"),
    ("experiment --config {cfg_kappa_nan}", 2, "unknown key 'noise.kappa'"),
    ("experiment --config {cfg_kappa_inf}", 2, "unknown key 'noise.kappa'"),
    ("experiment --config {cfg_utf8}", 2, "not UTF-8"),
    ("experiment --config {cfg_rank}", 3, "A is rank deficient"),
    ("experiment --config {cfg_huge_scale}", 0, None),
    ("experiment --config {cfg_huge_rownorm}", 0, None),
    ("experiment --config {cfg_huge_reps}", 2, "too large for numpy"),
    (_BOUNDS, 0, None),
    ("bounds --d 10 --m 40", 1, None),
    (f"{_BOUNDS} --B 2", 1, None),
    ("bounds --d 0 --m 10 --r2 1", 2, "d and m must be >= 1"),
    ("bounds --d 10 --m 40 --r2 -1", 2, "r2 must be finite and nonnegative"),
    (f"{_BOUNDS} --rho -1", 2, "rho must be nonnegative"),
    (f"{_BOUNDS} --rho 1 --eps -1", 2, "eps must be finite and nonnegative"),
    (f"{_BOUNDS} --B -1 --sigma-min 1", 2, "B must be positive"),
    (f"{_BOUNDS} --B 1e308 --sigma-min 1", 0, None),
    (f"{_BOUNDS} --B 1e-308 --sigma-min 1", 0, None),
    (f"{_BOUNDS} --sigma-min 2 --sigma-max 1", 2, "sigma_min must not exceed sigma_max"),
    (f"{_BOUNDS} --eta2 -1 --sigma-min 1 --sigma-max 2", 2, "eta2, r2, d and sigma_max"),
    (f"{_BOUNDS} --rho inf", 0, None),
    ("bounds --d 10 --m 40 --r2 nan --rho 1", 2, "r2 must be a number"),
    ("bounds --d 10 --m 40 --r2 inf --rho 1", 2, "r2 must be finite"),
    (f"{_BOUNDS} --rho nan", 2, "rho must be a number"),
    ("bounds --d 2 --m 40 --r2 1 --rho nan", 2, "rho must be a number"),
    (f"{_BOUNDS} --rho 1 --eps nan", 2, "eps must be a number"),
    (f"{_BOUNDS} --rho 1 --eps inf", 2, "eps must be finite"),
    (f"{_BOUNDS} --B nan --sigma-min 1", 2, "B must be a number"),
    (f"{_BOUNDS} --sigma-min nan", 2, "sigma_min must be a number"),
    (f"{_BOUNDS} --eta2 nan --sigma-min 1 --sigma-max 2", 2, "eta2 must be a number"),
    ("verify stein --samples 2000 --tol 1", 0, None),
    ("verify stein --bogus", 1, None),
    ("verify stein --samples 0", 2, "samples must be >= 1"),
    ("verify stein --d 2", 2, "need --d > 2"),
    ("verify stein --seed -1", 2, "seed must fit"),
    ("verify stein --cond 0", 2, "0 < --cond < inf"),
    ("verify stein --cond -1", 2, "0 < --cond < inf"),
    ("verify stein --theta-norm nan", 2, "--theta-norm must be finite"),
    ("verify stein --theta-norm inf", 2, "--theta-norm must be finite"),
    ("verify stein --samples 2000 --theta-norm 1e100", 2, "does not carry its noise"),
    ("verify stein --samples 2000 --theta-norm 1e308", 2, "does not carry its noise"),
    (f"verify stein --d {2**64}", 2, "--d must be at most"),
    (f"verify stein --d {2**62}", 2, "too large for numpy"),
    (f"verify stein --samples {2**62}", 2, "too large for numpy"),
    ("verify stein --tol nan", 2, "--tol must be finite and positive"),
    ("verify stein --tol inf", 2, "--tol must be finite and positive"),
    ("verify stein --samples 2000 --tol 0", 2, "--tol must be finite and positive"),
    ("verify stein --samples 2000 --tol 1e-12", 4, None),
    (f"{_RESIDUAL} --tol 1", 0, None),
    ("verify residual --family fourier", 1, None),
    ("verify residual --reps 0", 2, "reps must be >= 1"),
    ("verify residual --seed -1", 2, "seed must fit"),
    ("verify residual --n 4 --d 4", 2, "need n > d >= 1"),
    (f"verify residual --n {2**62}", 2, "too large for numpy"),
    (f"verify residual --m {2**62} --reps 5", 2, "too large for numpy"),
    (f"verify residual --reps {2**62}", 2, "too large for numpy"),
    ("verify residual --n 64 --d 4 --m 3 --reps 5", 3, "m=3 below column count"),
    ("verify residual --n 64 --d 4 --m 5 --reps 5", 3, "residual estimate needs m > d+1"),
    ("verify residual --rho inf", 2, "plants r2 = 0"),
    ("verify residual --rho 1e400", 2, "plants r2 = 0"),
    ("verify residual --rho 1e30", 2, "but float64 data carry"),
    (f"{_RESIDUAL} --tol nan", 2, "--tol must be finite and positive"),
    (f"{_RESIDUAL} --tol 0", 2, "--tol must be finite and positive"),
    (f"{_RESIDUAL} --tol 1e-12", 4, None),
    (f"{_GRAM} --reps 20 --tol 10", 0, None),
    ("verify gram --n 8 --m 4", 1, None),
    ("verify gram --family gaussian --n 0 --m 4", 2, "n and reps must be >= 1"),
    ("verify gram --family gaussian --n 8 --m 0", 2, "sketch size m must be >= 1"),
    (f"{_GRAM} --reps 0", 2, "n and reps must be >= 1"),
    (f"verify gram --family gaussian --n {2**62} --m 4", 2, "too large for numpy"),
    (f"verify gram --family uniform --n 8 --m {2**62}", 2, "too large for numpy"),
    (f"verify gram --family rademacher --n 4096 --m {2**58}", 2, "too large for numpy"),
    (f"{_GRAM} --seed -1", 2, "seed must fit"),
    (f"{_GRAM} --tol nan", 2, "--tol must be finite and positive"),
    (f"{_GRAM} --tol=-inf", 2, "--tol must be finite and positive"),
    (f"{_GRAM} --reps 20 --tol 0", 2, "--tol must be finite and positive"),
    (f"{_GRAM} --reps 20 --tol 1e-12", 4, None),
]
_STDERR_PREFIX = {1: ("usage error: ", "sketchls"), 2: ("error: ",),
                  3: ("numerical failure: ",)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, expected, fragment", _EXIT_TABLE,
                         ids=[a for a, _, _ in _EXIT_TABLE])
def test_exit_code_table(capsys, inputs, argv, expected, fragment):
    try:
        code = main(argv.format(**inputs).split())
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == expected, err
    assert "Traceback" not in err
    if expected in (0, 4):
        assert err == ""
    else:
        assert len(err.splitlines()) == 1 and err.startswith(_STDERR_PREFIX[expected]), err
    assert (fragment is not None) == (expected in (2, 3)), fragment
    if fragment is not None:
        assert fragment in err, err


_DOCUMENTED_EXIT = {
    errors.InvalidInputError: 2,
    errors.DimensionMismatchError: 2,
    errors.DataFormatError: 2,
    errors.LabelOutOfRangeError: 2,
    errors.ConfigError: 2,
    OSError: 2,
    errors.SketchLSError: 3,
    errors.RankDeficientError: 3,
    errors.RankDeficientSketchError: 3,
    errors.InvalidWeightsError: 3,
    errors.InvalidSketchSizeError: 3,
    errors.DegenerateNoiseError: 3,
    errors.NotSpdError: 3,
    errors.UndefinedBoundError: 3,
    np.linalg.LinAlgError: 3,
}


def test_every_error_class_has_a_documented_exit_code():
    defined = {v for v in vars(errors).values()
               if isinstance(v, type) and issubclass(v, errors.SketchLSError)}
    assert defined == {c for c in _DOCUMENTED_EXIT if issubclass(c, errors.SketchLSError)}


@pytest.mark.parametrize("cls", _DOCUMENTED_EXIT, ids=lambda c: c.__name__)
def test_main_maps_each_error_class_to_its_exit_code(capsys, monkeypatch, cls):
    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "_cmd_bounds", fail)
    code = main(_BOUNDS.split())
    assert code == _DOCUMENTED_EXIT[cls]
    prefix = "error" if code == 2 else "numerical failure"
    assert capsys.readouterr().err == f"{prefix}: boom\n"


# Sizes stay at most 64, so no drawn argument vector asks for a large allocation; the
# out-of-range integers and special floats are where a traceback would hide.  An array's
# size (--n, --d, --m) may also be 2**62, a legal count whose array numpy cannot address.
# --reps, --samples and --threads are never drawn that large: --reps and --threads size
# loops and thread pools.  The exit table checks --reps and --samples at 2**62.
_INTS = st.one_of(st.integers(1, 64), st.sampled_from([-1, 0, 2**64]))
_SIZES = st.one_of(_INTS, st.just(2**62))
_SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([-1, 2**64]))
_FLOATS = st.one_of(st.floats(1e-3, 1e3),
                    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, 1e-308,
                                     1e100]))


@st.composite
def _argv(draw, paths):
    """One argument vector for a subcommand, every size flag given and drawn."""
    def flags(**kinds):
        out = []
        for name, strategy in kinds.items():
            if strategy is _FLOATS and draw(st.booleans()):
                continue  # an optional float flag keeps its default
            out.append(f"--{name.replace('_', '-')}={draw(strategy)!r}")  # "=": negatives too
        return out

    family = ["--family", draw(st.sampled_from(FAMILIES))]
    command = draw(st.sampled_from(["datagen", "solve", "sketch-solve", "experiment", "bounds",
                                    "stein", "residual", "gram"]))
    if command == "datagen":
        return ["datagen", "--out", paths["out"]] + flags(n=_SIZES, d=_SIZES, seed=_SEEDS,
                                                          rho=_FLOATS)
    if command == "solve":
        return ["solve", "--data", paths["data"]]
    if command == "sketch-solve":
        kind = ["--estimator", draw(st.sampled_from(_VECTOR_KINDS))]
        return ["sketch-solve", "--data", paths["data"]] + family + kind + flags(m=_SIZES,
                                                                               seed=_SEEDS)
    if command == "experiment":
        return ["experiment", "--config", paths["cfg"]] + flags(threads=_INTS)
    if command == "bounds":
        return ["bounds"] + flags(d=_SIZES, m=_SIZES, r2=_FLOATS, rho=_FLOATS, eps=_FLOATS,
                                  B=_FLOATS, eta2=_FLOATS, sigma_min=_FLOATS, sigma_max=_FLOATS)
    if command == "stein":
        return ["verify", "stein"] + flags(d=_SIZES, samples=_INTS, seed=_SEEDS,
                                           theta_norm=_FLOATS, cond=_FLOATS, tol=_FLOATS)
    if command == "residual":
        return ["verify", "residual"] + family + flags(n=_SIZES, d=_SIZES, m=_SIZES, reps=_INTS,
                                                       seed=_SEEDS, rho=_FLOATS, tol=_FLOATS)
    return ["verify", "gram"] + family + flags(n=_SIZES, m=_SIZES, reps=_INTS, seed=_SEEDS,
                                               tol=_FLOATS)


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    p, _ = gen_gaussian_data(SyntheticSpec(n=64, d=6, rho=0.5, seed=91))
    save_dense_csv(p, root / "data.csv")
    cfg = _small_config(root)
    cfg.write_text(cfg.read_text() + "experiment.reps = 3\n")
    return {"data": str(root / "data.csv"), "cfg": str(cfg), "out": str(root / "out.csv")}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_no_argument_vector_ends_in_a_traceback(fuzz_paths, data):
    argv = data.draw(_argv(fuzz_paths))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in range(5), (argv, err)
    assert "Traceback" not in out + err, argv
    if code in (1, 2, 3):
        assert len(err.splitlines()) == 1, (argv, err)
    else:
        assert err == "", (argv, err)


@pytest.fixture()
def refused_allocation(monkeypatch):
    """numpy's refusal of a draw past memory, simulated: no large array is ever requested."""
    default_rng = np.random.default_rng
    built = []

    class Refusing:
        def __init__(self, seed):
            self._rng = default_rng(seed)

        def standard_normal(self, size):
            if math.prod(np.atleast_1d(size)) > 10**6:
                raise MemoryError(f"Unable to allocate an array with shape {size}")
            return self._rng.standard_normal(size)

    def geomspace(*args, **kwargs):
        built.append(args)
        return np.logspace(0, 0, 1)

    monkeypatch.setattr(np.random, "default_rng", Refusing)
    monkeypatch.setattr(np, "geomspace", geomspace)
    return built


@pytest.mark.parametrize("argv", [
    "verify stein --d 100000000",
    "sketch-solve --data {data} --family gaussian --m 100000000 --seed 3",
])
def test_an_allocation_past_memory_exits_2(capsys, dataset, refused_allocation, argv):
    code, out, err = _run(capsys, *argv.format(data=dataset).split())
    assert code == 2 and out == ""
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1
    assert refused_allocation == []  # verify stein draws its d x d matrix before the spectrum
