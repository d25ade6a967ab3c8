"""Self-test of the benchmark on tiny sweeps: tracer bookkeeping and failure counting."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import bench
import tracer as tr
from sketchls import ExperimentConfig, SyntheticSpec, derive_seed, harness
from sketchls.errors import RankDeficientSketchError
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def _cfg(tmp_path, **overrides):
    base = dict(
        source=SyntheticSpec(n=96, d=6, rho=0.1, seed=3),
        families=("gaussian", "srht", "leverage"),
        m_values=(12, 24),
        estimators=("classical", "shrinkage", "positive-part"),
        reps=4,
        master_seed=9,
        out_path=str(tmp_path / "results.csv"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _traced_sweep(cfg, threads):
    with tr.traced() as tracer:
        with tracer.region(tr.SWEEP):
            result = bench.sweep(cfg, threads)
    return tracer.spans, result


def test_tracer_restores_every_attribute_even_on_error():
    before = [(obj, attr, getattr(obj, attr)) for obj, attr, *_ in tr.patch_points()]
    with pytest.raises(RuntimeError):
        with tr.traced():
            assert all(getattr(obj, attr) is not fn for obj, attr, fn in before)
            raise RuntimeError("inside the traced block")
    assert all(getattr(obj, attr) is fn for obj, attr, fn in before)


def test_traced_sweep_writes_the_same_csv(tmp_path):
    cfg = _cfg(tmp_path, two_sketch=True)
    bench.sweep(cfg, 1)
    plain = Path(cfg.out_path).read_bytes()
    spans, _ = _traced_sweep(cfg, 1)
    assert Path(cfg.out_path).read_bytes() == plain
    assert {"sketches.leverage_scores", "sketches.apply.srht", "estimators.positive_part"} <= {
        s.name for s in spans}


def test_layer_self_times_and_harness_self_sum_to_the_sweep(tmp_path):
    cfg = _cfg(tmp_path)
    spans, result = _traced_sweep(cfg, 1)
    m = bench.layer_metrics(spans, result, cfg, 1)
    layers = sum(m[f"{layer}.self_s"] if layer in bench.SELF_LAYERS else m[f"{layer}.s"]
                 for layer in bench.LAYERS if layer != tr.REP)
    assert layers + m["harness.self.s"] == pytest.approx(m["harness.sweep.s"], rel=1e-9)
    assert m["harness.run_rep.calls"] == 2 * 3 * cfg.reps
    assert m["harness.useful_frac"] == 1.0


def test_self_times_balance_on_every_pool_thread(tmp_path):
    cfg = _cfg(tmp_path)
    spans, _ = _traced_sweep(cfg, 2)
    root = next(s for s in spans if s.name == tr.SWEEP)
    assert any(s.thread != root.thread for s in spans if s.name == tr.REP)
    balance = tr.thread_balance(spans)
    for own, top in balance.values():
        assert own == pytest.approx(top, rel=1e-9)
    assert balance[root.thread][1] == pytest.approx(root.duration, rel=1e-12)


def test_injected_failing_repetition_raises_fail_frac(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path, families=("gaussian",))
    wl = SimpleNamespace(threads=1)
    _, ops, _, _ = bench.measure(wl, cfg, 0)
    assert ops.attempted > 0 and ops.failed == 0, ops.messages

    run_rep = harness._run_rep
    bad_seed = derive_seed(cfg.master_seed, "gaussian", 24, 1)

    def flaky(instance, sol, family, m, seed, *rest):
        if seed == bad_seed:
            raise RankDeficientSketchError("injected")
        return run_rep(instance, sol, family, m, seed, *rest)

    monkeypatch.setattr(harness, "_run_rep", flaky)
    _, ops, _, _ = bench.measure(wl, cfg, 0)
    assert ops.failed / ops.attempted > 0
    failed_cells = {msg.split(":")[0] for msg in ops.messages if msg.startswith("cell ")}
    assert failed_cells == {f"cell gaussian/24/{k}" for k in cfg.estimators}
    metrics, _, _, _ = bench.measure_traced(wl, cfg, 0)
    assert metrics["harness.useful_frac"] == 0.5
    assert harness._run_rep is flaky


def test_benchmark_json_matches_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == bench.per_layer_spec()


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "file-matrix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
