"""Run one benchmark workload in this process and print its metrics.

Start it through `run.py`, which pins the BLAS thread count before numpy
loads.  With `--trace 0` the process runs whole sweeps
(`run_experiment` + `write_results_csv`) for `--seconds` with tracing
off, timing the `resolve_instance(cfg)` set-up inside each, and reports
medians.  With `--trace 1` it alternates an untraced sweep with a traced
one and reports per-layer busy time, self time and call counts.  Every sweep's
results CSV is checked; the last line of standard output is the result
object.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sketchls  # noqa: E402
from sketchls import dataio, harness  # noqa: E402
from sketchls.sketches import FAMILIES  # noqa: E402

import tracer as tr  # noqa: E402
from workloads import BLAS_VARS, WORKLOADS  # noqa: E402

MIN_SWEEPS = 3
MIN_TRACED = 2
Z_MAX = 4.0  # classical Gaussian mean error vs its exact expectation, in standard errors

END_TO_END = (
    ("sweep_s", "s"),
    ("setup_s", "s"),
    ("rep_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

LAYERS = (
    "datagen.gen_gaussian_data", "dataio.load", "core.ProblemInstance", "core.solve_exact",
    *(f"sketches.make_operator.{f}" for f in FAMILIES), "sketches.leverage_scores",
    *(f"sketches.apply.{f}" for f in FAMILIES),
    *(f"estimators.{k}" for k in tr.ESTIMATORS), "core.prediction_error", "bounds",
    "dataio.write_results_csv", tr.REP,
)
# Layers whose spans have traced children, so self time differs from busy time.
SELF_LAYERS = ("datagen.gen_gaussian_data", "dataio.load", "sketches.make_operator.leverage",
               "estimators.positive_part")
# Per-layer values that must repeat exactly from one traced sweep to the next.
EXACT = ("sketches.realized_mb", "harness.useful_frac")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run prints."""
    spec = []
    for layer in LAYERS:
        spec.append((f"{layer}.s", "s", "lower"))
        if layer in SELF_LAYERS:
            spec.append((f"{layer}.self_s", "s", "lower"))
        spec.append((f"{layer}.calls", "count", "lower"))
    spec += [
        ("sketches.realized_mb", "MiB-computed", "lower"),
        ("harness.self.s", "s", "lower"),
        ("harness.useful_frac", "ratio", "higher"),
        ("harness.pool_busy_frac", "ratio", "higher"),
        ("harness.sweep.s", "s", "lower"),
        ("tracing.overhead_s", "s", "lower"),
    ]
    return spec


class Ops:
    """Tally of attempted and failed operations (runnable cells and checks)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)


def sweep(cfg, threads):
    """One sweep as a user runs it: the experiment, then its results CSV."""
    result = harness.run_experiment(cfg, threads)
    dataio.write_results_csv(result.cells, cfg.out_path)
    return result


def _runnable(cell) -> bool:
    """A cell the domain gate let through (it may still have failed)."""
    return cell.skipped is None or cell.skipped.startswith("failed:")


def repetitions_run(result, reps: int) -> int:
    """Realizations run: reps for every (family, m) with a runnable cell."""
    return reps * len({(c.family, c.m) for c in result.cells if _runnable(c)})


def useful_repetitions(result, reps: int) -> int:
    """Realizations whose numbers reach the CSV: those of groups with no failed cell."""
    runnable = {(c.family, c.m) for c in result.cells if _runnable(c)}
    failed = {(c.family, c.m) for c in result.cells
              if c.skipped and c.skipped.startswith("failed:")}
    return reps * len(runnable - failed)


def _csv_rows(data: bytes) -> dict:
    rows = {}
    for row in csv.DictReader(io.StringIO(data.decode("utf-8"))):
        values = {k: None if v == "NA" else float(v) for k, v in row.items()
                  if k not in ("family", "m", "estimator")}
        rows[(row["family"], int(row["m"]), row["estimator"])] = values
    return rows


def check_sweep(ops: Ops, result, data: bytes, reference: bytes, cfg) -> None:
    """Count one sweep's runnable cells and output checks into `ops`."""
    runnable = {(c.family, c.m, c.estimator) for c in result.cells if _runnable(c)}
    for c in result.cells:
        if _runnable(c):
            ops.check(c.skipped is None and c.reps == cfg.reps,
                      f"cell {c.family}/{c.m}/{c.estimator}: {c.skipped or f'reps={c.reps}'}")
    ops.check(data == reference, "results CSV differs from the first sweep of this run")
    rows = _csv_rows(data)
    ops.check(set(rows) == {(c.family, c.m, c.estimator) for c in result.cells},
              "results CSV rows do not match the cells of the sweep")
    if "gaussian" not in cfg.families:
        return
    vector = getattr(cfg.source, "k", None) is None and getattr(cfg.source, "onehot", None) is None
    shrink = [k for k in ("shrinkage", "shrinkage-fro") if k in cfg.estimators]
    for m in cfg.m_values:
        key = ("gaussian", m, "classical")
        if key not in runnable:
            continue
        cl = rows.get(key, {})
        mean, std = cl.get("mean_pred_err"), cl.get("std_pred_err")
        bound = cl.get("bound_exact_classical")
        if vector:
            ok = None not in (mean, std, bound) and std > 0
            z = (mean - bound) / (std / math.sqrt(cfg.reps)) if ok else math.nan
            ops.check(ok and abs(z) <= Z_MAX, f"gaussian m={m}: classical error is "
                                              f"{z:.2f} standard errors from its exact value")
        for kind in shrink:
            if ("gaussian", m, kind) in runnable:
                sh = rows.get(("gaussian", m, kind), {}).get("mean_pred_err")
                ops.check(None not in (mean, sh) and sh < mean,
                          f"gaussian m={m}: {kind} error {sh} does not beat classical {mean}")


def _more(done: int, minimum: int, start: float, seconds: float) -> bool:
    """Another sample is due: fewer than `minimum` so far, or one more at
    the mean pace so far still ends within `seconds` of `start`."""
    return done < minimum or (perf_counter() - start) * (1 + 1 / done) <= seconds


def measure(wl, cfg, seconds: float):
    """Run whole sweeps, tracing off, for `seconds`.

    Set-up is the `resolve_instance` call each sweep makes; a single
    wrapper times it (one span per sweep), so set-up and the repetitions
    that follow are split within the same sweep.
    """
    ops, sweeps, reference = Ops(), [], None
    probe = tr.Tracer()
    probe.wrap(harness, "resolve_instance", "setup")
    try:
        start = perf_counter()
        while _more(len(sweeps), MIN_SWEEPS, start, seconds):
            t0 = perf_counter()
            result = sweep(cfg, wl.threads)
            sweeps.append(perf_counter() - t0)
            data = Path(cfg.out_path).read_bytes()
            reference = reference or data
            check_sweep(ops, result, data, reference, cfg)
    finally:
        probe.restore()
    setups = [s.duration for s in probe.spans]
    reps_run = repetitions_run(result, cfg.reps)
    rep_ms = [(t - s) * 1000 / reps_run for t, s in zip(sweeps, setups)]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = {"sweep_s": sweeps, "setup_s": setups, "rep_ms": rep_ms, "peak_rss_mb": [peak]}
    return samples, ops, reference, reps_run


def layer_metrics(spans, result, cfg, threads) -> dict[str, float]:
    """Per-layer values of one traced sweep."""
    totals = tr.layer_totals(spans)
    zero = {"s": 0.0, "self_s": 0.0, "calls": 0, "mib": 0.0}
    out = {}
    for layer in LAYERS:
        row = totals.get(layer, zero)
        out[f"{layer}.s"] = row["s"]
        if layer in SELF_LAYERS:
            out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.calls"] = row["calls"]
    rep, root = totals.get(tr.REP, zero), totals[tr.SWEEP]
    out["sketches.realized_mb"] = sum(v["mib"] for k, v in totals.items()
                                      if k.startswith("sketches.make_operator."))
    # Harness code outside every traced layer: two-sketch residuals, aggregation
    # and, with a pool, the main thread's wait for its workers.
    out["harness.self.s"] = root["self_s"] + rep["self_s"]
    out["harness.useful_frac"] = useful_repetitions(result, cfg.reps) / rep["calls"]
    # Busy share of the harness threads; with one thread, the sweep's share spent in repetitions.
    out["harness.pool_busy_frac"] = rep["s"] / (threads * root["s"])
    out["harness.sweep.s"] = root["s"]
    return out


def measure_traced(wl, cfg, seconds: float):
    """Alternate untraced and traced sweeps for `seconds`; check the tracer left no trace."""
    ops, plain, samples, all_spans, reference = Ops(), [], [], [], None
    start = perf_counter()
    while _more(len(samples), MIN_TRACED, start, seconds):
        t0 = perf_counter()
        result = sweep(cfg, wl.threads)
        plain.append(perf_counter() - t0)
        data = Path(cfg.out_path).read_bytes()
        reference = reference or data
        check_sweep(ops, result, data, reference, cfg)

        originals = [(obj, attr, getattr(obj, attr)) for obj, attr, *_ in tr.patch_points()]
        with tr.traced() as tracer:
            with tracer.region(tr.SWEEP):
                traced_result = sweep(cfg, wl.threads)
        ops.check(all(getattr(obj, attr) is fn for obj, attr, fn in originals),
                  "a traced attribute was not restored")
        traced_data = Path(cfg.out_path).read_bytes()
        ops.check(traced_data == data, "the traced sweep changed the results CSV")
        check_sweep(ops, traced_result, traced_data, reference, cfg)
        ops.check(all(math.isclose(own, top, rel_tol=1e-9)
                      for own, top in tr.thread_balance(tracer.spans).values()),
                  "span self times do not add up to the traced time on every thread")
        samples.append(layer_metrics(tracer.spans, traced_result, cfg, wl.threads))
        all_spans.append(tracer.spans)

    metrics = {}
    for name, _, _ in per_layer_spec():
        if name == "tracing.overhead_s":
            continue
        values = [s[name] for s in samples]
        if name.endswith(".calls") or name in EXACT:
            ops.check(len(set(values)) == 1, f"{name} differs between traced sweeps: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["tracing.overhead_s"] = metrics["harness.sweep.s"] - statistics.median(plain)
    return metrics, ops, reference, all_spans


def environment(wl, digest: str) -> dict:
    """The settings a run's numbers, and its CSV digest, depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": wl.name,
        "harness_threads": wl.threads,
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "openblas_config": blas.get("openblas configuration"),
        "results_csv_sha256": digest,
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]

    if os.environ.get("OPENBLAS_NUM_THREADS") != str(wl.blas_threads):
        print("bench.py: start workloads through perfbench/run.py, which pins the BLAS threads",
              file=sys.stderr)
        return 2
    if SRC not in Path(sketchls.__file__).resolve().parents:
        print(f"bench.py: sketchls was imported from {sketchls.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    workdir = HERE / "out" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = wl.build(args.seed, workdir)
    sweep(replace(cfg, reps=1), wl.threads)  # warm-up: first-touch allocations, BLAS threads

    if args.trace:
        metrics, ops, reference, all_spans = measure_traced(wl, cfg, args.seconds)
        units = {name: unit for name, unit, _ in per_layer_spec()}
        spans = [[[s.id, s.name, s.start, s.end, s.thread, s.parent, s.mib] for s in run]
                 for run in all_spans]
        (workdir / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
        for name, value in metrics.items():
            print(f"{wl.name} {name}: {value:.6g} {units[name]}")
    else:
        samples, ops, reference, reps_run = measure(wl, cfg, args.seconds)
        units = dict(END_TO_END)
        metrics = {name: statistics.median(samples[name]) for name, _ in END_TO_END}
        for name, unit in END_TO_END:
            q1, q3 = _quartiles(samples[name])
            print(f"{wl.name} {name}: median {metrics[name]:.6g} {unit} "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples[name])})")
        print(f"{wl.name} repetitions per sweep: {reps_run}")
    shutil.rmtree(workdir / "inputs", ignore_errors=True)

    env = environment(wl, hashlib.sha256(reference).hexdigest())
    (workdir / "env.json").write_text(json.dumps(env, indent=1), encoding="utf-8")
    print("env " + json.dumps(env))
    for message in ops.messages:
        print("check failed: " + message)
    print(f"{wl.name} fail_frac: {ops.failed / ops.attempted:.6g} ratio "
          f"({ops.failed} of {ops.attempted} operations failed)")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
