"""The benchmark's workloads: what each one sweeps and why it was chosen.

Each workload pins the harness thread count and the BLAS thread count of
the process that runs it (harness x BLAS threads <= 2 cores) and builds
its inputs from the workload seed alone, under `<work dir>/inputs`.
sketchls is imported inside the builders, so `run.py` can read the pins
without loading numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int        # harness worker threads passed to run_experiment
    blas_threads: int   # OPENBLAS_NUM_THREADS / OMP_NUM_THREADS of the process
    reps: int
    build: Callable[[int, Path], object]  # (seed, work dir) -> ExperimentConfig


def _synthetic(seed, workdir, reps, n, families, estimators, two_sketch=False):
    from sketchls import ExperimentConfig, SyntheticSpec, derive_seed

    return ExperimentConfig(
        source=SyntheticSpec(n=n, d=100, rho=0.1, seed=derive_seed(seed, "datagen")),
        families=families, m_values=(150, 200, 300), estimators=estimators,
        reps=reps, master_seed=seed, two_sketch=two_sketch,
        out_path=str(workdir / "results.csv"))


def _dense(seed, workdir):
    return _synthetic(seed, workdir, DENSE.reps, 4096, ("gaussian", "rademacher"),
                      ("classical", "js-oracle", "shrinkage", "shrinkage-alt", "positive-part"))


def _structured(seed, workdir):
    return _synthetic(seed, workdir, STRUCTURED.reps, 3000,
                      ("srht", "countsketch", "uniform", "rownorm", "leverage"),
                      ("classical", "shrinkage", "shrinkage-alt", "positive-part"),
                      two_sketch=True)


def write_label_csv(path: Path, seed: int, n: int = 4000, d: int = 80, classes: int = 10) -> None:
    """Dense CSV with integer labels in [0, classes) and standard normal features."""
    import numpy as np
    from sketchls import derive_seed

    rng = np.random.default_rng(derive_seed(seed, "file-matrix"))
    A = rng.standard_normal((n, d))
    labels = rng.integers(0, classes, size=n)
    lines = ["y," + ",".join(f"x{j}" for j in range(1, d + 1))]
    lines += [f"{labels[i]}," + ",".join(repr(float(v)) for v in A[i]) for i in range(n)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _file_matrix(seed, workdir):
    from sketchls import DatasetFile, ExperimentConfig

    data = workdir / "inputs" / "labels.csv"
    data.parent.mkdir(exist_ok=True)
    write_label_csv(data, seed)
    return ExperimentConfig(
        source=DatasetFile(str(data), onehot=10),
        families=("gaussian", "srht", "countsketch"), m_values=(150, 300),
        estimators=("classical", "shrinkage-fro"), reps=FILE_MATRIX.reps,
        master_seed=seed, out_path=str(workdir / "results.csv"))


DENSE = Workload(
    "dense-sweep",
    "dense Gaussian/Rademacher realization and datagen's complete QR dominate; "
    "no fast transform runs",
    threads=1, blas_threads=2, reps=20, build=_dense)
STRUCTURED = Workload(
    "structured-sweep",
    "SRHT padding, CountSketch, per-rep leverage QR and two-sketch residuals dominate; "
    "no dense family runs",
    threads=1, blas_threads=1, reps=6, build=_structured)
FILE_MATRIX = Workload(
    "file-matrix",
    "pure-Python CSV load, one-hot matrix targets and the harness thread pool; "
    "no synthetic generation",
    threads=2, blas_threads=1, reps=20, build=_file_matrix)

WORKLOADS = {w.name: w for w in (DENSE, STRUCTURED, FILE_MATRIX)}
