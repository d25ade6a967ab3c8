"""Benchmark entry point: run one sketchls workload in a fresh, pinned process.

    python3 perfbench/run.py --workload dense-sweep --seed 1 --seconds 25 --trace 0

Starts perfbench/bench.py with the workload's BLAS thread count in the
environment (OpenBLAS reads it once, when numpy loads) and the
checkout's src/ as the import path for sketchls.  The last line of
standard output is the result object; see bench.py for the metrics.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

from workloads import BLAS_VARS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170


def main() -> int:
    p = argparse.ArgumentParser(description="Run one sketchls benchmark workload.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "sketchls" / "__init__.py").is_file():
        print(f"run.py: no sketchls sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: str(wl.blas_threads) for var in BLAS_VARS})
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", wl.name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {wl.name} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
