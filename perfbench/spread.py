"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload dense-sweep --seeds 1-10 --seconds 30 \
        [--trace 1] [--out summary.json]

For every metric it prints the median over the runs, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread
(q3 - q1) / median.  Runs go one after another, each through run.py.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else None, "n": len(values)}
    return out


def main() -> int:
    p = argparse.ArgumentParser(description="Spread of benchmark metrics over seeds.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the summary and every run's result here as JSON")
    args = p.parse_args()

    results = []
    for seed in _seeds(args.seeds):
        start = time.perf_counter()
        result = run_once(args.workload, seed, args.seconds, args.trace)
        print(f"seed {seed} ({time.perf_counter() - start:.1f} s): correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in list(result["metrics"].items())[:6]),
              flush=True)
        results.append(result)
    summary = summarize(results)
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{args.workload} {name}: median {s['median']:.6g} {s['unit']} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread} n={s['n']}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                              "seconds": args.seconds, "trace": args.trace,
                                              "summary": summary, "runs": results}, indent=1))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
