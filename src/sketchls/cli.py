"""Command-line entry point.

Subcommands: datagen, solve, sketch-solve, experiment, bounds, verify.
Outputs are line-oriented `name value` pairs; --json switches every
subcommand to a single JSON object.  Exit codes: 0 success, 1 usage
error, 2 invalid input, 3 numerical failure, 4 verification tolerance
failure.  `main` picks 2 or 3 from the exception's class alone; a
MemoryError, sizes this machine cannot hold, is invalid input (2).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .bounds import BoundInputs, BoundReport, evaluate_report
from .config import load_config
from .core import prediction_error, snr, solve_exact
from .dataio import FORMAT_DENSE, FORMATS, DatasetFile, load, save_dense_csv, write_results_csv
from .datagen import SyntheticSpec, gen_gaussian_data
from .errors import InvalidInputError, InvalidSketchSizeError, SketchLSError
from .estimators import ESTIMATORS, SHRINKAGE, skip_reason
from .harness import (
    SteinInstance,
    repetition,
    run_experiment,
    verify_gram_identity,
    verify_residual_unbiased,
    verify_stein,
)
from .sketches import (FAMILIES, SketchSpec, check_addressable, check_seed, derive_seed,
                       sampling_weights)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3
EXIT_TOLERANCE = 4
_INDEX_MAX = np.iinfo(np.intp).max


class UsageError(Exception):
    """Flag combination rejected after argparse accepted the syntax."""


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1 and one stderr line."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message} (see {self.prog} --help)\n")


def _emit(args, pairs: dict) -> None:
    if args.json:
        print(json.dumps(pairs, sort_keys=True))
        return
    for key, value in pairs.items():
        if isinstance(value, (list, tuple)):
            print(key, " ".join(repr(float(v)) for v in value))
        elif isinstance(value, float):
            print(key, repr(value))
        else:
            print(key, value)


def _cmd_datagen(args) -> int:
    spec = SyntheticSpec(n=args.n, d=args.d, rho=args.rho, seed=args.seed)
    instance, sol = gen_gaussian_data(spec)
    save_dense_csv(instance, args.out)
    _emit(args, {"n": args.n, "d": args.d, "rho": args.rho, "r2": sol.r2, "out": args.out})
    return EXIT_OK


def _cmd_solve(args) -> int:
    sol = solve_exact(load(DatasetFile(path=args.data, format=args.format)))
    rho = snr(sol)
    pairs = {
        "x_ls": [float(v) for v in np.ravel(sol.x_ls)],
        "r2": sol.r2,
        "snr": rho if math.isfinite(rho) else "inf",
    }
    _emit(args, pairs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(pairs, fh, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def _cmd_sketch_solve(args) -> int:
    instance = load(DatasetFile(path=args.data, format=args.format))
    SketchSpec(args.family, args.m, args.seed)  # a sweep's order: size and seed, gate, repetition
    reason = skip_reason(args.estimator, instance.d, args.m, False)
    if reason is not None:
        raise InvalidSketchSizeError(reason)
    sol = solve_exact(instance)
    _, records = repetition(instance, sol, args.family, args.m, args.seed, (args.estimator,),
                            False, sampling_weights(args.family, instance.A))
    rec = records[args.estimator]
    pairs = {
        "estimator": rec.kind,
        "shrink_factor": rec.shrink_factor,
        "r2_estimate": rec.r2_estimate if rec.r2_estimate is not None else "NA",
        "degenerate": str(rec.degenerate).lower(),
        "x_hat": [float(v) for v in rec.x_hat],
        "pred_err": prediction_error(instance.R, rec.x_hat, sol.x_ls),
    }
    _emit(args, pairs)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    if args.threads < 1:
        raise UsageError(f"--threads must be >= 1, got {args.threads}")
    result = run_experiment(cfg, threads=args.threads)
    write_results_csv(result.cells, cfg.out_path)
    _emit(args, {
        "cells": len(result.cells),
        "n": result.n,
        "d": result.d,
        "r2": result.r2,
        "rho": result.rho,
        "out": cfg.out_path,
    })
    return EXIT_OK


def _report_pairs(report: BoundReport) -> dict:
    pairs = {}
    for name in BoundReport.FIELDS:
        value = getattr(report, name)
        if value is None:
            pairs[name] = f"NA ({report.reasons[name]})"
        elif name in report.reasons:
            pairs[name] = f"{value!r} ({report.reasons[name]})"
        else:
            pairs[name] = value
    return pairs


def _cmd_bounds(args) -> int:
    if args.B is not None and args.eta2 is not None:
        raise UsageError("give --B or --eta2, not both")
    if args.B is not None and args.sigma_min is None:
        raise UsageError("--B needs --sigma-min")
    if args.eta2 is not None and (args.sigma_min is None or args.sigma_max is None):
        raise UsageError("--eta2 needs --sigma-min and --sigma-max")
    inputs = BoundInputs(
        d=args.d, m=args.m, r2=args.r2, rho=args.rho,
        sigma_min=args.sigma_min, sigma_max=args.sigma_max,
        B=args.B if args.B is not None else math.inf,
        eta2=args.eta2, eps=args.eps,
    )
    _emit(args, _report_pairs(evaluate_report(inputs)))
    return EXIT_OK


def _check_tol(args) -> None:
    """Reject a tolerance no check can be held to, before anything is drawn."""
    if not 0 < args.tol < math.inf:
        raise InvalidInputError(f"--tol must be finite and positive, got {args.tol}")


def _verify_result(args, pairs: dict, passed: bool) -> int:
    pairs["tolerance"] = pairs.get("tolerance", args.tol)
    pairs["status"] = "PASS" if passed else "FAIL"
    _emit(args, pairs)
    return EXIT_OK if passed else EXIT_TOLERANCE


def _cmd_verify_stein(args) -> int:
    # the spectrum, theta and the seed are used before SteinInstance can check its inputs
    _check_tol(args)
    if not (args.d > 2 and 0 < args.cond < math.inf):
        raise InvalidInputError(f"need --d > 2 and 0 < --cond < inf, got {args.d}, {args.cond}")
    if not math.isfinite(args.theta_norm):
        raise InvalidInputError(f"--theta-norm must be finite, got {args.theta_norm}")
    check_addressable((args.d, args.d), "--d's covariance")
    check_seed(args.seed)
    # the d x d draw is the first allocation, so a --d too large for memory builds nothing
    rng = np.random.default_rng(args.seed)
    Q, _ = np.linalg.qr(rng.standard_normal((args.d, args.d)))
    sigma = (Q * np.geomspace(1.0, args.cond, args.d)) @ Q.T
    direction = rng.standard_normal(args.d)
    # scaling a unit vector cannot overflow: every entry stays within |--theta-norm|
    theta = args.theta_norm * (direction / np.linalg.norm(direction))
    lhs, rhs = verify_stein(SteinInstance(theta=theta, sigma=sigma, samples=args.samples,
                                          seed=args.seed), args.tol)
    rel = abs(lhs - rhs) / abs(rhs)
    return _verify_result(args, {"lhs": lhs, "rhs": rhs, "rel_diff": rel}, rel <= args.tol)


def _cmd_verify_residual(args) -> int:
    _check_tol(args)
    instance, sol = gen_gaussian_data(SyntheticSpec(n=args.n, d=args.d, rho=args.rho,
                                                    seed=derive_seed(args.seed, "datagen")))
    # the check divides by the planted r2 = 1/rho, so it must be > 0 and survive the data's rounding
    fit_r2 = instance.solution.r2
    if not abs(fit_r2 - sol.r2) < args.tol * sol.r2:
        raise InvalidInputError(f"--rho {args.rho} plants r2 = {sol.r2:.3e}, but float64 data "
                                f"carry {fit_r2:.3e}: the check needs them to agree within --tol")
    mean_full, mean_sketched = verify_residual_unbiased(
        instance, args.family, args.m, args.reps, args.seed)
    rel_full = abs(mean_full - sol.r2) / sol.r2
    rel_sketched = abs(mean_sketched - sol.r2) / sol.r2
    passed = rel_full <= args.tol and rel_sketched <= args.tol
    return _verify_result(args, {
        "r2": sol.r2,
        "mean_full": mean_full,
        "mean_sketched": mean_sketched,
        "rel_diff_full": rel_full,
        "rel_diff_sketched": rel_sketched,
    }, passed)


def _cmd_verify_gram(args) -> int:
    _check_tol(args)
    deviation = verify_gram_identity(args.family, args.n, args.m, args.reps, args.seed)
    return _verify_result(args, {"max_deviation": deviation}, deviation <= args.tol)


def build_parser() -> _Parser:
    parser = _Parser(prog="sketchls", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sketchls {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, fn, summary):
        """A subcommand that runs `fn` and, like every subcommand, takes --json."""
        p = parent.add_parser(name, help=summary)
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        p.set_defaults(fn=fn)
        return p

    p = command(sub, "datagen", _cmd_datagen, "write a synthetic instance as dense CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = command(sub, "solve", _cmd_solve, "exact least-squares solution of a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=FORMATS, default=FORMAT_DENSE)
    p.add_argument("--out", help="also write the solution as JSON to this path")

    p = command(sub, "sketch-solve", _cmd_sketch_solve, "sketch the data and run one estimator")
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=FORMATS, default=FORMAT_DENSE)
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    # a matrix kind equals its vector counterpart on the vector target read here
    p.add_argument("--estimator", default=SHRINKAGE,
                   choices=[k for k, e in ESTIMATORS.items() if e.targets != "matrix"])

    p = command(sub, "experiment", _cmd_experiment, "run a Monte Carlo sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, default=1, help="worker cap (default: 1)")

    p = command(sub, "bounds", _cmd_bounds, "evaluate every closed-form bound")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r2", type=float, required=True)
    p.add_argument("--rho", type=float)
    p.add_argument("--B", type=float)
    p.add_argument("--eta2", type=float)
    p.add_argument("--sigma-min", dest="sigma_min", type=float)
    p.add_argument("--sigma-max", dest="sigma_max", type=float)
    p.add_argument("--eps", type=float, default=0.0)

    p = sub.add_parser("verify", help="Monte Carlo verification gates")
    vsub = p.add_subparsers(dest="check", required=True)

    v = command(vsub, "stein", _cmd_verify_stein, "shrinkage error identity")
    v.add_argument("--d", type=int, default=10)
    v.add_argument("--samples", type=int, default=100_000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--theta-norm", dest="theta_norm", type=float, default=0.0)
    v.add_argument("--cond", type=float, default=100.0)
    v.add_argument("--tol", type=float, default=0.02)

    v = command(vsub, "residual", _cmd_verify_residual, "residual-estimate unbiasedness")
    v.add_argument("--n", type=int, default=256)
    v.add_argument("--d", type=int, default=20)
    v.add_argument("--rho", type=float, default=1.0)
    v.add_argument("--family", choices=FAMILIES, default="gaussian")
    v.add_argument("--m", type=int, default=60)
    v.add_argument("--reps", type=int, default=500)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, default=0.02)

    v = command(vsub, "gram", _cmd_verify_gram, "Gram identity E[S^T S] = I")
    v.add_argument("--family", choices=FAMILIES, required=True)
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--m", type=int, required=True)
    v.add_argument("--reps", type=int, default=10_000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, default=0.05)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a count sizes an array or a loop, and numpy indexes with a signed 64-bit integer
        for name in ("n", "d", "m", "reps", "samples", "threads"):
            value = getattr(args, name, None)
            if value is not None and value > _INDEX_MAX:
                raise InvalidInputError(f"--{name} must be at most {_INDEX_MAX}, got {value}")
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # sizes past this machine's memory: an input it cannot run
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SketchLSError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
