"""Seeded Monte Carlo experiments and identity-verification checks.

`run_experiment` sweeps (sketch family x sketch size x estimator) with a
paired design: within one repetition every estimator sees the same
sketch realization, which sharply reduces the variance of estimator
comparisons.  Per-repetition seeds are derived from the master seed and
the cell key alone, so results are independent of thread count and
iteration order, and any cell can be replayed in isolation.

A repetition (`repetition`) factors one realization (`sketch_factor`) and
runs every estimator kind on it; a sweep adds the error metrics, and
`sketch-solve` is one repetition of one kind.  A Gaussian S is rotation
invariant, so S[A | b] is drawn from its law G R~ / sqrt(m), with G an
m x (d+k') standard normal matrix and R~ the triangular factor of [A | b]
(`ProblemInstance.R_tilde`): O(m (d+k')^2), independent of n.  Every other
family applies its realized operator once, to `ProblemInstance.AB`.
`classical_stacked` factors SB = S [A | b] = Q U; a rank or overflow error
fails the cell, not the sweep.  Every norm after it comes from a
triangular factor's blocks (`core.factor_blocks`): U's (d+k')-row blocks,
||SA v - S b w|| = ||U_A v - U_b w||, R~'s for the full-data residual
(`residual_estimates`), and A's R factor for the prediction error.

The verify_* functions are direct Monte Carlo checks of the identities
the estimators rely on (shrinkage error identity, residual-estimate
unbiasedness, the Gram identity E[S^T S] = I).  They realize explicit
operators for every family: these identities are about S itself.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import bounds as bounds_mod
from . import estimators as est_mod
from .core import ExactSolution, ProblemInstance, factor_blocks, prediction_error, snr, solve_exact
from .datagen import SyntheticSpec, add_noise, gen_gaussian_data
from .dataio import DatasetFile, load
from .errors import ConfigError, InvalidInputError, NotSpdError, SketchLSError
from .sketches import (
    FAMILIES,
    WEIGHTED_FAMILIES,
    SketchSpec,
    apply,
    as_matrix,
    check_seed,
    derive_seed,
    make_operator,
    sampling_weights,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a data source and the grid to sweep over it."""

    source: SyntheticSpec | DatasetFile
    families: tuple[str, ...]
    m_values: tuple[int, ...]
    estimators: tuple[str, ...]
    reps: int = 100
    master_seed: int = 0
    kappa: float = 0.0
    two_sketch: bool = False
    out_path: str | None = None

    def __post_init__(self):
        for f in self.families:
            if f not in FAMILIES:
                raise ConfigError(f"unknown sketch family {f!r}")
        for e in self.estimators:
            if e not in est_mod.KINDS:
                raise ConfigError(f"unknown estimator {e!r}")
        if not self.families or not self.m_values or not self.estimators:
            raise ConfigError("families, m_values, and estimators must be nonempty")
        for name in ("families", "estimators"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} must not repeat, got {values}")
        if any(a >= b for a, b in zip(self.m_values, self.m_values[1:])):
            raise ConfigError(f"m_values must be strictly ascending, got {self.m_values}")
        if self.m_values[0] < 1:
            raise ConfigError(f"sketch sizes must be >= 1, got m = {self.m_values[0]}")
        if self.reps < 1:
            raise ConfigError("reps must be >= 1")
        if not 0 <= self.kappa < math.inf:
            raise ConfigError(f"kappa must be finite and nonnegative, got {self.kappa}")
        check_seed(self.master_seed, ConfigError)


@dataclass(frozen=True)
class CellResult:
    """Statistics for one (family, m, estimator) cell.

    Errors are normalized by the row count n.  `reps` counts successful
    repetitions; `skipped` carries the reason when the cell was not
    evaluated.  Per-rep logs are retained for replay checks and paired
    comparisons.
    """

    family: str
    m: int
    estimator: str
    reps: int
    mean_pred_err: float | None
    std_pred_err: float | None
    mean_sa_err: float | None
    std_sa_err: float | None
    mean_shrink_factor: float | None
    bound_exact_classical: float | None
    bound_lower_general: float | None
    bound_upper_sa: float | None
    rep_seeds: tuple[int, ...] = ()
    per_rep_pred_err: tuple[float, ...] = ()
    per_rep_sa_err: tuple[float, ...] = ()
    per_rep_factor: tuple[float, ...] = ()
    skipped: str | None = None


@dataclass(frozen=True)
class ExperimentResult:
    """All cells of one run plus the instance-level constants."""

    cells: tuple[CellResult, ...]
    n: int
    d: int
    r2: float
    rho: float

    def cell(self, family: str, m: int, estimator: str) -> CellResult:
        for c in self.cells:
            if (c.family, c.m, c.estimator) == (family, m, estimator):
                return c
        raise KeyError((family, m, estimator))


def resolve_instance(cfg: ExperimentConfig) -> tuple[ProblemInstance, ExactSolution]:
    """Materialize the data source, applying target noise if requested."""
    if isinstance(cfg.source, SyntheticSpec):
        instance, sol = gen_gaussian_data(cfg.source)
    elif isinstance(cfg.source, DatasetFile):
        instance = load(cfg.source)
        sol = solve_exact(instance)
    else:
        raise ConfigError(f"unsupported source type {type(cfg.source).__name__}")
    if cfg.kappa > 0:
        instance = add_noise(instance, cfg.kappa, derive_seed(cfg.master_seed, "noise"))
        sol = solve_exact(instance)
    return instance, sol


def sketch_factor(instance: ProblemInstance, family: str, m: int, seed: int, weights):
    """One realization, factored: `classical_stacked`'s (classical record, U_A, U_b).

    A Gaussian SB = S [A | b] is G R~ / sqrt(m), G = default_rng(seed).standard_normal
    m x (d+k'); any other family applies `make_operator`'s S to `instance.AB`.  Both
    take `SketchSpec`'s checks.  SB is not kept: U's blocks replace SA and S b.
    """
    spec = SketchSpec(family, m, seed)
    if family == "gaussian":
        G = np.random.default_rng(seed).standard_normal((m, instance.AB.shape[1]))
        SB = G @ instance.R_tilde
        SB /= math.sqrt(m)
    else:
        SB = apply(make_operator(spec, instance.n, weights=weights), instance.AB)
    return est_mod.classical_stacked(SB, instance.d, instance.y.ndim == 1)


def residual_estimates(sources, instance: ProblemInstance, r2, x_hat, UA, Ub, m: int) -> dict:
    """The r2_hat that each residual source named in `sources` gives at x_hat.

    "true" is the residual energy r2 itself; "full" is `estimate_residual_full`
    on R~'s blocks, which stand in for (A, b); "sketched" is
    `estimate_residual_sketched` on U's blocks (UA, Ub).  "none" reads nothing.
    """
    d = instance.d
    r2_hat = {"true": r2} if "true" in sources else {}
    if "full" in sources:
        RA, Rb = factor_blocks(instance.R_tilde, d, instance.y.ndim == 1)
        r2_hat["full"] = est_mod.estimate_residual_full(RA, Rb, x_hat, d, m)
    if "sketched" in sources:
        r2_hat["sketched"] = est_mod.estimate_residual_sketched(UA, Ub, x_hat, d, m)
    return r2_hat


def repetition(instance, sol, family, m, seed, kinds, two_sketch, weights):
    """One repetition on the realization `seed`: (U_A, {kind: EstimateRecord}).

    `weights` are the family's sampling weights, `sampling_weights(family, A)`.
    r2_hat is taken at the classical solution, or with `two_sketch` at the
    solution of an auxiliary sketch, seeded `derive_seed(seed, "aux")`, which
    is drawn only when a kind reads a residual.
    """
    rec0, UA, Ub = sketch_factor(instance, family, m, seed, weights)
    sources = {est_mod.ESTIMATORS[kind].residual for kind in kinds}
    rec_res, UA_res, Ub_res = rec0, UA, Ub
    if two_sketch and sources & {"full", "sketched"}:
        rec_res, UA_res, Ub_res = sketch_factor(instance, family, m, derive_seed(seed, "aux"),
                                                weights)
    r2_hat = residual_estimates(sources, instance, sol.r2, rec_res.x_hat, UA_res, Ub_res, m)
    return UA, {kind: est_mod.estimate(kind, rec0, UA, r2_hat, instance.d, m) for kind in kinds}


def _run_rep(instance, sol, family, m, seed, kinds, two_sketch, weights):
    """`repetition` and its error metrics: {kind: (pred/n, sa/n, factor)}."""
    UA, records = repetition(instance, sol, family, m, seed, kinds, two_sketch, weights)
    return {kind: (prediction_error(instance.R, rec.x_hat, sol.x_ls) / instance.n,
                   prediction_error(UA, rec.x_hat, sol.x_ls) / instance.n, rec.shrink_factor)
            for kind, rec in records.items()}


def _bound_columns(d, m, r2, rho, n):
    """Bound values on the same 1/n scale as the error columns, None where undefined."""
    report = bounds_mod.evaluate_report(bounds_mod.BoundInputs(d, m, r2, rho))
    return tuple(None if v is None else v / n
                 for v in (report.exact_classical, report.general_lower, report.upper_sa))


def _empty_cell(family: str, m: int, kind: str, bounds: tuple, reason: str) -> CellResult:
    """A cell with no statistics: skipped outside its domain, or failed."""
    return CellResult(family, m, kind, 0, None, None, None, None, None, *bounds, skipped=reason)


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run the full sweep; statistics are invariant to the thread count.

    Failed repetitions mark their cell with the failure reason instead of
    aborting the run, and so do invalid sampling weights, which are
    computed once per family.  Requested cells whose (d, m) fall outside an
    estimator's domain are recorded as skipped, not failed.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    instance, sol = resolve_instance(cfg)
    n, d = instance.n, instance.d
    r2, rho = sol.r2, snr(sol)
    is_matrix = instance.y.ndim == 2

    cells: list[CellResult] = []
    # one thread runs serially: a one-worker pool costs peak memory and buys nothing
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        for family in cfg.families:
            try:
                weights, weight_error = sampling_weights(family, instance.A), None
            except SketchLSError as exc:
                weights, weight_error = None, exc
            for m in cfg.m_values:
                bounds = _bound_columns(d, m, r2, rho, n)
                seeds = tuple(derive_seed(cfg.master_seed, family, m, r) for r in range(cfg.reps))
                reasons = {k: est_mod.skip_reason(k, d, m, is_matrix) for k in cfg.estimators}
                cells += [_empty_cell(family, m, k, bounds, reason)
                          for k, reason in reasons.items() if reason is not None]
                runnable = [k for k, reason in reasons.items() if reason is None]
                if not runnable:
                    continue

                # closes over the loop variables: the map below finishes in this iteration
                def one(r):
                    try:
                        return _run_rep(instance, sol, family, m, seeds[r], runnable,
                                        cfg.two_sketch, weights)
                    except SketchLSError as exc:
                        return exc

                if weight_error is not None:
                    rep_outputs = [weight_error]
                else:
                    rep_outputs = list((map if pool is None else pool.map)(one, range(cfg.reps)))

                failure = next((o for o in rep_outputs if isinstance(o, SketchLSError)), None)
                for kind in runnable:
                    if failure is not None:
                        cells.append(_empty_cell(family, m, kind, bounds, f"failed: {failure}"))
                        continue
                    pred, sa, fac = (np.array(col) for col in zip(*(o[kind] for o in rep_outputs)))
                    std_pred = float(np.std(pred, ddof=1)) if cfg.reps >= 2 else None
                    std_sa = float(np.std(sa, ddof=1)) if cfg.reps >= 2 else None
                    cells.append(CellResult(
                        family, m, kind, cfg.reps, float(pred.mean()), std_pred,
                        float(sa.mean()), std_sa, float(fac.mean()), *bounds,
                        rep_seeds=seeds,
                        per_rep_pred_err=tuple(pred.tolist()),
                        per_rep_sa_err=tuple(sa.tolist()),
                        per_rep_factor=tuple(fac.tolist())))
    finally:
        if pool is not None:
            pool.shutdown()
    return ExperimentResult(cells=tuple(cells), n=n, d=d, r2=r2, rho=rho)


def replay_cell(cfg: ExperimentConfig, family: str, m: int) -> ExperimentResult:
    """Re-run a single cell of a sweep; seeds depend only on the cell key,
    so the per-rep logs reproduce the original run bitwise."""
    return run_experiment(replace(cfg, families=(family,), m_values=(m,), out_path=None))


@dataclass(frozen=True)
class SteinInstance:
    """A Gaussian mean-estimation problem for the shrinkage error identity."""

    theta: np.ndarray
    sigma: np.ndarray
    samples: int
    seed: int

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64)
        sigma = np.asarray(self.sigma, dtype=np.float64)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "sigma", sigma)
        d = theta.size
        if theta.ndim != 1 or d <= 2:
            raise InvalidInputError(f"theta must be a vector with d > 2, got shape {theta.shape}")
        if sigma.shape != (d, d) or not np.allclose(sigma, sigma.T, atol=1e-12):
            raise NotSpdError("covariance must be symmetric d x d")
        try:
            np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise NotSpdError("covariance is not positive definite") from None
        if self.samples < 1:
            raise InvalidInputError(f"samples must be >= 1, got {self.samples}")
        check_seed(self.seed)


def verify_stein(inst: SteinInstance, tol: float) -> tuple[float, float]:
    """Monte Carlo check of the shrinkage error identity.

    Draws X ~ N(theta, Sigma) and shrinks each sample by
    1 - (d-2)/(X^T Sigma^-1 X).  Returns (lhs, rhs) where lhs is the
    sample mean of the normalized squared error of the shrunk estimate
    and rhs = d - (d-2)^2 * mean(1 / (X^T Sigma^-1 X)), both estimated
    from the same sample stream; they agree in expectation.

    `tol` is the relative tolerance the caller holds lhs and rhs to, and
    the sample must carry its noise to within it: InvalidInputError when
    X - theta misses the drawn noise by more than `tol` relative
    (Frobenius), as when float64 rounds theta + noise back to theta.
    Where a larger `tol` lets such a sample through, an overflow shows
    as an inf or NaN lhs or rhs, not as a warning.
    """
    d = inst.theta.shape[0]
    rng = np.random.default_rng(inst.seed)
    L = np.linalg.cholesky(inst.sigma)
    noise = rng.standard_normal((inst.samples, d)) @ L.T
    X = inst.theta + noise
    lost = np.linalg.norm((X - inst.theta) - noise) / np.linalg.norm(noise)
    if lost > tol:
        raise InvalidInputError(f"theta + noise does not carry its noise in float64: X - theta "
                                f"misses the drawn noise by {lost:.3e} relative, above {tol}")
    with np.errstate(over="ignore"):
        sigma_inv_Xt = np.linalg.solve(inst.sigma, X.T)
        quad = np.einsum("ij,ji->i", X, sigma_inv_Xt)
        factors = 1.0 - (d - 2) / quad
        diff = factors[:, None] * X - inst.theta
        sigma_inv_diff = np.linalg.solve(inst.sigma, diff.T)
        lhs = float(np.mean(np.einsum("ij,ji->i", diff, sigma_inv_diff)))
        rhs = float(d - (d - 2) ** 2 * np.mean(1.0 / quad))
    return lhs, rhs


def verify_residual_unbiased(p: ProblemInstance, family: str, m: int, reps: int,
                             seed: int) -> tuple[float, float]:
    """Monte Carlo means of the two residual-energy estimates, which both target r2."""
    if reps < 1:
        raise InvalidInputError(f"reps must be >= 1, got {reps}")
    weights = sampling_weights(family, p.A)
    full = np.empty(reps)
    sketched = np.empty(reps)
    for r in range(reps):
        op = make_operator(SketchSpec(family, m, derive_seed(seed, family, m, r)), p.n,
                           weights=weights)
        rec, UA, Ub = est_mod.classical_stacked(apply(op, p.AB), p.d, p.y.ndim == 1)
        r2_hat = residual_estimates(("full", "sketched"), p, None, rec.x_hat, UA, Ub, m)
        full[r], sketched[r] = r2_hat["full"], r2_hat["sketched"]
    return float(full.mean()), float(sketched.mean())


def verify_gram_identity(family: str, n: int, m: int, reps: int, seed: int) -> float:
    """Max-norm deviation of the seed-averaged S^T S from the identity.

    For the weighted sampling families an auxiliary data matrix is
    generated internally (n x ceil(3n/4), standard normal) as the weight
    source; the Gram identity holds for any valid weights.
    """
    if n < 1 or reps < 1:
        raise InvalidInputError(f"n and reps must be >= 1, got n={n}, reps={reps}")
    weights = None
    if family in WEIGHTED_FAMILIES:
        rng = np.random.default_rng(derive_seed(seed, "gram-aux"))
        weights = sampling_weights(family, rng.standard_normal((n, max(2, (3 * n) // 4))))
    acc = np.zeros((n, n))
    for r in range(reps):
        op = make_operator(SketchSpec(family, m, derive_seed(seed, family, m, r)), n,
                           weights=weights)
        S = as_matrix(op)
        acc += S.T @ S
    return float(np.max(np.abs(acc / reps - np.eye(n))))
