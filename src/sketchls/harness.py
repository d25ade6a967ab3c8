"""Seeded Monte Carlo experiments and identity-verification checks.

`run_experiment` sweeps (sketch family x sketch size x estimator) with a
paired design: within one repetition every estimator sees the same
sketch realization, which sharply reduces the variance of estimator
comparisons.  Per-repetition seeds are derived from the master seed, the
family, the repetition index and, except in a nested family, m
(`rep_seeds`), so results are independent of the harness thread count
and iteration order.  A nested (Rademacher) repetition draws once, at
the largest m of the grid, and every smaller m reads its sketch off that
one product, bitwise the m-row sketch of the same seed: so any cell can
be replayed in isolation, and the m axis is paired as the estimators are.

A repetition (`repetition`) factors one realization (`sketch_factor`) and
runs every estimator kind on it; a sweep adds the error metrics, and
`sketch-solve` is one repetition of one kind.  Each cell keeps one
read-only log of its repetitions (`CellResult.log`), and its statistics
are functions of that log.  A Gaussian S is rotation invariant, so
S[A | b] is drawn from its law G R~ / sqrt(m), with G an m x (d+k')
standard normal matrix and R~ the triangular factor of [A | b]
(`ProblemInstance.R_tilde`).  The draw depends on R~'s row signs, its law
does not: G (D R~) = (G D) R~ for a diagonal D of signs, and G D has G's
law.  Every other family applies its realized operator once, to
`ProblemInstance.AB`, a nested one once per repetition and sketch.
Either way SB = S [A | b] = X R~, X = S Q~ with Q~ = [A | b] R~^-1, and
its triangular factor is U = L^T R~, L the Cholesky factor of X^T X, so
no m-row QR runs where that Gram step holds: O(m (d+k')^2) past the
realization.  `core.qr_factor`'s ladder says what runs where it does
not.  A rank or overflow error fails the cell, not the sweep.  Every
norm after the factor comes from a triangular factor's blocks
(`core.factor_blocks`): U's (d+k')-row blocks, ||SA v - S b w|| =
||U_A v - U_b w||, R~'s for the full-data residual (`residual_estimates`),
and A's R factor for the prediction error.

The verify_* functions are direct Monte Carlo checks of the identities
the estimators rely on: the shrinkage error identity, residual-estimate
unbiasedness over `sketch_factor`'s realizations, and the Gram identity
E[S^T S] = I over explicit operators, since it is about S itself.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import bounds as bounds_mod
from . import estimators as est_mod
from .core import (ExactSolution, ProblemInstance, factor_blocks, gram_factor, prediction_error,
                   qr_factor, snr, solve_exact)
from .datagen import SyntheticSpec, gen_gaussian_data
from .dataio import DatasetFile, load
from .errors import (ConfigError, InvalidInputError, NotSpdError, RankDeficientSketchError,
                     SketchLSError)
from .sketches import (
    FAMILIES,
    NESTED_FAMILIES,
    WEIGHTED_FAMILIES,
    SketchSpec,
    apply,
    as_matrix,
    check_addressable,
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
        check_addressable((self.reps, len(LOG_DTYPE)), "a repetition log")
        check_seed(self.master_seed, ConfigError)

    def rep_seeds(self, family: str, m: int) -> tuple[int, ...]:
        """Repetition r's seed in the cell (family, m, any kind): `rep_seeds` of the config."""
        return rep_seeds(self.master_seed, family, m, self.reps)


def rep_seeds(master: int, family: str, m: int, reps: int) -> tuple[int, ...]:
    """The seeds of repetitions 0, ..., reps - 1 in the cell (family, m, any kind).

    Repetition r draws from derive_seed(master, family, m, r), or, in a nested family, from
    derive_seed(master, family, r) at every m: one draw serves the whole grid.
    """
    key = () if family in NESTED_FAMILIES else (m,)
    return tuple(derive_seed(master, family, *key, r) for r in range(reps))


# one row per repetition, in seed order; errors are normalized by the row count n
LOG_DTYPE = np.dtype([("pred_err", np.float64), ("sa_err", np.float64), ("factor", np.float64)])


def _mean(column: str):
    return property(lambda c: float(c.log[column].mean()) if c.reps else None)


def _std(column: str):
    return property(lambda c: float(np.std(c.log[column], ddof=1)) if c.reps >= 2 else None)


# eq=False: cells compare by identity; compare two logs with `log.tobytes()`
@dataclass(frozen=True, eq=False)
class CellResult:
    """One (family, m, estimator) cell: its bounds and its read-only repetition log.

    `log` holds one `LOG_DTYPE` row per repetition, in the order of
    `ExperimentConfig.rep_seeds`; a cell that was not evaluated has an
    empty log and carries the reason in `skipped` (prefixed "failed: "
    when a repetition failed).  `reps` and the statistics are functions
    of the log, None where undefined.
    """

    family: str
    m: int
    estimator: str
    bound_exact_classical: float | None
    bound_lower_general: float | None
    bound_upper_sa: float | None
    log: np.ndarray
    skipped: str | None = None

    def __post_init__(self):
        self.log.flags.writeable = False

    reps = property(lambda c: len(c.log))
    mean_pred_err, std_pred_err = _mean("pred_err"), _std("pred_err")
    mean_sa_err, std_sa_err = _mean("sa_err"), _std("sa_err")
    mean_shrink_factor = _mean("factor")


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
    """Materialize the data source."""
    if isinstance(cfg.source, SyntheticSpec):
        return gen_gaussian_data(cfg.source)
    if isinstance(cfg.source, DatasetFile):
        instance = load(cfg.source)
        return instance, solve_exact(instance)
    raise ConfigError(f"unsupported source type {type(cfg.source).__name__}")


def sketch_factor(instance: ProblemInstance, family: str, m: int, seed: int, weights, SB=None):
    """One realization, factored: `classical_factored`'s (classical record, U_A, U_b).

    A Gaussian SB is drawn from its law G R~ / sqrt(m), G = default_rng(seed).standard_normal
    m x p (p = d+k'), so X = G / sqrt(m): U = `gram_factor`(G^T G / m, R~), spelled here
    because (G / sqrt(m))^T (G / sqrt(m)) differs in its last bits, and `core.qr_factor`(SB)
    where m < p or that declines.  Any other family applies `make_operator`'s S to
    `instance.AB`, and U is `core.qr_factor`(SB) with R~ and `instance.R_tilde_inv` as its
    first factor; an `SB` passed in is that product, made already (a nested draw's rows).
    m < d raises RankDeficientSketchError, after `SketchSpec`'s checks.  SB is not kept: U's
    blocks replace SA and S b.
    """
    spec = SketchSpec(family, m, seed)
    d, p = instance.d, instance.AB.shape[1]
    if m < d:
        raise RankDeficientSketchError(f"sketch size m={m} below column count d={d}")
    if family == "gaussian":
        check_addressable((m, p), "a gaussian sketch")
        G = np.random.default_rng(seed).standard_normal((m, p))
        U = gram_factor(G.T @ G / m, instance.R_tilde) if m >= p else None
        if U is None:
            SB = G @ instance.R_tilde
            SB /= math.sqrt(m)
            U = qr_factor(SB)
    else:
        if SB is None:
            SB = apply(make_operator(spec, instance.n, weights=weights), instance.AB)
        U = qr_factor(SB, (instance.R_tilde, instance.R_tilde_inv))
    return est_mod.classical_factored(U, d, instance.y.ndim == 1)


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


def _reads_residual(kinds) -> bool:
    """Whether a kind in `kinds` reads a residual estimate (then `two_sketch` draws a sketch)."""
    return any(est_mod.ESTIMATORS[kind].residual in ("full", "sketched") for kind in kinds)


def repetition(instance, sol, family, m, seed, kinds, two_sketch, weights, sketched=(None, None)):
    """One repetition on the realization `seed`: (U_A, {kind: EstimateRecord}).

    `weights` are the family's sampling weights, `sampling_weights(family, A)`.
    r2_hat is taken at the classical solution, or with `two_sketch` at the
    solution of an auxiliary sketch, seeded `derive_seed(seed, "aux")`, which
    is drawn only when a kind reads a residual.  `sketched` holds the two
    sketches' S [A | b] where they were made already, None where not.
    """
    rec0, UA, Ub = sketch_factor(instance, family, m, seed, weights, sketched[0])
    sources = {est_mod.ESTIMATORS[kind].residual for kind in kinds}
    rec_res, UA_res, Ub_res = rec0, UA, Ub
    if two_sketch and _reads_residual(kinds):
        rec_res, UA_res, Ub_res = sketch_factor(instance, family, m, derive_seed(seed, "aux"),
                                                weights, sketched[1])
    r2_hat = residual_estimates(sources, instance, sol.r2, rec_res.x_hat, UA_res, Ub_res, m)
    return UA, {kind: est_mod.estimate(kind, rec0, UA, r2_hat, instance.d, m) for kind in kinds}


def _run_rep(instance, sol, family, m, seed, kinds, two_sketch, weights, sketched=(None, None)):
    """`repetition` and its error metrics: {kind: (pred/n, sa/n, factor)}."""
    UA, records = repetition(instance, sol, family, m, seed, kinds, two_sketch, weights, sketched)
    return {kind: (prediction_error(instance.R, rec.x_hat, sol.x_ls) / instance.n,
                   prediction_error(UA, rec.x_hat, sol.x_ls) / instance.n, rec.shrink_factor)
            for kind, rec in records.items()}


def _bound_columns(d, m, r2, rho, n):
    """Bound values on the same 1/n scale as the error columns, None where undefined."""
    report = bounds_mod.evaluate_report(bounds_mod.BoundInputs(d, m, r2, rho))
    return tuple(None if v is None else v / n
                 for v in (report.exact_classical, report.general_lower, report.upper_sa))


def _nested_products(instance, family, seed, m_values, weights) -> dict:
    """{m: S_m [A | b]} for the m in m_values: rows of one draw at the largest.  {} if it fails
    (SketchLSError): each m then draws alone, the same rows bit for bit, and fails alone."""
    if not m_values:
        return {}
    try:
        op = make_operator(SketchSpec(family, max(m_values), seed), instance.n, weights=weights)
        return apply(op, instance.AB, prefixes=m_values)
    except SketchLSError:
        return {}


def _repetitions(instance, sol, family, cells, two_sketch, weights):
    """One repetition index of one family: {m: `_run_rep`'s output, or its SketchLSError} for
    each runnable cell (m, seed, kinds).

    A nested family's cells share one seed and read their S [A | b] from one product, and
    the auxiliary sketch's, where `two_sketch` draws one, from a second.
    """
    made = ({}, {})
    if family in NESTED_FAMILIES:
        seed = cells[0][1]
        aux = [m for m, _, kinds in cells if two_sketch and _reads_residual(kinds)]
        made = (_nested_products(instance, family, seed, [m for m, _, _ in cells], weights),
                _nested_products(instance, family, derive_seed(seed, "aux"), aux, weights))
    out = {}
    for m, seed, kinds in cells:
        try:
            out[m] = _run_rep(instance, sol, family, m, seed, kinds, two_sketch, weights,
                              tuple(products.get(m) for products in made))
        except SketchLSError as exc:
            out[m] = exc
    return out


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run the full sweep; statistics are invariant to the thread count.

    One task runs repetition r of every m of a family.  Failed repetitions
    mark their cell with the failure reason instead of aborting the run.
    Requested cells whose (d, m) fall outside an estimator's domain are
    recorded as skipped, not failed.  Cells come in config order: family,
    then m, then estimator.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    instance, sol = resolve_instance(cfg)
    n, d = instance.n, instance.d
    r2, rho = sol.r2, snr(sol)
    is_matrix = instance.y.ndim == 2
    reasons = {m: {k: est_mod.skip_reason(k, d, m, is_matrix) for k in cfg.estimators}
               for m in cfg.m_values}
    runnable = {m: [k for k, reason in reasons[m].items() if reason is None]
                for m in cfg.m_values}

    cells: list[CellResult] = []
    # one thread runs serially: a one-worker pool costs peak memory and buys nothing
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        for family in cfg.families:
            weights = sampling_weights(family, instance.A)  # never fails on an instance's A
            grid = [(m, cfg.rep_seeds(family, m), runnable[m])
                    for m in cfg.m_values if runnable[m]]

            # closes over the loop variables: the map below finishes in this iteration
            def one(r):
                return _repetitions(instance, sol, family,
                                    [(m, seeds[r], kinds) for m, seeds, kinds in grid],
                                    cfg.two_sketch, weights)

            by_rep = list((map if pool is None else pool.map)(one, range(cfg.reps) if grid else ()))
            for m in cfg.m_values:
                bounds = _bound_columns(d, m, r2, rho, n)
                rep_outputs = [o.get(m) for o in by_rep]
                failure = next((o for o in rep_outputs if isinstance(o, SketchLSError)), None)
                for kind, reason in reasons[m].items():
                    if reason is None and failure is not None:
                        reason = f"failed: {failure}"
                    rows = [] if reason else [o[kind] for o in rep_outputs]
                    cells.append(CellResult(family, m, kind, *bounds,
                                            np.array(rows, dtype=LOG_DTYPE), reason))
    finally:
        if pool is not None:
            pool.shutdown()
    return ExperimentResult(cells=tuple(cells), n=n, d=d, r2=r2, rho=rho)


def replay_cell(cfg: ExperimentConfig, family: str, m: int) -> ExperimentResult:
    """Re-run a single cell of a sweep; seeds depend only on the cell key (`rep_seeds`)
    and a nested family's rows not on the grid, so the repetition logs reproduce the
    original run bitwise."""
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
        check_addressable((self.samples, d), "the Stein sample")
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
    """Monte Carlo means of the two residual-energy estimates, which both target r2.

    Repetition r is `sketch_factor`'s realization, seeded as the sweep seeds it."""
    if reps < 1:
        raise InvalidInputError(f"reps must be >= 1, got {reps}")
    check_addressable((reps,), "a repetition log")
    weights = sampling_weights(family, p.A)
    full = np.empty(reps)
    sketched = np.empty(reps)
    for r, rep_seed in enumerate(rep_seeds(seed, family, m, reps)):
        rec, UA, Ub = sketch_factor(p, family, m, rep_seed, weights)
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
    check_addressable((n, n), "the Gram accumulator")
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
