"""Sketch-and-solve estimators and the shrinkage family built on them.

The classical estimator solves the compressed problem directly and is
unbiased.  The shrinkage variants rescale it toward the origin by a
data-dependent factor, trading a small bias for lower variance; they
differ only in how the residual energy entering the factor is obtained:

* ``js_oracle``      uses the true residual energy (not observable in practice),
* ``shrinkage``      estimates it from the full data as (m-d-1)/(m-1) * ||A x_hat - y||^2,
* ``shrinkage_alt``  estimates it from sketched data only as m/(m-d) * ||SA x_hat - Sy||^2,
* ``positive_part``  clamps the shrinkage factor at zero,
* ``shrinkage_matrix`` is the Frobenius-norm variant for matrix targets.

All variants leave the input unchanged (flagged) when d <= 2, where
shrinking cannot help.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .core import lstsq_factor, lstsq_solve
from .errors import DimensionMismatchError, InvalidSketchSizeError, RankDeficientSketchError


def _rank_gate(d: int, m: int) -> str | None:
    return f"m={m} < d={d}: sketched problem is rank deficient" if m < d else None


def _shrinkage_gate(d: int, m: int) -> str | None:
    # the shrinkage family shares the m > d+3 domain of its bound formulas
    return (f"m={m} <= d+3={d + 3}: shrinkage domain (and its bounds) undefined"
            if m <= d + 3 else None)


@dataclass(frozen=True)
class Estimator:
    """How one estimator kind is computed and where it is defined."""

    function: str  # module function, looked up per call so a wrapper on it sees every call
    residual: str  # where r^2 in the factor comes from: "none", "true", "full" or "sketched"
    targets: str  # "vector", "any", or "matrix" (on a vector, equal to the vector kind)
    gate: Callable[[int, int], str | None]  # (d, m) -> why m is outside the domain, or None


ESTIMATORS = {
    "classical": Estimator("classical", "none", "any", _rank_gate),
    "js-oracle": Estimator("js_oracle", "true", "vector", _shrinkage_gate),
    "shrinkage": Estimator("shrinkage", "full", "vector", _shrinkage_gate),
    "shrinkage-alt": Estimator("shrinkage_alt", "sketched", "vector", _shrinkage_gate),
    "positive-part": Estimator("positive_part", "full", "vector", _shrinkage_gate),
    "shrinkage-fro": Estimator("shrinkage_matrix", "full", "matrix", _shrinkage_gate),
}
KINDS = tuple(ESTIMATORS)
# the labels the functions below put on their records
CLASSICAL, JS_ORACLE, SHRINKAGE, SHRINKAGE_ALT, POSITIVE_PART, SHRINKAGE_FRO = KINDS


@dataclass(frozen=True)
class EstimateRecord:
    """An estimator output plus the shrinkage bookkeeping around it.

    `shrink_factor` is 1.0 for the classical estimator and at most 1.0
    for every variant (it may be negative except for positive-part).
    `r2_estimate` is the residual-energy estimate that entered the
    factor; absent for classical and for the oracle fed the true value.
    `degenerate` flags the fallback paths (d <= 2 or a vanishing
    sketched direction) where the input is returned unchanged.
    """

    x_hat: np.ndarray
    kind: str
    shrink_factor: float = 1.0
    r2_estimate: float | None = None
    degenerate: bool = False

    def __post_init__(self):
        arr = np.asarray(self.x_hat, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "x_hat", arr)


def _sq(a) -> float:
    a = np.asarray(a, dtype=np.float64)
    return float(np.sum(a * a))


def classical(SA, Sy) -> EstimateRecord:
    """Solve the compressed problem min ||SA x - Sy||^2 by orthogonal factorization.

    `core.lstsq_factor` factors [SA | Sy] by one QR, under the rank rule
    `ProblemInstance` uses for A; then x solves U[:d, :d] x = U[:d, d:].
    """
    SA = np.asarray(SA, dtype=np.float64)
    Sy = np.asarray(Sy, dtype=np.float64)
    if SA.ndim != 2 or Sy.ndim not in (1, 2) or Sy.shape[0] != SA.shape[0]:
        raise DimensionMismatchError(f"incompatible shapes SA={SA.shape}, Sy={Sy.shape}")
    m, d = SA.shape
    if m < d:
        raise RankDeficientSketchError(f"sketch size m={m} below column count d={d}")
    U = lstsq_factor(np.column_stack((SA, Sy)), d, RankDeficientSketchError, "SA")
    return EstimateRecord(x_hat=lstsq_solve(U, d, Sy.ndim == 1), kind=CLASSICAL, shrink_factor=1.0)


def estimate_residual_full(A, y, x_hat, d: int, m: int) -> float:
    """Unbiased residual-energy estimate from the full data.

    Returns (m-d-1)/(m-1) * ||A x_hat - y||^2; requires m > d + 1.
    """
    if m <= d + 1:
        raise InvalidSketchSizeError(f"residual estimate needs m > d+1, got m={m}, d={d}")
    return (m - d - 1) / (m - 1) * _sq(np.asarray(A) @ np.asarray(x_hat) - np.asarray(y))


def estimate_residual_sketched(SA, Sy, x_hat, d: int, m: int) -> float:
    """Unbiased residual-energy estimate from sketched data only.

    Returns m/(m-d) * ||SA x_hat - Sy||^2; requires m > d.  Useful when
    the original (A, y) cannot be observed.
    """
    if m <= d:
        raise InvalidSketchSizeError(f"sketched residual estimate needs m > d, got m={m}, d={d}")
    return m / (m - d) * _sq(np.asarray(SA) @ np.asarray(x_hat) - np.asarray(Sy))


def _shrink(x_hat, SA, r2_value: float, d: int, m: int, kind: str,
            r2_estimate: float | None) -> EstimateRecord:
    """Common James-Stein style rescaling: factor = 1 - (d-2) r2 / (m ||SA x_hat||^2)."""
    x_hat = np.asarray(x_hat, dtype=np.float64)
    energy = _sq(np.asarray(SA) @ x_hat)
    if d <= 2 or energy == 0.0:
        return EstimateRecord(x_hat=x_hat, kind=kind, shrink_factor=1.0,
                              r2_estimate=r2_estimate, degenerate=True)
    factor = 1.0 - (d - 2) * r2_value / (m * energy)
    return EstimateRecord(x_hat=factor * x_hat, kind=kind, shrink_factor=factor,
                          r2_estimate=r2_estimate)


def js_oracle(x_hat, SA, r2_true: float, d: int, m: int) -> EstimateRecord:
    """Shrink with the true residual energy (oracle reference)."""
    return _shrink(x_hat, SA, r2_true, d, m, JS_ORACLE, None)


def _shrink_full(x_hat, SA, A, y, d: int, m: int, residual_sq: float | None,
                 kind: str) -> EstimateRecord:
    """The body of `shrinkage` and `shrinkage_matrix`, which differ only in `kind`."""
    if m <= d + 1:
        raise InvalidSketchSizeError(f"{kind} needs m > d+1, got m={m}, d={d}")
    if residual_sq is None:
        residual_sq = _sq(np.asarray(A) @ np.asarray(x_hat) - np.asarray(y))
    r2_est = (m - d - 1) / (m - 1) * residual_sq
    return _shrink(x_hat, SA, r2_est, d, m, kind, r2_est)


def shrinkage(x_hat, SA, A, y, d: int, m: int, residual_sq: float | None = None) -> EstimateRecord:
    """Practical shrinkage estimator with the full-data residual estimate.

    factor = 1 - (d-2)(m-d-1) ||A x_hat - y||^2 / (m (m-1) ||SA x_hat||^2).
    The factor is not clamped and may go negative.  `residual_sq`
    overrides ||A x_hat - y||^2, e.g. with a value computed from an
    independent second sketch.
    """
    return _shrink_full(x_hat, SA, A, y, d, m, residual_sq, SHRINKAGE)


def shrinkage_alt(x_hat, SA, Sy, d: int, m: int, residual_sq: float | None = None) -> EstimateRecord:
    """Shrinkage variant that sees only the sketched data.

    factor = 1 - (d-2) ||SA x_hat - Sy||^2 / ((m-d) ||SA x_hat||^2).
    `residual_sq` overrides ||SA x_hat - Sy||^2.
    """
    if m <= d:
        raise InvalidSketchSizeError(f"shrinkage-alt needs m > d, got m={m}, d={d}")
    if residual_sq is None:
        residual_sq = _sq(np.asarray(SA) @ np.asarray(x_hat) - np.asarray(Sy))
    r2_est = m / (m - d) * residual_sq
    return _shrink(x_hat, SA, r2_est, d, m, SHRINKAGE_ALT, r2_est)


def positive_part(x_hat, SA, A, y, d: int, m: int, residual_sq: float | None = None) -> EstimateRecord:
    """Shrinkage with the factor clamped at zero (never flips sign)."""
    rec = replace(shrinkage(x_hat, SA, A, y, d, m, residual_sq=residual_sq), kind=POSITIVE_PART)
    if rec.shrink_factor >= 0.0:
        return rec
    return replace(rec, x_hat=np.zeros_like(rec.x_hat), shrink_factor=0.0)


def shrinkage_matrix(X_hat, SA, A, Y, d: int, m: int, residual_sq: float | None = None) -> EstimateRecord:
    """Frobenius-norm shrinkage for matrix regression targets.

    Same factor as `shrinkage` with vector norms replaced by Frobenius
    norms; with a single target column it reduces exactly to the vector
    estimator.
    """
    return _shrink_full(X_hat, SA, A, Y, d, m, residual_sq, SHRINKAGE_FRO)


def skip_reason(kind: str, d: int, m: int, matrix_target: bool) -> str | None:
    """Why `kind` cannot run at (d, m) on this target, or None when it can."""
    entry = ESTIMATORS[kind]
    if matrix_target and entry.targets == "vector":
        return f"{kind} is undefined for matrix targets"
    return entry.gate(d, m)


def estimate(kind: str, rec0: EstimateRecord, SA, Sy, A, y, r2_true: float, d: int, m: int,
             residual_sq: dict | None = None) -> EstimateRecord:
    """The `kind` record on one realization, built on its classical record `rec0`.

    `residual_sq` maps a residual source ("full" or "sketched") to a precomputed
    residual energy that replaces the one the estimator computes from (A, y) or Sy.
    """
    entry = ESTIMATORS[kind]
    if entry.residual == "none":
        return rec0
    fn = globals()[entry.function]
    if entry.residual == "true":
        return fn(rec0.x_hat, SA, r2_true, d, m)
    data = (A, y) if entry.residual == "full" else (Sy,)
    return fn(rec0.x_hat, SA, *data, d, m, residual_sq=(residual_sq or {}).get(entry.residual))
