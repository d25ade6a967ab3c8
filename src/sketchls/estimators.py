"""Sketch-and-solve estimators and the shrinkage family built on them.

The classical estimator solves the compressed problem directly and is
unbiased.  The shrinkage variants rescale it toward the origin by the
data-dependent factor 1 - (d-2) r2_hat / (m ||SA x_hat||^2), trading a
small bias for lower variance.  Every variant has the signature
(x_hat, SA, r2_hat, d, m); they differ only in where the caller takes the
residual-energy estimate r2_hat from (`Estimator.residual`):

* ``js_oracle``      the true residual energy r2 (not observable in practice),
* ``shrinkage``      the full data, `estimate_residual_full`: (m-d-1)/(m-1) * ||A x_hat - y||^2,
* ``shrinkage_alt``  sketched data only, `estimate_residual_sketched`: m/(m-d) * ||SA x_hat - Sy||^2,
* ``positive_part``  as ``shrinkage``, with the factor clamped at zero,
* ``shrinkage_matrix`` as ``shrinkage``, in Frobenius norms, for matrix targets.

All variants leave the input unchanged (flagged) when d <= 2, where
shrinking cannot help.  SA, and the data of the two residual estimates,
are read only through norms ||X v - t w||, so any pair with the same Gram
matrix serves: callers pass the (d+k')-row blocks (`core.factor_blocks`)
of the triangular factors of [SA | Sy] (from `classical_factored`) and
[A | y] (`ProblemInstance.R_tilde`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .core import certify_rank, factor_blocks, lstsq_solve, qr_factor
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
    `x_hat` is a read-only copy of the array the record was given.
    """

    x_hat: np.ndarray
    kind: str
    shrink_factor: float = 1.0
    r2_estimate: float | None = None
    degenerate: bool = False

    def __post_init__(self):
        arr = np.array(self.x_hat, dtype=np.float64)  # own a copy: the caller's stays writeable
        arr.setflags(write=False)
        object.__setattr__(self, "x_hat", arr)


def _sq(a) -> float:
    a = np.asarray(a, dtype=np.float64)
    return float(np.sum(a * a))


def _residual_energy(X, t, x_hat) -> float:
    """||X x_hat - t||^2 (squared Frobenius norm for a matrix target)."""
    return _sq(np.asarray(X) @ np.asarray(x_hat) - np.asarray(t))


def classical(SA, Sy) -> EstimateRecord:
    """Solve the compressed problem min ||SA x - Sy||^2 by `classical_factored`."""
    SA = np.asarray(SA, dtype=np.float64)
    Sy = np.asarray(Sy, dtype=np.float64)
    if SA.ndim != 2 or Sy.ndim not in (1, 2) or Sy.shape[0] != SA.shape[0]:
        raise DimensionMismatchError(f"incompatible shapes SA={SA.shape}, Sy={Sy.shape}")
    return classical_factored(qr_factor(np.column_stack((SA, Sy))), SA.shape[1], Sy.ndim == 1)[0]


def classical_factored(U, d: int, vector: bool) -> tuple[EstimateRecord, np.ndarray, np.ndarray]:
    """The classical record and U's blocks, from a triangular factor U of SB = [SA | Sy].

    U passes `core.certify_rank`, the rank rule `ProblemInstance` uses for A; then
    x solves U[:d, :d] x = U[:d, d:].  Returns its record and U's blocks U_A, U_b
    (`core.factor_blocks`): ||SA v - Sy w|| = ||U_A v - U_b w||, so they stand in
    for SA and Sy.
    """
    U = certify_rank(U, d, RankDeficientSketchError, "SA")
    rec = EstimateRecord(x_hat=lstsq_solve(U, d, vector), kind=CLASSICAL, shrink_factor=1.0)
    return (rec, *factor_blocks(U, d, vector))


def estimate_residual_full(A, y, x_hat, d: int, m: int) -> float:
    """Unbiased residual-energy estimate from the full data.

    Returns (m-d-1)/(m-1) * ||A x_hat - y||^2; requires m > d + 1.
    """
    if m <= d + 1:
        raise InvalidSketchSizeError(f"residual estimate needs m > d+1, got m={m}, d={d}")
    return (m - d - 1) / (m - 1) * _residual_energy(A, y, x_hat)


def estimate_residual_sketched(SA, Sy, x_hat, d: int, m: int) -> float:
    """Unbiased residual-energy estimate from sketched data only.

    Returns m/(m-d) * ||SA x_hat - Sy||^2; requires m > d.  Useful when
    the original (A, y) cannot be observed.
    """
    if m <= d:
        raise InvalidSketchSizeError(f"sketched residual estimate needs m > d, got m={m}, d={d}")
    return m / (m - d) * _residual_energy(SA, Sy, x_hat)


def _shrink(x_hat, SA, r2_hat: float, d: int, m: int, kind: str) -> EstimateRecord:
    """The body of every shrinkage kind: factor = 1 - (d-2) r2_hat / (m ||SA x_hat||^2)."""
    x_hat = np.asarray(x_hat, dtype=np.float64)
    r2_hat = float(r2_hat)  # a scalar: an array here is a caller passing data, not r2_hat
    energy = _sq(np.asarray(SA) @ x_hat)
    if d <= 2 or energy == 0.0:
        return EstimateRecord(x_hat=x_hat, kind=kind, shrink_factor=1.0,
                              r2_estimate=r2_hat, degenerate=True)
    factor = 1.0 - (d - 2) * r2_hat / (m * energy)
    return EstimateRecord(x_hat=factor * x_hat, kind=kind, shrink_factor=factor,
                          r2_estimate=r2_hat)


def js_oracle(x_hat, SA, r2_hat: float, d: int, m: int) -> EstimateRecord:
    """Shrink with the true residual energy r2_hat = r2 (oracle reference; no r2_estimate)."""
    return replace(_shrink(x_hat, SA, r2_hat, d, m, JS_ORACLE), r2_estimate=None)


def shrinkage(x_hat, SA, r2_hat: float, d: int, m: int) -> EstimateRecord:
    """Practical shrinkage estimator; r2_hat is `estimate_residual_full`.

    The factor is not clamped and may go negative.
    """
    return _shrink(x_hat, SA, r2_hat, d, m, SHRINKAGE)


def shrinkage_alt(x_hat, SA, r2_hat: float, d: int, m: int) -> EstimateRecord:
    """Shrinkage that sees only sketched data; r2_hat is `estimate_residual_sketched`."""
    return _shrink(x_hat, SA, r2_hat, d, m, SHRINKAGE_ALT)


def positive_part(x_hat, SA, r2_hat: float, d: int, m: int) -> EstimateRecord:
    """`shrinkage` with the factor clamped at zero (never flips sign)."""
    rec = _shrink(x_hat, SA, r2_hat, d, m, POSITIVE_PART)
    if rec.shrink_factor >= 0.0:
        return rec
    return replace(rec, x_hat=np.zeros_like(rec.x_hat), shrink_factor=0.0)


def shrinkage_matrix(X_hat, SA, r2_hat: float, d: int, m: int) -> EstimateRecord:
    """Frobenius-norm shrinkage for matrix regression targets.

    Same factor as `shrinkage` with vector norms replaced by Frobenius
    norms; with a single target column it reduces exactly to the vector
    estimator.
    """
    return _shrink(X_hat, SA, r2_hat, d, m, SHRINKAGE_FRO)


def skip_reason(kind: str, d: int, m: int, matrix_target: bool) -> str | None:
    """Why `kind` cannot run at (d, m) on this target, or None when it can."""
    entry = ESTIMATORS[kind]
    if matrix_target and entry.targets == "vector":
        return f"{kind} is undefined for matrix targets"
    return entry.gate(d, m)


def estimate(kind: str, rec0: EstimateRecord, SA, r2_hat: dict, d: int, m: int) -> EstimateRecord:
    """The `kind` record on one realization, built on its classical record `rec0`.

    `r2_hat` maps the kind's residual source ("true", "full" or "sketched") to
    its residual-energy estimate; classical reads none.
    """
    entry = ESTIMATORS[kind]
    if entry.residual == "none":
        return rec0
    return globals()[entry.function](rec0.x_hat, SA, r2_hat[entry.residual], d, m)
