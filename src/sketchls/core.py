"""Problem containers, exact least-squares solutions, and error metrics.

Everything downstream (sketch operators, estimators, bounds, the
experiment harness) consumes the types defined here.  An instance has
one target, a vector or a matrix, and its ``ndim`` alone says which;
solutions and residuals take the target's shape.  All arithmetic is
64-bit floating point and all containers are immutable after
construction, so they can be shared freely across worker threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import DimensionMismatchError, InvalidInputError, RankDeficientError, SketchLSError

RANK_TOL = 1e-10


def _readonly_f64(a, name: str) -> np.ndarray:
    arr = np.array(a, dtype=np.float64, copy=True)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ExactSolution:
    """Exact solution artifacts of a least-squares instance.

    Attributes
    ----------
    x_ls : ndarray, shape (d,) or (d, k)
        Minimizer of the squared residual.
    y_perp : ndarray, the target's shape, (n,) or (n, k)
        Residual (target minus fitted values), orthogonal to the column
        space of the data matrix.
    r2 : float
        Squared residual norm (squared Frobenius norm for matrix targets).
    pred_energy : float
        Squared norm of the fitted values.
    """

    x_ls: np.ndarray
    y_perp: np.ndarray
    r2: float
    pred_energy: float

    @classmethod
    def from_fit(cls, x_ls: np.ndarray, fitted: np.ndarray, y_perp: np.ndarray) -> ExactSolution:
        """Freeze x_ls and y_perp and derive r2 and pred_energy from the fit.

        Raises InvalidInputError when either energy is not finite: a float64
        cannot hold it, so no solution of these data can be reported.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            r2 = float(np.sum(y_perp * y_perp))
            pred_energy = float(np.sum(fitted * fitted))
        if not (math.isfinite(r2) and math.isfinite(pred_energy)):
            raise InvalidInputError(
                f"the fit's squared norms overflow float64: r2 = {r2}, pred_energy = {pred_energy}")
        x_ls.setflags(write=False)
        y_perp.setflags(write=False)
        return cls(x_ls=x_ls, y_perp=y_perp, r2=r2, pred_energy=pred_energy)


def lstsq_factor(M, d: int, error: type[SketchLSError], name: str) -> np.ndarray:
    """The triangular factor U of M = [X | t], with X's full column rank certified.

    One QR of M that forms no Q; U is square in M's columns, zero below M's
    rows, and U[:d, :d] = R is X's R factor, with X's singular values.  X
    (`name` in messages) is rank deficient, raising `error`, when
    s_min <= RANK_TOL * s_max.  As s_max <= ||R||_F and 1/s_min <= ||R^-1||_F,
    the SVD runs only where 1/(||R||_F ||R^-1||_F) does not clear RANK_TOL by
    a factor of 2, or R has a zero on its diagonal.  A U that overflows
    raises InvalidInputError.
    """
    U = np.linalg.qr(M, mode="r")  # min(rows, columns) rows
    if U.shape[0] < U.shape[1]:
        U = np.vstack((U, np.zeros((U.shape[1] - U.shape[0], U.shape[1]))))
    if not np.isfinite(U).all():
        raise InvalidInputError(f"[{name} | target] is too large to factor without overflow")
    R = U[:d, :d]
    R_inv, info = lapack.dtrtri(R)
    # R_inv keeps R's strict lower triangle, zeros from the QR, so its norm is ||R^-1||_F;
    # a NaN or an overflow in the norms fails the test and falls to the SVD
    with np.errstate(over="ignore", invalid="ignore"):
        certified = info == 0 and 2 * RANK_TOL * np.linalg.norm(R) * np.linalg.norm(R_inv) < 1
    if not certified:
        s = np.linalg.svd(R, compute_uv=False)
        if s[-1] <= RANK_TOL * s[0]:
            ratio = s[-1] / s[0] if s[0] > 0 else 0.0  # X = 0 has no ratio
            raise error(f"{name} is rank deficient: s_min/s_max = {ratio:.3e}")
    return U


def factor_blocks(U: np.ndarray, d: int, vector: bool) -> tuple[np.ndarray, np.ndarray]:
    """The blocks U_X = U[:, :d] and U_t = U[:, d:] (U[:, d] when `vector`) of `lstsq_factor`'s U.

    With [X | t] = Q U, ||X v - t w|| = ||U_X v - U_t w||, so the blocks stand
    in for X and t in every such norm.
    """
    return U[:, :d], (U[:, d] if vector else U[:, d:])


def lstsq_solve(U: np.ndarray, d: int, vector: bool) -> np.ndarray:
    """Solve U[:d, :d] x = U[:d, d:] (U[:d, d], a vector x, when `vector`) on `lstsq_factor`'s U."""
    UX, Ut = factor_blocks(U, d, vector)
    return scipy.linalg.solve_triangular(UX[:d], Ut[:d], check_finite=False)


class ProblemInstance:
    """A dense overdetermined least-squares instance.

    Holds an n-by-d data matrix ``A`` and one target ``y``: a length-n
    vector, or an n-by-k matrix for matrix regression.  ``y.ndim`` alone
    says which.  Construction validates shapes, finiteness, and full
    column rank.  The instance keeps a read-only, C-contiguous ``AB`` =
    [A | y] (k' target columns) and factors it once with `lstsq_factor`:
    ``R_tilde`` is its (d+k') x (d+k') triangular factor, zero below row n
    when n < d+k', and ``R`` (A's R factor) a view of its leading block,
    both read-only.  `solution` is `lstsq_solve` on ``R_tilde``, cached.
    """

    def __init__(self, A, y=None):
        A = _readonly_f64(A, "A")
        if A.ndim != 2:
            raise DimensionMismatchError("A must be a 2-d matrix")
        n, d = A.shape
        if not n > d >= 1:
            raise DimensionMismatchError(f"need n > d >= 1, got A with shape {A.shape}")
        if y is None:
            raise DimensionMismatchError("a target y (vector or matrix) is required")
        y = _readonly_f64(y, "y")
        if y.ndim not in (1, 2) or y.shape[0] != n:
            raise DimensionMismatchError(f"y must have shape ({n},) or ({n}, k), got {y.shape}")
        AB = np.column_stack((A, y))
        AB.setflags(write=False)
        R_tilde = lstsq_factor(AB, d, RankDeficientError, "A")
        R_tilde.setflags(write=False)
        self.A = A
        self.y = y
        self.n = n
        self.d = d
        self.AB = AB
        self.R_tilde = R_tilde
        self.R = R_tilde[:d, :d]

    @cached_property
    def solution(self) -> ExactSolution:
        x = lstsq_solve(self.R_tilde, self.d, self.y.ndim == 1)
        with np.errstate(over="ignore", invalid="ignore"):  # from_fit rejects a fit that overflows
            fitted = self.A @ x
            residual = self.y - fitted
        return ExactSolution.from_fit(x, fitted, residual)


def solve_exact(p: ProblemInstance) -> ExactSolution:
    """Solve the instance exactly from the triangular factor of [A | b].

    Full column rank was already validated at construction, so R is
    invertible.  Deterministic: identical inputs yield bitwise-identical
    outputs within one build.
    """
    return p.solution


def prediction_error(A, x_hat, x_ls) -> float:
    """Squared distance between the fitted values of two coefficient vectors.

    Returns ||A (x_hat - x_ls)||^2 (squared Frobenius norm for matrix
    arguments).
    """
    A = np.asarray(A, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    x_ls = np.asarray(x_ls, dtype=np.float64)
    if A.ndim != 2 or x_hat.shape != x_ls.shape or x_hat.shape[0] != A.shape[1]:
        raise DimensionMismatchError(
            f"incompatible shapes A={A.shape}, x_hat={x_hat.shape}, x_ls={x_ls.shape}"
        )
    diff = A @ (x_hat - x_ls)
    return float(np.sum(diff * diff))


def snr(sol: ExactSolution) -> float:
    """Signal-to-noise ratio of an instance: pred_energy / r2.

    A zero residual makes the ratio infinite; an explicit ``math.inf``
    marker is returned rather than raising a division error.
    """
    if sol.r2 == 0.0:
        return math.inf
    return sol.pred_energy / sol.r2
