"""Problem containers, exact least-squares solutions, and error metrics.

Everything downstream (sketch operators, estimators, bounds, the
experiment harness) consumes the types defined here.  All arithmetic is
64-bit floating point and all containers are immutable after
construction, so they can be shared freely across worker threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, InvalidInputError, RankDeficientError

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
    y_perp : ndarray, shape (n,) or (n, k)
        Residual vector (target minus fitted values), orthogonal to the
        column space of the data matrix.
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
        """Freeze x_ls and y_perp and derive r2 and pred_energy from the fit."""
        x_ls.setflags(write=False)
        y_perp.setflags(write=False)
        return cls(x_ls=x_ls, y_perp=y_perp, r2=float(np.sum(y_perp * y_perp)),
                   pred_energy=float(np.sum(fitted * fitted)))


class ProblemInstance:
    """A dense overdetermined least-squares instance.

    Holds an n-by-d data matrix together with a length-n target vector
    ``y``, an n-by-k target matrix ``Y``, or both (``Y`` wins as the
    regression target when present; ``y`` then carries raw labels).
    Construction validates shapes, finiteness, and full column rank.
    The instance keeps a read-only, C-contiguous ``AB`` = [A | b] (b the
    target, k' columns) and factors it once, by one QR that forms no Q:
    ``R_tilde`` is its (d+k') x (d+k') triangular factor, zero below row n
    when n < d+k'.  ``R`` (A's R factor) and ``qtb`` (Q^T b) are read-only
    views of its leading blocks.  The rank check reads the singular values
    of R (those of A); the exact solution, computed lazily and cached,
    solves R x = Q^T b.
    """

    def __init__(self, A, y=None, Y=None, rank_tol: float = RANK_TOL):
        A = _readonly_f64(A, "A")
        if A.ndim != 2:
            raise DimensionMismatchError("A must be a 2-d matrix")
        n, d = A.shape
        if not n > d >= 1:
            raise DimensionMismatchError(f"need n > d >= 1, got A with shape {A.shape}")
        if y is None and Y is None:
            raise DimensionMismatchError("a target vector y or target matrix Y is required")
        if y is not None:
            y = _readonly_f64(y, "y")
            if y.shape != (n,):
                raise DimensionMismatchError(f"y must have shape ({n},), got {y.shape}")
        if Y is not None:
            Y = _readonly_f64(Y, "Y")
            if Y.ndim != 2 or Y.shape[0] != n:
                raise DimensionMismatchError(f"Y must have shape ({n}, k), got {Y.shape}")
        AB = np.column_stack((A, Y if Y is not None else y))
        AB.setflags(write=False)
        R_tilde = np.zeros((AB.shape[1], AB.shape[1]))
        R_tilde[:n] = np.linalg.qr(AB, mode="r")  # min(n, d+k') rows
        if not np.all(np.isfinite(R_tilde)):
            raise InvalidInputError("[A | target] is too large to factor without overflow")
        R_tilde.setflags(write=False)
        R = R_tilde[:d, :d]
        svals = np.linalg.svd(R, compute_uv=False)
        if svals[-1] <= rank_tol * svals[0]:
            ratio = svals[-1] / svals[0] if svals[0] > 0 else 0.0  # A = 0 has no ratio
            raise RankDeficientError(
                f"A is rank deficient: s_min/s_max = {ratio:.3e} <= {rank_tol:.1e}")
        self.A = A
        self.y = y
        self.Y = Y
        self.n = n
        self.d = d
        self.rank_tol = rank_tol
        self._svals = svals
        self.AB = AB
        self.R_tilde = R_tilde
        self.R = R
        self.qtb = R_tilde[:d, d] if Y is None else R_tilde[:d, d:]

    @property
    def target(self) -> np.ndarray:
        """The regression target: Y when present, else y."""
        return self.Y if self.Y is not None else self.y

    @property
    def k(self) -> int | None:
        """Number of target columns for matrix regression, else None."""
        return self.Y.shape[1] if self.Y is not None else None

    @property
    def sigma_min(self) -> float:
        """Smallest eigenvalue of A^T A."""
        return float(self._svals[-1] ** 2)

    @property
    def sigma_max(self) -> float:
        """Largest eigenvalue of A^T A."""
        return float(self._svals[0] ** 2)

    @cached_property
    def solution(self) -> ExactSolution:
        x = scipy.linalg.solve_triangular(self.R, self.qtb)
        fitted = self.A @ x
        return ExactSolution.from_fit(x, fitted, self.target - fitted)


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
