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
ORTHO_TOL = 1e-9
FP_TOL = 1e-9


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
    A is factored once, by a thin QR of the instance's own read-only
    copy: the rank check reads the singular values of R (those of A),
    and the exact solution, computed lazily and cached, reuses R and Q^T b.
    Both stay readable as ``R`` (d x d, upper triangular) and ``qtb``
    (Q^T times the target); Q itself is not kept.
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
        Q, R = np.linalg.qr(A)
        svals = np.linalg.svd(R, compute_uv=False)
        if svals[-1] <= rank_tol * svals[0]:
            raise RankDeficientError(
                f"A is rank deficient: s_min/s_max = {svals[-1] / svals[0]:.3e} <= {rank_tol:.1e}"
            )
        self.A = A
        self.y = y
        self.Y = Y
        self.n = n
        self.d = d
        self.rank_tol = rank_tol
        self._svals = svals
        qtb = Q.T @ self.target
        R.setflags(write=False)
        qtb.setflags(write=False)
        self.R = R
        self.qtb = qtb

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
    """Solve the instance exactly through a thin QR factorization.

    Full column rank was already validated at construction, so the
    triangular factor is invertible.  Deterministic: identical inputs
    yield bitwise-identical outputs within one build.
    """
    return p.solution


def augmented_factor(p: ProblemInstance, sol: ExactSolution) -> np.ndarray:
    """Triangular factor of [A | b]: R~ with R~^T R~ = [A | b]^T [A | b].

    R~ = [[R, Q^T b], [0, R_perp]], where R_perp is the k' x k' triangular
    factor of the residual ``sol.y_perp`` (k' = 1 for a vector target).
    The blocks line up because the residual is orthogonal to range(A).
    Costs one QR of the n x k' residual.
    """
    y_perp = sol.y_perp.reshape(p.n, -1)
    k = y_perp.shape[1]
    r_perp = np.linalg.qr(y_perp, mode="r")  # min(n, k') x k'
    out = np.zeros((p.d + k, p.d + k))
    out[:p.d, :p.d] = p.R
    out[:p.d, p.d:] = p.qtb.reshape(p.d, k)
    out[p.d:p.d + r_perp.shape[0], p.d:] = r_perp
    out.setflags(write=False)
    return out


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
