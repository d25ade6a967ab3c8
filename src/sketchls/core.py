"""Problem containers, exact least-squares solutions, and error metrics.

Everything downstream (sketch operators, estimators, bounds, the
experiment harness) consumes the types defined here.  An instance has
one target, a vector or a matrix, and its ``ndim`` alone says which;
solutions and residuals take the target's shape.  Every triangular
factor, of [A | y] and of a sketch, comes from `qr_factor`'s ladder (a
Gaussian sketch tries its own Gram step first).  All arithmetic is
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
# `certified_inverse` inverts R~ only where ||R~||_F ||R~^-1||_F < 1/INVERSE_TOL: the inverse
# moves a sketched fit by about u cond(R~) relative to the QR of the sketch
INVERSE_TOL = 1e-4
# `gram_factor` keeps L only where min L_ii >= GRAM_DIAG_MIN max L_ii.  L_kk is the distance of
# X's column k from the span of the columns before it, so a small ratio flags the near-dependence
# through which a Cholesky of X^T X loses accuracy as cond(X)^2
GRAM_DIAG_MIN = 0.05


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


def qr_factor(M, first=(None, None)) -> np.ndarray:
    """The triangular factor U of M = Q U, forming no Q: square in M's columns, zero below
    M's rows, and unique up to the signs of its rows.

    The one ladder.  A Gram step on R1 takes X = M R1^-1 and U = `gram_factor`(X^T X, R1),
    from level-3 BLAS alone, with a positive diagonal: first on `first` = (R1, R1^-1), then
    as CholeskyQR2 on R1 = chol(M^T M)^T and its `certified_inverse`.  One Householder QR (a
    diagonal of mixed signs) runs last, where M has fewer rows than columns or both steps
    decline: no R1^-1 given or certified, M^T M not finite or with a subnormal diagonal, a
    failed Cholesky, or `gram_factor`'s diagonal guard.
    """
    U = None
    if len(M) >= M.shape[1]:
        U = _gram_step(M, *first)
        if U is None:
            U = _gram_step(M, *_cholesky_first(M))
    if U is None:
        U = np.linalg.qr(M, mode="r")  # min(rows, columns) rows
    if U.shape[0] < U.shape[1]:
        U = np.vstack((U, np.zeros((U.shape[1] - U.shape[0], U.shape[1]))))
    return U


def _gram_step(M, R1, R1_inv) -> np.ndarray | None:
    """`gram_factor`(X^T X, R1) for X = M R1^-1; None where R1^-1 is None or the guard declines."""
    if R1_inv is None:
        return None
    X = M @ R1_inv
    return gram_factor(X.T @ X, R1)


def _cholesky_first(M) -> tuple[np.ndarray | None, np.ndarray | None]:
    """CholeskyQR2's first factor: R1 = chol(M^T M)^T and its `certified_inverse`, or
    (None, None) where M^T M is not finite or its diagonal is subnormal, or the Cholesky fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = M.T @ M
    if np.isfinite(gram).all() and gram.diagonal().min() >= np.finfo(np.float64).tiny:
        try:
            R1 = np.linalg.cholesky(gram).T
        except np.linalg.LinAlgError:
            return None, None
        return R1, certified_inverse(R1)
    return None, None


def _condition_bound(R) -> tuple[np.ndarray, float]:
    """(R^-1, ||R||_F ||R^-1||_F) for a triangular R, by one LAPACK inversion.

    The bound is at least R's 2-norm condition number.  It is inf where R has a zero on its
    diagonal, and inf or NaN where R^-1 overflows, so it fails every certificate there.  A
    product that is not finite is taken again from 2^-e R and 2^e R^-1, 2^e the binade of
    max|R|: the scale cancels exactly, so the bound does not depend on R's scale.
    """
    R_inv, info = lapack.dtrtri(R)
    if info != 0:
        return R_inv, math.inf
    # R_inv keeps R's strict lower triangle, zeros in a triangular factor, so its norm is
    # ||R^-1||_F
    with np.errstate(over="ignore", invalid="ignore"):
        bound = float(np.linalg.norm(R) * np.linalg.norm(R_inv))
        if not math.isfinite(bound):
            e = np.frexp(np.abs(R).max())[1]
            bound = float(np.linalg.norm(np.ldexp(R, -e)) * np.linalg.norm(np.ldexp(R_inv, e)))
    return R_inv, bound


def certify_rank(U, d: int, error: type[SketchLSError], name: str) -> np.ndarray:
    """U, once certified: a finite triangular factor of [X | t] with X of full column rank.

    U[:d, :d] = R is X's R factor (up to row signs), with X's singular values.  X
    (`name` in messages) is rank deficient, raising `error`, when
    s_min <= RANK_TOL * s_max.  As s_max <= ||R||_F and 1/s_min <= ||R^-1||_F,
    the SVD runs only where 1/(||R||_F ||R^-1||_F) does not clear RANK_TOL by
    a factor of 2, or R has a zero on its diagonal.  A U that overflows
    raises InvalidInputError.
    """
    if not np.isfinite(U).all():
        raise InvalidInputError(f"[{name} | target] is too large to factor without overflow")
    R = U[:d, :d]
    if not 2 * RANK_TOL * _condition_bound(R)[1] < 1:
        s = np.linalg.svd(R, compute_uv=False)
        if s[-1] <= RANK_TOL * s[0]:
            ratio = s[-1] / s[0] if s[0] > 0 else 0.0  # X = 0 has no ratio
            raise error(f"{name} is rank deficient: s_min/s_max = {ratio:.3e}")
    return U


def certified_inverse(R) -> np.ndarray | None:
    """R^-1 for a triangular R, read-only, where INVERSE_TOL ||R||_F ||R^-1||_F < 1; else None.

    A singular R (a zero residual makes R~ singular) and an R^-1 that overflows both fail.
    """
    R_inv, bound = _condition_bound(R)
    if not INVERSE_TOL * bound < 1:
        return None
    R_inv.setflags(write=False)
    return R_inv


def gram_factor(gram, R) -> np.ndarray | None:
    """U = L^T R, L the Cholesky factor of gram = X^T X: the triangular factor of X R = Q U,
    up to row signs, with no QR of X R.

    None, for the caller to factor X R otherwise, where the Cholesky fails or L's diagonal
    ratio is under GRAM_DIAG_MIN, NaN included.
    """
    try:
        L = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    diagonal = L.diagonal()
    if not diagonal.min() >= GRAM_DIAG_MIN * diagonal.max():
        return None
    return L.T @ R


def factor_blocks(U: np.ndarray, d: int, vector: bool) -> tuple[np.ndarray, np.ndarray]:
    """The blocks U_X = U[:, :d] and U_t = U[:, d:] (U[:, d] when `vector`) of a factor U.

    With [X | t] = Q U, ||X v - t w|| = ||U_X v - U_t w||, so the blocks stand
    in for X and t in every such norm.
    """
    return U[:, :d], (U[:, d] if vector else U[:, d:])


def lstsq_solve(U: np.ndarray, d: int, vector: bool) -> np.ndarray:
    """Solve U[:d, :d] x = U[:d, d:] (U[:d, d], a vector x, when `vector`) on `certify_rank`'s U."""
    UX, Ut = factor_blocks(U, d, vector)
    return scipy.linalg.solve_triangular(UX[:d], Ut[:d], check_finite=False)


class ProblemInstance:
    """A dense overdetermined least-squares instance.

    Holds an n-by-d data matrix ``A`` and one target ``y``: a length-n
    vector, or an n-by-k matrix for matrix regression.  ``y.ndim`` alone
    says which.  Construction validates shapes, finiteness, and full
    column rank.  It copies [A | y] once, into a read-only, C-contiguous
    ``AB`` (k' target columns) with views ``A`` and ``y``, and factors it once
    (`qr_factor`, then `certify_rank`): ``R_tilde`` is its (d+k') x (d+k')
    triangular factor, zero below row n when n < d+k', and ``R`` (A's R
    factor) a view of its leading block.  ``R_tilde_inv`` is
    R~^-1, computed once, where `certified_inverse` certifies R~ well enough
    conditioned to be inverted explicitly, and None where it does not (a zero
    residual makes R~ singular).  All three arrays are read-only.  `solution` is
    `lstsq_solve` on ``R_tilde``, cached.
    """

    def __init__(self, A, y=None):
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2:
            raise DimensionMismatchError("A must be a 2-d matrix")
        n, d = A.shape
        if not n > d >= 1:
            raise DimensionMismatchError(f"need n > d >= 1, got A with shape {A.shape}")
        if y is None:
            raise DimensionMismatchError("a target y (vector or matrix) is required")
        y = np.asarray(y, dtype=np.float64)
        if y.ndim not in (1, 2) or y.shape[0] != n:
            raise DimensionMismatchError(f"y must have shape ({n},) or ({n}, k), got {y.shape}")
        AB = np.empty((n, d + y.size // n))  # C-contiguous whatever the inputs' order
        AB[:, :d], AB[:, d:] = A, y.reshape(n, y.size // n)
        for name, block in (("A", AB[:, :d]), ("y", AB[:, d:])):
            if not np.isfinite(block).all():
                raise InvalidInputError(f"{name} contains non-finite entries")
        AB.setflags(write=False)
        R_tilde = certify_rank(qr_factor(AB), d, RankDeficientError, "A")
        R_tilde.setflags(write=False)
        self.A = AB[:, :d]
        self.y = AB[:, d:].reshape(y.shape)
        self.n = n
        self.d = d
        self.AB = AB
        self.R_tilde = R_tilde
        self.R_tilde_inv = certified_inverse(R_tilde)
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
