"""Synthetic least-squares instances with exactly controlled SNR.

Rows of the data matrix are correlated Gaussians (AR(1)-style covariance
0.5^|i-j| around a constant mean of one).  A solution vector is planted,
normalized so its fitted values have unit norm, and noise is injected
purely inside the null space of A^T so that the residual energy, and
hence the SNR, is exact by construction rather than approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .core import ExactSolution, ProblemInstance, solve_exact
from .errors import DegenerateNoiseError, InvalidInputError
from .sketches import check_seed


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape, target SNR, and seed of a synthetic instance.

    k selects matrix regression with k target columns; None means a
    vector target.
    """

    n: int
    d: int
    rho: float
    seed: int
    k: int | None = None

    def __post_init__(self):
        if not self.n > self.d >= 1:
            raise InvalidInputError(f"need n > d >= 1, got n={self.n}, d={self.d}")
        if not self.rho > 0:
            raise InvalidInputError(f"rho must be positive, got {self.rho}")
        if self.k is not None and self.k < 1:
            raise InvalidInputError("k must be >= 1 when given")
        check_seed(self.seed)


def ar1_covariance(d: int, decay: float = 0.5) -> np.ndarray:
    """Covariance with geometrically decaying off-diagonals: decay^|i-j|."""
    idx = np.arange(d)
    return decay ** np.abs(idx[:, None] - idx[None, :])


def _null_space_part(reflectors: np.ndarray, tau: np.ndarray, w: np.ndarray) -> np.ndarray:
    """V w, with V the last n - d columns of the complete orthogonal factor of A.

    `reflectors` and `tau` are A's Householder QR in LAPACK's raw form.
    Applying the reflectors to [0_d; w] gives Q_full [0_d; w] = V w
    without forming the n-by-n Q_full: O(nd) time per column of w.
    """
    n, d = reflectors.shape
    c = np.zeros((n, w.size // (n - d)))
    c[d:] = w.reshape(n - d, -1)
    _, work, _ = lapack.dormqr("L", "N", reflectors, tau, c, lwork=-1)
    out, _, info = lapack.dormqr("L", "N", reflectors, tau, c, lwork=int(work[0]),
                                 overwrite_c=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dormqr rejected argument {-info}")
    return out.reshape((n,) + w.shape[1:])


def gen_gaussian_data(spec: SyntheticSpec) -> tuple[ProblemInstance, ExactSolution]:
    """Generate an instance whose exact solution and SNR are planted.

    Row i of A is drawn from N(1, C) with C the AR(1) covariance.  The
    planted solution is an i.i.d. normal draw rescaled so ||A x|| = 1
    (Frobenius for matrix targets).  The target is A x plus null-space
    noise V w scaled by alpha = 1/(sqrt(rho) ||V w||), which makes the
    residual energy exactly 1/rho.  The standard deviation of w cancels
    in that normalization, so w is drawn with unit variance.  V w comes
    from A's Householder reflectors, so generation costs O(nd^2) time
    and O(nd) memory.

    Returns the instance together with the planted solution artifacts.
    """
    rng = np.random.default_rng(spec.seed)
    n, d = spec.n, spec.d
    L = np.linalg.cholesky(ar1_covariance(d))
    A = 1.0 + rng.standard_normal((n, d)) @ L.T

    shape = (d,) if spec.k is None else (d, spec.k)
    x0 = rng.standard_normal(shape)
    x_ls = x0 / np.linalg.norm(A @ x0)

    # numpy's raw QR, not scipy's (the reflectors are the same): a level-3 call on
    # scipy's BLAS leaves its threads spinning against numpy's, which doubled the
    # time of the instance's own QR below with two BLAS threads.
    h, tau = np.linalg.qr(A, mode="raw")
    reflectors = h.T
    noise_shape = (n - d,) + shape[1:]
    for _ in range(2):
        w = rng.standard_normal(noise_shape)
        noise = _null_space_part(reflectors, tau, w)
        noise_norm = np.linalg.norm(noise)
        if noise_norm > 0:
            break
    else:
        raise DegenerateNoiseError("null-space noise vanished twice in a row")

    alpha = 1.0 / (math.sqrt(spec.rho) * noise_norm)
    y_perp = alpha * noise
    fitted = A @ x_ls
    return ProblemInstance(A, fitted + y_perp), ExactSolution.from_fit(x_ls, fitted, y_perp)


def add_noise(p: ProblemInstance, kappa: float, seed: int) -> ProblemInstance:
    """Add i.i.d. Gaussian noise of per-coordinate variance kappa * r2 to the target.

    r2 is the residual energy of the unmodified instance.  The noise is
    not confined to the null space of A^T, so the exact solution and the
    residual of the returned instance both change in general; callers
    must re-solve.  kappa = 0 returns an instance with the target
    unchanged.
    """
    if not 0 <= kappa < math.inf:
        raise InvalidInputError(f"kappa must be finite and nonnegative, got {kappa}")
    r2 = solve_exact(p).r2
    rng = np.random.default_rng(seed)
    return ProblemInstance(p.A, p.y + math.sqrt(kappa * r2) * rng.standard_normal(p.y.shape))
