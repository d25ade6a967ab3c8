"""Seeded sketch-operator families normalized so that E[S^T S] = I_n.

Seven families are provided: dense Gaussian and Rademacher projections,
a subsampled randomized Hadamard transform (SRHT), CountSketch, and
three importance-sampling schemes (uniform, squared row norm, leverage
score).  Sampling families draw rows i.i.d. with replacement, which
keeps the Gram identity E[S^T S] = I exact.  Operators realize all of
their randomness eagerly at construction from a 64-bit seed, so repeated
applications are cheap and bitwise reproducible.  Dense families apply
as one matrix product, SRHT as an in-place fast Hadamard transform,
CountSketch as one sparse (CSC) product and sampling families as a row
gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import DimensionMismatchError, InvalidInputError, InvalidWeightsError

# Sampling families whose probabilities are computed from the data matrix,
# with the unnormalized row weights each takes from it.  `leverage_scores`
# is looked up per call, so a wrapper installed on it sees every call.
_ROW_WEIGHTS = {
    "rownorm": lambda A: np.sum(A * A, axis=1),
    "leverage": lambda A: leverage_scores(A),
}
WEIGHTED_FAMILIES = tuple(_ROW_WEIGHTS)
_WEIGHT_SUM_TOL = 1e-12
_MASK64 = (1 << 64) - 1


def check_seed(seed: int, error: type[Exception] = InvalidInputError) -> None:
    """Raise `error` unless seed fits in 64 unsigned bits, the range every seed shares."""
    if not 0 <= seed <= _MASK64:
        raise error(f"seed must fit in 64 unsigned bits, got {seed}")


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


def derive_seed(master: int, *parts: int | str) -> int:
    """Mix a master seed with context parts into a fresh 64-bit seed.

    One splitmix64 round per part, applied to the running state xor'd
    with the part value (strings reduced with FNV-1a, integers modulo
    2**64).  The master must fit in 64 unsigned bits.  The mixing is
    fixed and platform independent, so derived seeds do not depend on
    scheduling or iteration order.
    """
    check_seed(master)
    state = master
    for part in parts:
        value = _fnv1a64(part) if isinstance(part, str) else part & _MASK64
        state = _splitmix64(state ^ value)
    return state


@dataclass(frozen=True)
class SketchSpec:
    """Which sketch to realize: family name, sketch size m, and seed."""

    family: str
    m: int
    seed: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidInputError(
                f"unknown sketch family {self.family!r}; choose from {FAMILIES}")
        if self.m < 1:
            raise InvalidInputError(f"sketch size m must be >= 1, got {self.m}")
        check_seed(self.seed)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class SketchOperator:
    """A realized random linear map from R^n to R^m.

    Each kernel is a subclass: `_realize(rng, weights)` draws every
    random ingredient once, at construction, and `_apply(M)` computes S @ M
    for an n-by-c float64 matrix M.  Instances are immutable and safe to
    share across threads.
    """

    def __init__(self, spec: SketchSpec, n: int, weights=None):
        self.spec = spec
        self.n = n
        self._realize(np.random.default_rng(spec.seed), weights)

    @property
    def m(self) -> int:
        return self.spec.m

    @property
    def family(self) -> str:
        return self.spec.family


def _fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform along axis 0, in place.

    `a` must be a C-contiguous array with a power-of-two number of rows;
    it is overwritten with H @ a (H the Sylvester-ordered Hadamard
    matrix) and returned.  O(n log n) per column, with one half-size
    scratch array for the whole transform.
    """
    n, c = a.shape
    if n & (n - 1):
        raise ValueError("row count must be a power of two")
    if not a.flags.c_contiguous:
        raise ValueError("the transform runs in place on a C-contiguous array")
    t = np.empty((n // 2) * c)
    h = 1
    while h < n:
        v = a.reshape(n // (2 * h), 2, h, c)
        tv = t.reshape(n // (2 * h), h, c)
        np.subtract(v[:, 0], v[:, 1], out=tv)
        v[:, 0] += v[:, 1]
        v[:, 1] = tv
        h *= 2
    return a


def sampling_weights(family: str, A) -> np.ndarray | None:
    """Row-sampling probabilities that `family` derives from the data matrix A.

    Row-norm sampling uses squared row norms and leverage sampling the
    leverage scores, each normalized to sum to one.  Returns None for the
    families whose law does not depend on the data.  The result depends
    on A alone, so a sweep computes it once per family and passes it to
    every `make_operator` call as `weights`.
    """
    row_weights = _ROW_WEIGHTS.get(family)
    if row_weights is None:
        return None
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise DimensionMismatchError(f"weight source must be a matrix, got shape {A.shape}")
    w = row_weights(A)
    total = w.sum()
    if total <= 0:
        raise InvalidWeightsError("all sampling weights are zero")
    return _frozen(w / total)


def leverage_scores(A) -> np.ndarray:
    """Exact leverage scores: squared row norms of the thin orthogonal factor.

    They sum to the column count of A.
    """
    Q, _ = np.linalg.qr(np.asarray(A, dtype=np.float64))
    return np.sum(Q * Q, axis=1)


class _Dense(SketchOperator):
    """An explicit m x n block, scaled in place: one float buffer."""

    def _apply(self, M):
        return self.dense @ M


class _Gaussian(_Dense):
    def _realize(self, rng, weights):
        dense = rng.standard_normal((self.m, self.n))
        dense /= math.sqrt(self.m)
        self.dense = _frozen(dense)


class _Rademacher(_Dense):
    def _realize(self, rng, weights):
        # eight signs per random byte; the packed draw needs n/8 bytes per row, not 8n
        packed = rng.integers(0, 256, size=(self.m, -(-self.n // 8)), dtype=np.uint8)
        bits = np.unpackbits(packed, axis=1, count=self.n)
        # bits * 2s - s is exact, so it equals (2 bits - 1) / sqrt(m) bitwise
        s = 1.0 / math.sqrt(self.m)
        dense = np.multiply(bits, 2.0 * s)
        dense -= s
        self.dense = _frozen(dense)


class _Srht(SketchOperator):
    """Sign flips, the Hadamard transform of the zero-padded input, and sampled rows."""

    def _realize(self, rng, weights):
        self.n_pad = 1 << (self.n - 1).bit_length()  # the next power of two
        self.signs = _frozen(2.0 * rng.integers(0, 2, size=self.n_pad) - 1.0)
        self.indices = _frozen(rng.integers(0, self.n_pad, size=self.m))

    def _apply(self, M):
        z = np.zeros((self.n_pad, M.shape[1]))
        np.multiply(M, self.signs[: self.n, None], out=z[: self.n])
        _fwht(z)
        # sqrt(n_pad/m) * (H/sqrt(n_pad)) collapses to 1/sqrt(m) on the raw transform
        out = z[self.indices]
        out /= math.sqrt(self.m)
        return out


class _CountSketch(SketchOperator):
    """One random output row and one random sign per input coordinate."""

    def _realize(self, rng, weights):
        self.buckets = _frozen(rng.integers(0, self.m, size=self.n))
        self.signs = _frozen(2.0 * rng.integers(0, 2, size=self.n) - 1.0)
        # column j holds signs[j] in row buckets[j]; data and indices are views of
        # the frozen draws, so the matrix is read-only too
        self.matrix = scipy.sparse.csc_array(
            (self.signs, self.buckets, _frozen(np.arange(self.n + 1))), shape=(self.m, self.n))

    def _apply(self, M):
        # the CSC product walks columns in input order and the signs are +-1, so
        # each bucket sums its inputs in input order, bitwise as
        # np.add.at(out, buckets, M * signs) would
        return self.matrix @ M


class _SampledRows(SketchOperator):
    """m rows drawn i.i.d. with replacement from the probabilities p."""

    def _probabilities(self, weights) -> np.ndarray:
        if weights is None:
            raise InvalidWeightsError(f"{self.family} sampling needs weights from sampling_weights")
        p = np.asarray(weights, dtype=np.float64)
        if p.shape != (self.n,):
            raise DimensionMismatchError(f"weights must have shape ({self.n},), got {p.shape}")
        return p

    def _realize(self, rng, weights):
        p = self._probabilities(weights)
        if np.any(p <= 0):
            raise InvalidWeightsError("sampling probabilities must be strictly positive")
        if abs(p.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise InvalidWeightsError(f"probabilities sum to {p.sum()!r}, not 1")
        self.indices = _frozen(rng.choice(self.n, size=self.m, replace=True, p=p))
        self.row_scale = _frozen(1.0 / np.sqrt(self.m * p[self.indices]))

    def _apply(self, M):
        return M[self.indices] * self.row_scale[:, None]


class _UniformRows(_SampledRows):
    def _probabilities(self, weights) -> np.ndarray:
        return np.full(self.n, 1.0 / self.n)


_KERNELS = {
    "gaussian": _Gaussian,
    "rademacher": _Rademacher,
    "srht": _Srht,
    "countsketch": _CountSketch,
    "uniform": _UniformRows,
    "rownorm": _SampledRows,
    "leverage": _SampledRows,
}
FAMILIES = tuple(_KERNELS)


def make_operator(spec: SketchSpec, n: int, weights=None) -> SketchOperator:
    """Realize a sketch operator for inputs of length n.

    Conventions: Gaussian and Rademacher entries are scaled by 1/sqrt(m).
    Sampling families draw m rows i.i.d. with replacement from
    probabilities p and scale each selected row by 1/sqrt(m * p_i).
    SRHT zero-pads inputs to the next power of two n_pad and applies
    sign flips, the normalized Hadamard transform, and row sampling with
    an overall scale sqrt(n_pad / m).  CountSketch gives each of the n
    input coordinates one uniformly random output row and a random sign;
    it is stored as an m x n CSC matrix with one entry per column, and
    its product sums each output row's inputs in input order.

    Row-norm and leverage sampling take their probabilities from
    `weights`, as returned by `sampling_weights(family, A)`.  They are
    checked on every call: strictly positive and summing to one within
    1e-12.
    """
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    return _KERNELS[spec.family](spec, n, weights)


def apply(op: SketchOperator, M) -> np.ndarray:
    """Compute S @ M for an n-vector or n-by-c matrix M."""
    M = np.asarray(M, dtype=np.float64)
    vector = M.ndim == 1
    if vector:
        M = M[:, None]
    if M.ndim != 2 or M.shape[0] != op.n:
        raise DimensionMismatchError(f"expected {op.n} rows, got shape {M.shape}")
    out = op._apply(M)
    return out[:, 0] if vector else out


def as_matrix(op: SketchOperator) -> np.ndarray:
    """Materialize the m-by-n matrix of the operator."""
    return apply(op, np.eye(op.n))
