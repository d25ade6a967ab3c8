"""Seeded sketch-operator families normalized so that E[S^T S] = I_n.

Seven families are provided: dense Gaussian and Rademacher projections,
a subsampled randomized Hadamard transform (SRHT), CountSketch, and
three importance-sampling schemes (uniform, squared row norm, leverage
score).  Sampling families draw rows i.i.d. with replacement, which
keeps the Gram identity E[S^T S] = I exact.  Operators realize all of
their randomness eagerly at construction from a 64-bit seed, so repeated
applications are cheap and bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError, InvalidWeightsError

FAMILIES = (
    "gaussian",
    "rademacher",
    "srht",
    "countsketch",
    "uniform",
    "rownorm",
    "leverage",
)

# Sampling families whose probabilities are computed from the data matrix.
WEIGHTED_FAMILIES = ("rownorm", "leverage")
_WEIGHT_SUM_TOL = 1e-12
_MASK64 = (1 << 64) - 1


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
    with the part value; strings are first reduced with FNV-1a.  The
    mixing is fixed and platform independent, so derived seeds do not
    depend on scheduling or iteration order.
    """
    state = master & _MASK64
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
        if not 0 <= self.seed <= _MASK64:
            raise InvalidInputError(f"seed must fit in 64 unsigned bits, got {self.seed}")


class SketchOperator:
    """A realized random linear map from R^n to R^m.

    Construction draws every random ingredient (dense block, sign table,
    sampled indices) once; `apply` is then a pure function.  Instances
    are immutable and safe to share across threads.
    """

    def __init__(self, spec: SketchSpec, n: int, payload: dict):
        self.spec = spec
        self.n = n
        for key, value in payload.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            setattr(self, key, value)

    @property
    def m(self) -> int:
        return self.spec.m

    @property
    def family(self) -> str:
        return self.spec.family


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def _fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform along axis 0.

    `a` must have a power-of-two number of rows.  Equivalent to H @ a
    with H the Sylvester-ordered Hadamard matrix, in O(n log n) per
    column.
    """
    n, c = a.shape
    if n & (n - 1):
        raise ValueError("row count must be a power of two")
    h = 1
    while h < n:
        a = a.reshape(n // (2 * h), 2, h, c)
        a = np.stack((a[:, 0] + a[:, 1], a[:, 0] - a[:, 1]), axis=1)
        a = a.reshape(n, c)
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
    if family not in WEIGHTED_FAMILIES:
        return None
    if A is None:
        raise InvalidWeightsError(f"{family} sampling needs the data matrix as weight source")
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise DimensionMismatchError(f"weight source must be a matrix, got shape {A.shape}")
    w = np.sum(A * A, axis=1) if family == "rownorm" else leverage_scores(A)
    total = w.sum()
    if total <= 0:
        raise InvalidWeightsError("all sampling weights are zero")
    p = w / total
    p.setflags(write=False)
    return p


def _sampling_probs(family: str, n: int, aux, weights) -> np.ndarray:
    """Validated sampling probabilities: uniform, the given weights, or weights from aux."""
    if family == "uniform":
        p = np.full(n, 1.0 / n)
    else:
        p = np.asarray(sampling_weights(family, aux) if weights is None else weights,
                       dtype=np.float64)
        if p.shape != (n,):
            raise DimensionMismatchError(f"weights must have shape ({n},), got {p.shape}")
    if np.any(p <= 0):
        raise InvalidWeightsError("sampling probabilities must be strictly positive")
    if abs(p.sum() - 1.0) > _WEIGHT_SUM_TOL:
        raise InvalidWeightsError(f"probabilities sum to {p.sum()!r}, not 1")
    return p


def leverage_scores(A) -> np.ndarray:
    """Exact leverage scores: squared row norms of the thin orthogonal factor.

    They sum to the column count of A.
    """
    Q, _ = np.linalg.qr(np.asarray(A, dtype=np.float64))
    return np.sum(Q * Q, axis=1)


def make_operator(spec: SketchSpec, n: int, aux=None, weights=None) -> SketchOperator:
    """Realize a sketch operator for inputs of length n.

    Conventions: Gaussian and Rademacher entries are scaled by 1/sqrt(m).
    Sampling families draw m rows i.i.d. with replacement from
    probabilities p and scale each selected row by 1/sqrt(m * p_i).
    SRHT zero-pads inputs to the next power of two n_pad and applies
    sign flips, the normalized Hadamard transform, and row sampling with
    an overall scale sqrt(n_pad / m).  CountSketch gives each of the n
    input coordinates one uniformly random output row and a random sign.

    Row-norm and leverage sampling take their probabilities from
    `weights` (see `sampling_weights`) or, when it is None, compute them
    from the data matrix `aux`.  Either way they are checked on every
    call: strictly positive and summing to one within 1e-12.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(spec.seed)
    m, family = spec.m, spec.family

    # Dense families scale in place: one m x n float buffer each.  The
    # Rademacher form bits * 2s - s is exact, so it equals (2 bits - 1) / sqrt(m)
    # bitwise.
    if family == "gaussian":
        dense = rng.standard_normal((m, n))
        dense /= math.sqrt(m)
        payload = {"dense": dense}
    elif family == "rademacher":
        s = 1.0 / math.sqrt(m)
        dense = np.multiply(rng.integers(0, 2, size=(m, n)), 2.0 * s)
        dense -= s
        payload = {"dense": dense}
    elif family == "srht":
        n_pad = _next_pow2(n)
        payload = {
            "n_pad": n_pad,
            "signs": 2.0 * rng.integers(0, 2, size=n_pad) - 1.0,
            "indices": rng.integers(0, n_pad, size=m),
        }
    elif family == "countsketch":
        payload = {
            "buckets": rng.integers(0, m, size=n),
            "signs": 2.0 * rng.integers(0, 2, size=n) - 1.0,
        }
    else:
        p = _sampling_probs(family, n, aux, weights)
        indices = rng.choice(n, size=m, replace=True, p=p)
        payload = {
            "indices": indices,
            "row_scale": 1.0 / np.sqrt(m * p[indices]),
        }
    return SketchOperator(spec, n, payload)


def apply(op: SketchOperator, M) -> np.ndarray:
    """Compute S @ M for an n-vector or n-by-c matrix M."""
    M = np.asarray(M, dtype=np.float64)
    vector = M.ndim == 1
    if vector:
        M = M[:, None]
    if M.ndim != 2 or M.shape[0] != op.n:
        raise DimensionMismatchError(f"expected {op.n} rows, got shape {M.shape}")
    family = op.family
    if family in ("gaussian", "rademacher"):
        out = op.dense @ M
    elif family == "srht":
        z = np.zeros((op.n_pad, M.shape[1]))
        z[: op.n] = M
        z *= op.signs[:, None]
        z = _fwht(z)
        # sqrt(n_pad/m) * (H/sqrt(n_pad)) collapses to 1/sqrt(m) on the raw transform
        out = z[op.indices] / math.sqrt(op.m)
    elif family == "countsketch":
        out = np.zeros((op.m, M.shape[1]))
        np.add.at(out, op.buckets, M * op.signs[:, None])
    else:
        out = M[op.indices] * op.row_scale[:, None]
    return out[:, 0] if vector else out


def as_matrix(op: SketchOperator) -> np.ndarray:
    """Materialize the m-by-n matrix of the operator."""
    if op.family in ("gaussian", "rademacher"):
        return op.dense.copy()
    return apply(op, np.eye(op.n))
