"""Seeded sketch-operator families normalized so that E[S^T S] = I_n.

Seven families are provided: dense Gaussian and Rademacher projections,
a subsampled randomized Hadamard transform (SRHT), CountSketch, and
three importance-sampling schemes (uniform, squared row norm, leverage
score).  Sampling families draw rows i.i.d. with replacement, which
keeps the Gram identity E[S^T S] = I exact.  Operators realize all of
their randomness eagerly at construction from a 64-bit seed, so repeated
applications are cheap and bitwise reproducible.  Gaussian applies as
one matrix product, Rademacher from its packed signs one fixed panel of
rows and one block of unpacked columns at a time, SRHT as a split
Hadamard product (two GEMMs per block of columns), CountSketch as one
sparse (CSC) product and sampling families as a row gather.  A
Rademacher draw nests: its first m rows are bitwise the sketch of m rows
from the same seed, and `apply` reads every such prefix from one product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.linalg import hadamard

from .core import certified_inverse, certify_rank, max_abs, qr_factor
from .errors import DimensionMismatchError, InvalidInputError, InvalidWeightsError


def _scaled_row_norms(A, peak):
    # 2**-e brings peak = max|A| into [1/2, 1) exactly: no square overflows, the row
    # holding it weighs at least 1/4, and the scale cancels when the weights are normalized
    scaled = np.ldexp(A, -np.frexp(peak)[1])
    return np.sum(np.square(scaled, out=scaled), axis=1)  # in place: one n x d temporary


# Sampling families whose probabilities are computed from the data matrix, with
# the unnormalized row weights each takes from A and max|A|.  `leverage_scores`
# is looked up per call, so a wrapper installed on it sees every call.
_ROW_WEIGHTS = {
    "rownorm": _scaled_row_norms,
    "leverage": lambda A, peak: leverage_scores(A),
}
WEIGHTED_FAMILIES = tuple(_ROW_WEIGHTS)
_WEIGHT_SUM_TOL = 1e-12
_MASK64 = (1 << 64) - 1
_RADIX_BITS = 6  # SRHT applies H_b in Kronecker factors of at most 2**6 rows, one GEMM each
_SRHT_BLOCK = 32  # columns per SRHT block; bounds its n_pad-row buffers and its stored rows
# rows of an n-row input per block, in Rademacher's apply and in `leverage_scores`; bounds
# their float blocks
_ROW_BLOCK = 1024
# Rademacher rows per panel: signs are drawn and multiplied in whole panels, so a row's bits
# come from one _PANEL-row GEMM whatever m is (BLAS rows are not prefix-invariant)
_PANEL = 64
_FLOAT64_COUNT_MAX = np.iinfo(np.intp).max // 8  # numpy sizes arrays in signed intp bytes


def check_seed(seed: int, error: type[Exception] = InvalidInputError) -> None:
    """Raise `error` unless seed fits in 64 unsigned bits, the range every seed shares."""
    if not 0 <= seed <= _MASK64:
        raise error(f"seed must fit in 64 unsigned bits, got {seed}")


def check_addressable(shape: tuple[int, ...], what: str) -> None:
    """Raise InvalidInputError when numpy cannot address a float64 array of `shape`.

    numpy refuses one past np.intp's byte range with a bare ValueError, so each count
    that sizes an array is checked here, where it sizes it, before anything is drawn.
    """
    if math.prod(shape) > _FLOAT64_COUNT_MAX:
        raise InvalidInputError(f"{what} of shape {shape} is too large for numpy to address")


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
        # every kernel draws m-row arrays; _realize checks any larger array it draws
        check_addressable((spec.m, 1), f"a {spec.family} sketch")
        self.spec = spec
        self.n = n
        self._realize(np.random.default_rng(spec.seed), weights)

    @property
    def m(self) -> int:
        return self.spec.m

    @property
    def family(self) -> str:
        return self.spec.family


def sampling_weights(family: str, A) -> np.ndarray | None:
    """Row-sampling probabilities that `family` derives from the data matrix A.

    Row-norm sampling uses squared row norms and leverage sampling the
    leverage scores, each normalized to sum to one.  Row norms are taken of A
    scaled by the power of two that brings max|A| into [1/2, 1), so every
    finite, nonzero A has finite weights; both families raise InvalidWeightsError
    for any other A, on its max|A|.  Returns None for the families whose
    law does not depend on the data.  The result depends on A alone, so a sweep
    computes it once per family and passes it to every `make_operator` call.
    """
    row_weights = _ROW_WEIGHTS.get(family)
    if row_weights is None:
        return None
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise DimensionMismatchError(f"weight source must be a matrix, got shape {A.shape}")
    peak = max_abs(A)
    if not 0 < peak < math.inf:  # NaN fails the comparison
        raise InvalidWeightsError(f"max|A| is {peak}: A must be finite, nonzero")
    w = row_weights(A, peak)
    return _frozen(w / w.sum())


def leverage_scores(A) -> np.ndarray:
    """Exact leverage scores: squared row norms of the thin orthogonal factor of A.

    They sum to the column count of A, so an A with at least as many rows as columns must
    pass `core.certify_rank` (else InvalidWeightsError).  With R from `core.qr_factor`, they
    are the squared row norms of A R^-1, _ROW_BLOCK rows at a time (no Q and no second
    n x d array), where `certified_inverse(R)` exists; elsewhere, a wide A included, those
    of the Householder Q.
    """
    A = np.asarray(A, dtype=np.float64)
    n, d = A.shape
    R_inv = None
    if n >= d:
        R_inv = certified_inverse(certify_rank(qr_factor(A), d, InvalidWeightsError, "A"))
    if R_inv is None:
        Q, _ = np.linalg.qr(A)
        return np.sum(np.square(Q, out=Q), axis=1)
    scores = np.empty(n)
    for i in range(0, n, _ROW_BLOCK):
        block = A[i:i + _ROW_BLOCK] @ R_inv
        scores[i:i + _ROW_BLOCK] = np.sum(np.square(block, out=block), axis=1)
    return scores


class _Gaussian(SketchOperator):
    """An explicit m x n matrix, scaled in place: one float buffer."""

    def _realize(self, rng, weights):
        check_addressable((self.m, self.n), "a gaussian sketch")
        dense = rng.standard_normal((self.m, self.n))
        dense /= math.sqrt(self.m)
        self.dense = _frozen(dense)

    def _apply(self, M):
        return self.dense @ M


class _Rademacher(SketchOperator):
    """Eight signs per random byte, kept packed: no m x n float matrix.

    The signs are drawn in whole panels, ceil(m / _PANEL) _PANEL rows from one `integers`
    call, so they are bitwise the first rows of any larger draw from the same seed.
    `_products` multiplies the unscaled signs Z into M one panel at a time: _ROW_BLOCK input
    columns of the panel's rows are unpacked into one reused float block, and its product
    with the matching rows of M is added into the panel's rows.  The 1/sqrt(m) scale comes
    last, so every m' <= m reads its sketch off the same product.
    """

    def _realize(self, rng, weights):
        # the packed bytes, counted in 8-byte words
        rows = -(-self.m // _PANEL) * _PANEL
        check_addressable((rows, -(-self.n // 64)), "a rademacher sketch")
        self.packed = _frozen(rng.integers(0, 256, size=(rows, -(-self.n // 8)), dtype=np.uint8))

    def _products(self, M, m_values) -> dict[int, np.ndarray]:
        """{m: Z[:m] M / sqrt(m)} for each m in m_values, all from the panels that the largest
        needs."""
        rows = -(-max(m_values) // _PANEL) * _PANEL
        check_addressable((rows, M.shape[1]), "a sketch's output")
        ZM = np.zeros((rows, M.shape[1]))
        block = np.empty((_PANEL, min(self.n, _ROW_BLOCK)))
        for i in range(0, rows, _PANEL):
            for j in range(0, self.n, _ROW_BLOCK):  # a multiple of 8: whole bytes
                w = min(_ROW_BLOCK, self.n - j)
                Z = block[:, :w]
                bits = np.unpackbits(self.packed[i:i + _PANEL, j // 8:-(-(j + w) // 8)],
                                     axis=1, count=w)
                np.multiply(bits, 2.0, out=Z)
                Z -= 1.0
                ZM[i:i + _PANEL] += Z @ M[j:j + w]
        return {m: ZM[:m] / math.sqrt(m) for m in m_values}

    def _apply(self, M):
        return self._products(M, (self.m,))[self.m]


def _hadamard_rows(rows, size: int) -> np.ndarray:
    """Rows `rows` of the Sylvester Hadamard matrix H of order size, by H = H_hi kron H_lo
    with lo <= hi = size / lo: one table of H_hi, H_lo its leading block, and no size x size
    array."""
    lo = 1 << ((size.bit_length() - 1) // 2)
    H_hi = hadamard(size // lo, dtype=np.float64)
    high, low = np.divmod(rows, lo)
    return np.einsum("ij,ik->ijk", H_hi[high], H_hi[low, :lo]).reshape(len(rows), size)


class _Srht(SketchOperator):
    """The sampled rows of H z, z the signed, zero-padded input, by H = H_b kron H_a.

    Row i = h a + l of H z is H_a[l] @ W[h], W = H_b z viewed as b blocks of a rows.  That
    costs about n_pad b + m a flops per column, least at b = sqrt(m): b is the power of two
    nearest sqrt(m), raised to m / _SRHT_BLOCK so that the m x a stored rows of H_a fit in
    one n_pad x _SRHT_BLOCK buffer, and capped at n_pad.  Where a = 1 they are a view of
    one 1.0.
    """

    def _realize(self, rng, weights):
        k = (self.n - 1).bit_length()  # n_pad = 2**k, the next power of two
        # b = 2**kb: m.bit_length() // 2 is log2(m) / 2 rounded, and the second term log2 of
        # m / _SRHT_BLOCK rounded up
        kb = min(k, max(self.m.bit_length() // 2, (-(-self.m // _SRHT_BLOCK) - 1).bit_length()))
        self.n_pad, self.a = 1 << k, 1 << (k - kb)
        self.signs = _frozen(2.0 * rng.integers(0, 2, size=self.n_pad) - 1.0)
        self.indices = _frozen(rng.integers(0, self.n_pad, size=self.m))
        passes = max(1, -(-kb // _RADIX_BITS))  # H_1 = [[1]] when b = 1
        radices = [1 << (kb // passes + (i < kb % passes)) for i in range(passes)]
        self.b_factors = tuple(_frozen(hadamard(r, dtype=np.float64)) for r in radices)
        # the sampled rows grouped by their block h, in draw order within each group
        self.order = _frozen(np.argsort(self.indices // self.a, kind="stable"))
        high, low = np.divmod(self.indices[self.order], self.a)
        cuts = [0, *(np.flatnonzero(np.diff(high)) + 1).tolist(), self.m]
        self.groups = tuple(zip(high[cuts[:-1]].tolist(), cuts, cuts[1:]))
        self.a_rows = (_frozen(_hadamard_rows(low, self.a)) if self.a > 1
                       else np.broadcast_to(1.0, (self.m, 1)))

    def _apply(self, M):
        n, c = M.shape
        n_pad, a = self.n_pad, self.a
        *passes, H_b = self.b_factors
        # a lone factor computes W = H_b z in quarters of its rows (halves when b = 2), each
        # into a buffer of that size that its groups read before the next one overwrites it
        step = len(H_b) if passes else max(1, len(H_b) // 4)
        out = np.empty((self.m, c))
        width = min(c, _SRHT_BLOCK)
        rows = np.empty((self.m, width))  # one block of the sampled rows, in group order
        buffers = np.empty(n_pad * width), np.empty(n_pad * width * step // len(H_b))
        for c0 in range(0, c, _SRHT_BLOCK):
            w = min(_SRHT_BLOCK, c - c0)
            z, spare = (buf[: buf.size // width * w] for buf in buffers)
            # einsum flips the signs with no ufunc buffers, which would add to the peak
            np.einsum("ij,i->ij", M[:, c0:c0 + w], self.signs[:n], out=z.reshape(n_pad, w)[:n])
            z[n * w:] = 0.0
            # W = (H_b kron I_a) z, one factor of H_b per pass, between the two buffers
            lead = 1
            for H in passes:
                shape = (lead, len(H), -1)
                np.matmul(H, z.reshape(shape), out=spare.reshape(shape))
                z, spare = spare, z
                lead *= len(H)
            for h0 in range(0, len(H_b), step):
                np.matmul(H_b[h0:h0 + step], z.reshape(lead, len(H_b), -1),
                          out=spare.reshape(lead, step, -1))
                W = spare.reshape(-1, a, w)  # blocks h0 <= h < h0 + len(W) of H_b z
                for h, start, stop in self.groups:
                    if h0 <= h < h0 + len(W):
                        np.matmul(self.a_rows[start:stop], W[h - h0], out=rows[start:stop, :w])
            out[self.order, c0:c0 + w] = rows[:, :w]
        # sqrt(n_pad/m) * (H/sqrt(n_pad)) collapses to 1/sqrt(m) on the raw transform
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
        if not np.all(p > 0):  # NaN fails the comparison, here and below
            raise InvalidWeightsError("sampling probabilities must be strictly positive")
        if not abs(p.sum() - 1.0) <= _WEIGHT_SUM_TOL:
            raise InvalidWeightsError(f"probabilities sum to {p.sum()}, not 1")
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
# families whose `apply` takes prefixes: one draw serves every smaller sketch size
NESTED_FAMILIES = ("rademacher",)


def make_operator(spec: SketchSpec, n: int, weights=None) -> SketchOperator:
    """Realize a sketch operator for inputs of length n.

    Conventions: Gaussian and Rademacher entries are scaled by 1/sqrt(m).  Gaussian holds
    its m x n matrix; Rademacher holds only its packed sign bytes, ceil(m/64) 64 rows of
    ceil(n/8), and when applied multiplies 64 rows of +-1 at a time into the input, unpacking
    1024 input columns at a time into one 64 x 1024 float block, then scales the product's
    first m rows.  Its first m' rows are the sketch of m' rows from the same seed.  Sampling
    families draw m rows i.i.d. with replacement from probabilities p and scale each
    selected row by 1/sqrt(m * p_i).  SRHT zero-pads inputs to the next power of two n_pad
    and applies sign flips, the normalized Hadamard transform, and row sampling with an
    overall scale sqrt(n_pad / m); it forms only the sampled rows, by H = H_b kron H_a with
    b near sqrt(m), from m x a stored rows of H_a that fit in one n_pad x 32 buffer, 32
    columns at a time in one n_pad x 32 buffer and a second of a quarter of that size while
    4 <= b <= 64 (m from 8 to 2048, where n_pad >= b; half at b = 2, a full one
    otherwise).  CountSketch gives each of the n input coordinates one uniformly random
    output row and a random sign; it is stored as an m x n CSC matrix with one entry per
    column, and its product sums each output row's inputs in input order.

    Row-norm and leverage sampling take their probabilities from
    `weights`, as returned by `sampling_weights(family, A)`.  They are
    checked on every call: strictly positive and summing to one within
    1e-12.
    """
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    return _KERNELS[spec.family](spec, n, weights)


def apply(op: SketchOperator, M, prefixes=None):
    """Compute S @ M for an n-vector or n-by-c matrix M.

    With `prefixes`, sketch sizes m <= op.m of a nested family, return {m: S_m @ M}, S_m the
    sketch of m rows from op's seed: bitwise `apply(make_operator(SketchSpec(op.family, m,
    op.spec.seed), op.n), M)`, all from one product.
    """
    M = np.asarray(M, dtype=np.float64)
    vector = M.ndim == 1
    if vector:
        M = M[:, None]
    if M.ndim != 2 or M.shape[0] != op.n:
        raise DimensionMismatchError(f"expected {op.n} rows, got shape {M.shape}")
    check_addressable((op.m, M.shape[1]), "a sketch's output")
    if prefixes is None:
        out = op._apply(M)
        return out[:, 0] if vector else out
    if (op.family not in NESTED_FAMILIES or not prefixes
            or not all(1 <= m <= op.m for m in prefixes)):
        raise InvalidInputError(f"a {op.family} sketch of {op.m} rows has no prefixes {prefixes}")
    return {m: out[:, 0] if vector else out for m, out in op._products(M, prefixes).items()}


def as_matrix(op: SketchOperator) -> np.ndarray:
    """Materialize the m-by-n matrix of the operator."""
    return apply(op, np.eye(op.n))
