import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from sketchls import (
    FAMILIES,
    SketchSpec,
    SyntheticSpec,
    apply,
    as_matrix,
    derive_seed,
    gen_gaussian_data,
    leverage_scores,
    make_operator,
    sampling_weights,
)
from sketchls.core import certified_inverse, qr_factor
from sketchls.errors import DimensionMismatchError, InvalidInputError, InvalidWeightsError


def _aux(n, d=8, seed=0):
    return np.random.default_rng(seed).standard_normal((n, d))


def _op(family, n=32, m=16, seed=5):
    return make_operator(SketchSpec(family, m, seed), n, weights=sampling_weights(family, _aux(n)))


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(1, "gaussian", 60, 3) == derive_seed(1, "gaussian", 60, 3)

    def test_context_sensitivity(self):
        seeds = {
            derive_seed(1, "gaussian", 60, 3),
            derive_seed(2, "gaussian", 60, 3),
            derive_seed(1, "srht", 60, 3),
            derive_seed(1, "gaussian", 61, 3),
            derive_seed(1, "gaussian", 60, 4),
        }
        assert len(seeds) == 5

    def test_range(self):
        s = derive_seed(2**64 - 1, "x", 2**63)
        assert 0 <= s < 2**64

    # Every sweep seed is derived this way, so a change to the mixing would
    # silently change every results CSV; these values pin it.
    @pytest.mark.parametrize("master, parts, expected", [
        (0, (), 0),
        (0, (0,), 16294208416658607535),
        (7, ("datagen",), 5254741270293065391),
        (2**64 - 1, (3, "aux"), 15224718436466474437),
        (12345, (2**63 + 5, "gaussian", 300, 17), 4383692743615579813),
        (99, ("σκέτς", -1), 1440004853451197698),
        (5, ("leverage", 40, 3, "aux"), 12172499721567368509),
    ])
    def test_values_are_stable(self, master, parts, expected):
        assert derive_seed(master, *parts) == expected


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            SketchSpec("fourier", 4, 0)

    def test_bad_m(self):
        with pytest.raises(ValueError):
            SketchSpec("gaussian", 0, 0)

    @pytest.mark.parametrize("m, seed", [(0, 0), (4, -1), (4, 2**64)])
    def test_errors_are_typed(self, m, seed):
        with pytest.raises(InvalidInputError):
            SketchSpec("gaussian", m, seed)


class TestDenseRealization:
    # n = 1023, 1024, 1025 and 2049 end before, at, just after and inside a block of
    # unpacked Rademacher columns
    @pytest.mark.parametrize("m, n, seed", [(1, 1, 0), (3, 17, 5), (16, 64, 2**64 - 1),
                                            (300, 257, 41), (63, 100, 6), (64, 9, 7),
                                            (65, 4097, 8), (130, 4097, 9), (7, 1023, 10),
                                            (7, 1024, 11), (7, 1025, 12), (5, 2049, 13)])
    def test_bitwise_equal_to_the_reference_formulas(self, m, n, seed):
        rng = np.random.default_rng(seed)
        gaussian = rng.standard_normal((m, n)) / math.sqrt(m)
        rng = np.random.default_rng(seed)
        packed = rng.integers(0, 256, size=(m, math.ceil(n / 8)), dtype=np.uint8)
        bits = np.unpackbits(packed, axis=1, count=n)
        rademacher = (2.0 * bits - 1.0) / math.sqrt(m)
        dense = make_operator(SketchSpec("gaussian", m, seed), n).dense
        assert dense.dtype == np.float64
        assert dense.tobytes() == gaussian.tobytes()
        # Rademacher keeps only its packed signs; each column of I has one nonzero, so
        # as_matrix reads every sign exactly
        S = as_matrix(make_operator(SketchSpec("rademacher", m, seed), n))
        assert S.dtype == np.float64
        assert S.tobytes() == rademacher.tobytes()
        assert np.all(np.abs(S) == 1.0 / math.sqrt(m))

    @pytest.mark.parametrize("n", [1, 9, 1023, 1024, 1025, 2049])
    def test_rademacher_apply_is_its_matrix_product(self, n):
        # the sum over n runs one block of columns at a time, so it matches the product
        # with the matrix within rtol 1e-13 and atol 1e-13 * max|M| * sqrt(n)
        op = make_operator(SketchSpec("rademacher", 40, n), n)
        S = as_matrix(op)
        for cols in (None, 3, 101):
            M = np.random.default_rng(n).standard_normal(n if cols is None else (n, cols))
            # C order, F order, and every other column (entry, for a vector) of a
            # twice-wider array
            for laid_out in (M, np.asfortranarray(M), np.repeat(M, 2, axis=-1)[..., ::2]):
                out = apply(op, laid_out)
                assert out.shape == ((40,) if cols is None else (40, cols))
                atol = 1e-13 * np.max(np.abs(M)) * math.sqrt(n)
                np.testing.assert_allclose(out, S @ laid_out, rtol=1e-13, atol=atol)

    # n = 1001 and 4097 are multiples of neither 8 nor 1024
    @pytest.mark.parametrize("n", [1001, 4097])
    def test_rademacher_prefixes_are_the_smaller_sketches_bitwise(self, n):
        # every m reads the same 64-row panel products, so no row's bits depend on the grid
        m_values = (1, 63, 64, 65, 150, 200, 300)
        M = np.random.default_rng(n).standard_normal((n, 7))
        op = make_operator(SketchSpec("rademacher", 300, 15), n)
        assert op.packed.shape == (320, math.ceil(n / 8))
        products = apply(op, M, prefixes=m_values)
        assert list(products) == list(m_values)
        for m in m_values:
            alone = make_operator(SketchSpec("rademacher", m, 15), n)
            assert np.array_equal(alone.packed, op.packed[:len(alone.packed)])
            assert products[m].shape == (m, 7)
            assert products[m].tobytes() == apply(alone, M).tobytes()
        v = M[:, 2]
        assert apply(op, v, prefixes=(65,))[65].tobytes() == apply(
            make_operator(SketchSpec("rademacher", 65, 15), n), v).tobytes()

    @pytest.mark.parametrize("family, prefixes", [
        ("gaussian", (8,)), ("rademacher", (0, 8)), ("rademacher", (17,)), ("rademacher", ()),
    ])
    def test_prefixes_only_below_a_nested_operator(self, family, prefixes):
        with pytest.raises(InvalidInputError, match="has no prefixes"):
            apply(_op(family), np.ones((32, 2)), prefixes=prefixes)

    def test_rademacher_holds_no_m_by_n_float_matrix(self):
        # the packed signs (320 n / 8 bytes), one 64 x 1024 float block, the 320 x c
        # product and the m x c output: about 1.7 MiB, where the m x n float matrix alone is
        # 8 m n bytes
        m, n, c = 300, 16384, 101
        M = np.random.default_rng(14).standard_normal((n, c))
        tracemalloc.start()
        try:
            apply(make_operator(SketchSpec("rademacher", m, 14), n), M)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * n


class TestOperators:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_zero_maps_to_zero(self, family):
        op = _op(family)
        out = apply(op, np.zeros((32, 3)))
        assert np.all(out == 0.0) and out.shape == (16, 3)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_apply_matches_materialized_matrix(self, family):
        op = _op(family)
        M = np.random.default_rng(1).standard_normal((32, 5))
        np.testing.assert_allclose(apply(op, M), as_matrix(op) @ M, atol=1e-10)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_linearity(self, family):
        rng = np.random.default_rng(2)
        op = _op(family)
        M1 = rng.standard_normal((32, 4))
        M2 = rng.standard_normal((32, 4))
        lhs = apply(op, M1 + M2)
        rhs = apply(op, M1) + apply(op, M2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_deterministic_apply(self, family):
        op = _op(family)
        M = np.eye(32)
        assert np.array_equal(apply(op, M), apply(op, M))
        op2 = _op(family)
        assert np.array_equal(as_matrix(op), as_matrix(op2))

    def test_vector_apply(self):
        op = _op("gaussian")
        v = np.random.default_rng(3).standard_normal(32)
        assert apply(op, v).shape == (16,)
        np.testing.assert_allclose(apply(op, v), apply(op, v[:, None])[:, 0])

    def test_dimension_mismatch(self):
        op = _op("gaussian")
        with pytest.raises(DimensionMismatchError):
            apply(op, np.ones((31, 2)))

    def test_uniform_scale_is_sqrt_n_over_m(self):
        op = make_operator(SketchSpec("uniform", 8, 0), 32)
        np.testing.assert_allclose(op.row_scale, math.sqrt(32 / 8))
        # n = m: selection rows carry unit scale
        op_eq = make_operator(SketchSpec("uniform", 32, 0), 32)
        np.testing.assert_allclose(op_eq.row_scale, 1.0)
        S = as_matrix(op_eq)
        assert np.all(np.sum(S != 0, axis=1) == 1)

    def test_countsketch_one_signed_nonzero_per_column(self):
        for seed in range(5):
            S = as_matrix(make_operator(SketchSpec("countsketch", 16, seed), 32))
            assert np.all(np.sum(S != 0, axis=0) == 1)
            nonzero = S[S != 0]
            assert np.all(np.abs(nonzero) == 1.0)

    def test_srht_sign_hadamard_composition_is_orthogonal(self):
        # the frozen full transform of the signed input, over sqrt(n), is an isometry,
        # and each row the kernel keeps is that transform's row at its index
        n = 32
        op = make_operator(SketchSpec("srht", n, 9), n)
        x = np.random.default_rng(4).standard_normal((n, 1))
        z = _reference_fwht(x * op.signs[:, None]) / math.sqrt(n)
        assert np.linalg.norm(z) == pytest.approx(np.linalg.norm(x), rel=1e-12)
        np.testing.assert_allclose(apply(op, x), z[op.indices] * math.sqrt(n / op.m),
                                   rtol=1e-13, atol=1e-13)
        # so the kept rows are orthonormal up to the scale, where their indices differ
        rows = as_matrix(op) * math.sqrt(op.m / n)
        np.testing.assert_allclose(rows @ rows.T, op.indices[:, None] == op.indices,
                                   rtol=0, atol=1e-13)

    def test_srht_scratch_is_one_and_a_half_buffers(self):
        # n_pad = 4096 is one H_b factor, so W = H_b z takes two halves of its rows into
        # a half-size buffer: 1.5 MiB of n_pad x 32 scratch plus two m x c outputs
        n, m, c = 4000, 300, 32
        op = make_operator(SketchSpec("srht", m, 15), n)
        M = np.random.default_rng(15).standard_normal((n, c))
        tracemalloc.start()
        try:
            apply(op, M)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.69 * 2**20

    def test_srht_scratch_is_one_and_a_quarter_buffers(self):
        # n_pad = 4096 and m = 300 give b = 16, one H_b factor, so W = H_b z takes quarters
        # of its rows into a quarter-size buffer: 1.25 MiB of n_pad x 32 scratch, one m x c
        # output and one m x 32 block of rows
        n, m, c = 4000, 300, 32
        op = make_operator(SketchSpec("srht", m, 15), n)
        M = np.random.default_rng(15).standard_normal((n, c))
        tracemalloc.start()
        try:
            apply(op, M)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2**20 + 2 * m * c * 8 + 32 * 1024

    def test_srht_pads_to_power_of_two(self):
        op = _op("srht", n=20, m=8)
        assert op.n_pad == 32
        M = np.random.default_rng(5).standard_normal((20, 2))
        np.testing.assert_allclose(apply(op, M), as_matrix(op) @ M, atol=1e-10)


def _reference_fwht(a):
    # the full butterfly transform H @ a, stack-based as before the split product, kept frozen
    n, c = a.shape
    h = 1
    while h < n:
        a = a.reshape(n // (2 * h), 2, h, c)
        a = np.stack((a[:, 0] + a[:, 1], a[:, 0] - a[:, 1]), axis=1)
        a = a.reshape(n, c)
        h *= 2
    return a


def _reference_apply(op, M):
    # the CountSketch product that preceded the CSC kernel, kept frozen
    M = np.asarray(M, dtype=np.float64)
    vector = M.ndim == 1
    if vector:
        M = M[:, None]
    out = np.zeros((op.m, M.shape[1]))
    np.add.at(out, op.buckets, M * op.signs[:, None])
    return out[:, 0] if vector else out


def _hadamard_rows(rows, size):
    # rows of the Sylvester-ordered Hadamard matrix, H[i, j] = (-1) ** popcount(i & j),
    # without forming all size x size entries
    bits = np.asarray(rows)[:, None] & np.arange(size)
    parity = np.zeros(bits.shape, dtype=np.int64)
    while bits.any():
        parity ^= bits & 1
        bits >>= 1
    return 1.0 - 2.0 * parity


def _explicit_srht(op):
    # the SRHT matrix from its ingredients: sampled Hadamard rows, signs and 1/sqrt(m)
    return _hadamard_rows(op.indices, op.n_pad)[:, : op.n] * op.signs[: op.n] / math.sqrt(op.m)


_STRUCTURED_N = (1, 2, 3, 16, 20, 64, 100, 257, 1024)


class TestStructuredKernels:
    @pytest.mark.parametrize("n, family", [(n, f) for f in ("srht", "countsketch")
                                           for n in _STRUCTURED_N]
                             + [(3000, "srht"), (4000, "srht")])
    def test_bitwise_equal_to_the_frozen_reference(self, family, n):
        # CountSketch is bitwise its frozen np.add.at product.  SRHT's GEMMs sum in
        # another order than a butterfly, so it matches its explicit matrix within
        # rtol 1e-13 and atol 1e-13 * max|M| * sqrt(n_pad)
        for m in (1, 7, 40, 300):
            for seed in (0, 5, 2**64 - 1):
                op = make_operator(SketchSpec(family, m, seed), n)
                S = _explicit_srht(op) if family == "srht" else None
                for cols in (None, 3, 101) if n in _STRUCTURED_N else (101, 90):
                    shape = n if cols is None else (n, cols)
                    M = np.random.default_rng(seed % 1000 + n).standard_normal(shape)
                    # C order, F order, and every other column (entry, for a vector)
                    # of a twice-wider array
                    for laid_out in (M, np.asfortranarray(M), np.repeat(M, 2, axis=-1)[..., ::2]):
                        out = apply(op, laid_out)
                        assert out.shape == ((m,) if cols is None else (m, cols))
                        if S is None:
                            assert np.array_equal(out, _reference_apply(op, laid_out))
                        else:
                            atol = 1e-13 * np.max(np.abs(M)) * math.sqrt(op.n_pad)
                            np.testing.assert_allclose(out, S @ laid_out, rtol=1e-13, atol=atol)

    @pytest.mark.parametrize("n, m, seed", [(1, 3, 0), (20, 8, 1), (64, 64, 2), (100, 300, 3)])
    def test_srht_matrix_from_its_ingredients(self, n, m, seed):
        op = make_operator(SketchSpec("srht", m, seed), n)
        explicit = hadamard(op.n_pad)[op.indices][:, :n] * op.signs[:n] / math.sqrt(m)
        assert np.array_equal(as_matrix(op), explicit)

    # b = n_pad / a for m on both sides of each step of the split: the power of two nearest
    # sqrt(m), raised to m / 32 past m = 1024 and capped at n_pad
    @pytest.mark.parametrize("n, splits", [
        (1, {1: 1, 2: 1, 3: 1, 150: 1, 5000: 1}),
        (2, {1: 1, 2: 2, 3: 2, 150: 2, 5000: 2}),
        (3000, {1: 1, 2: 2, 3: 2, 7: 2, 8: 4, 31: 4, 32: 8, 150: 16, 1000: 32, 1025: 64,
                5000: 256}),
        (9000, {1: 1, 2: 2, 3: 2, 7: 2, 8: 4, 150: 16, 1000: 32, 1025: 64, 5000: 256})])
    def test_srht_splits_at_sqrt_m(self, n, splits):
        for m, b in splits.items():
            op = make_operator(SketchSpec("srht", m, 1), n)
            assert op.n_pad // op.a == b
            assert math.prod(len(H) for H in op.b_factors) == b

    @pytest.mark.parametrize("n", [1, 2, 3000, 9000])
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 150, 1000, 5000])
    def test_srht_stored_rows_fit_in_one_block_buffer(self, n, m):
        # the rows of H_a that the sampled rows read: at most one n_pad x 32 buffer of float64
        op = make_operator(SketchSpec("srht", m, 2), n)
        rows = op.a_rows
        spanned = rows.itemsize + sum((k - 1) * abs(step) for k, step in zip(rows.shape,
                                                                             rows.strides))
        assert spanned <= op.n_pad * 32 * 8
        low = op.indices[op.order] % op.a
        assert np.array_equal(np.broadcast_to(rows, (m, op.a)), _hadamard_rows(low, op.a))

    @pytest.mark.parametrize("n", [1, 2, 9000])
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 150, 1000, 5000])
    def test_srht_rows_are_the_transform_at_each_split(self, n, m):
        # each output row is row indices[i] of H applied to the signed, padded input, for
        # n_pad <= 2 and for n_pad = 2**14, where b = 256 takes two H_b passes
        op = make_operator(SketchSpec("srht", m, 3), n)
        M = np.random.default_rng(m + n).standard_normal((n, 40))
        z = np.zeros((op.n_pad, 40))
        z[:n] = M * op.signs[:n, None]
        expected = _reference_fwht(z)[op.indices] / math.sqrt(m)
        atol = 1e-13 * np.max(np.abs(M)) * math.sqrt(op.n_pad)
        np.testing.assert_allclose(apply(op, M), expected, rtol=1e-13, atol=atol)

    @pytest.mark.parametrize("n, m, seed", [(1, 3, 0), (20, 8, 1), (64, 64, 2), (100, 300, 3)])
    def test_countsketch_matrix_from_its_ingredients(self, n, m, seed):
        op = make_operator(SketchSpec("countsketch", m, seed), n)
        explicit = np.zeros((m, n))
        explicit[op.buckets, np.arange(n)] = op.signs
        assert np.array_equal(as_matrix(op), explicit)

    def test_operator_state_is_read_only(self):
        op = make_operator(SketchSpec("countsketch", 4, 0), 32)
        matrix = op.matrix
        for array in (op.buckets, op.signs, matrix.data, matrix.indices, matrix.indptr):
            with pytest.raises(ValueError):
                array[0] = 0


@st.composite
def _operator_cases(draw):
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(1, 70))
    m = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**64 - 1))
    cols = draw(st.one_of(st.none(), st.integers(1, 5)))
    return family, n, m, seed, cols


def _check_linear_map(op, S, rng, cols):
    shape = op.n if cols is None else (op.n, cols)
    M1, M2 = rng.standard_normal(shape), rng.standard_normal(shape)
    out = apply(op, M1)
    assert out.shape == ((op.m,) if cols is None else (op.m, cols))
    scale = np.max(np.abs(S)) * np.max(np.abs(M1)) * op.n
    np.testing.assert_allclose(out, S @ M1, rtol=1e-12, atol=1e-12 * scale)
    lhs = apply(op, 2.5 * M1 - M2)
    rhs = 2.5 * apply(op, M1) - apply(op, M2)
    scale = np.max(np.abs(S)) * (2.5 * np.max(np.abs(M1)) + np.max(np.abs(M2))) * op.n
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * scale)


@settings(max_examples=150, deadline=None)
@given(_operator_cases())
def test_apply_is_the_linear_map_of_its_matrix(case):
    family, n, m, seed, cols = case
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, min(n, 3))) if family in ("rownorm", "leverage") else None
    op = make_operator(SketchSpec(family, m, seed), n, weights=sampling_weights(family, A))
    S = as_matrix(op)
    assert S.shape == (m, n)
    _check_linear_map(op, S, rng, cols)


# n past 4096 makes H_a larger than H_b = H_64; past 8192, H_b takes two GEMM passes
@settings(max_examples=25, deadline=None)
@example(9000, 40, 5, 101)
@example(40000, 7, 1, 3)
@given(st.integers(1, 20000), st.integers(1, 40), st.integers(0, 2**64 - 1),
       st.one_of(st.none(), st.integers(1, 101)))
def test_srht_apply_is_the_linear_map_of_its_explicit_matrix(n, m, seed, cols):
    op = make_operator(SketchSpec("srht", m, seed), n)
    _check_linear_map(op, _explicit_srht(op), np.random.default_rng(seed), cols)


class TestSamplingWeights:
    def test_leverage_scores_sum_to_d(self):
        A = np.random.default_rng(6).standard_normal((64, 12))
        assert leverage_scores(A).sum() == pytest.approx(12.0, abs=1e-9)
        # the squared rows of A R^-1, R from qr_factor: bitwise, for one row block
        B = A @ certified_inverse(qr_factor(A))
        assert leverage_scores(A).tobytes() == np.sum(B * B, axis=1).tobytes()
        # and the squared rows of the Householder Q within rounding (cond(A) is about 3)
        Q, _ = np.linalg.qr(A)
        np.testing.assert_allclose(leverage_scores(A), np.sum(Q * Q, axis=1), rtol=1e-13)

    @pytest.mark.parametrize("log_kappa", [0, 2, 6])
    def test_leverage_scores_over_row_blocks_match_the_householder_q(self, qr_rows, log_kappa):
        # n = 3000 spans three row blocks; at kappa = 1e6 R^-1 is not certified and Q is formed
        rng = np.random.default_rng(9)
        U, _ = np.linalg.qr(rng.standard_normal((3000, 20)))
        V, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        A = (U * np.geomspace(1.0, 10.0 ** -log_kappa, 20)) @ V.T
        Q, _ = np.linalg.qr(A)
        qr_rows.clear()
        scores = leverage_scores(A)
        if log_kappa < 6:
            assert qr_rows == []
            np.testing.assert_allclose(scores, np.sum(Q * Q, axis=1), rtol=1e-12)
        else:
            assert qr_rows == [3000, 3000]  # qr_factor's R, then Q
            assert scores.tobytes() == np.sum(Q * Q, axis=1).tobytes()

    def test_rank_deficient_source_rejected(self):
        # a QR's scores sum to 3, those of its rank-2 column space to 2; a row differs by 0.72
        A = np.random.default_rng(10).standard_normal((8, 3))
        A[:, 2] = A[:, 0]
        with pytest.raises(InvalidWeightsError, match=r"^A is rank deficient: s_min/s_max = "):
            sampling_weights("leverage", A)

    def test_wide_source_keeps_the_householder_scores(self, qr_rows):
        # fewer rows than columns: no rank rule and one QR, which forms Q; every score is 1
        A = np.random.default_rng(11).standard_normal((2, 5))
        np.testing.assert_allclose(leverage_scores(A), 1.0, rtol=1e-15)
        assert qr_rows == [2]

    def test_rownorm_requires_aux(self):
        with pytest.raises(InvalidWeightsError):
            make_operator(SketchSpec("rownorm", 4, 0), 16)

    def test_zero_row_rejected(self):
        A = np.random.default_rng(7).standard_normal((16, 4))
        A[3] = 0.0
        with pytest.raises(InvalidWeightsError):
            make_operator(SketchSpec("rownorm", 4, 0), 16, weights=sampling_weights("rownorm", A))

    # one check of max|A| for both families, with one message; the QR of a zero A
    # has unit columns, so leverage scores alone would give it probabilities
    @pytest.mark.parametrize("family, rows, fill", [
        ("rownorm", slice(None), 0.0), ("rownorm", slice(3, 5), np.nan),
        ("rownorm", slice(3, 5), np.inf), ("leverage", slice(3, 5), np.nan),
        ("leverage", slice(3, 5), -np.inf), ("leverage", slice(None), 0.0),
        ("leverage", slice(3, 5), np.inf), ("rownorm", slice(3, 5), -np.inf),
    ])
    def test_zero_or_non_finite_source_rejected(self, family, rows, fill):
        A = np.ones((16, 4))
        A[rows] = fill
        with pytest.raises(InvalidWeightsError,
                           match=rf"^max\|A\| is {abs(fill)}: A must be finite, nonzero$"):
            sampling_weights(family, A)

    def test_aux_row_count_checked(self):
        with pytest.raises(DimensionMismatchError):
            make_operator(SketchSpec("leverage", 4, 0), 16,
                          weights=sampling_weights("leverage", _aux(8, 2)))


# rownorm weights are finite and sum to one at every finite scale, where the plain
# squares overflow (past about 1e154) or all underflow (below about 1e-162)
@settings(max_examples=60, deadline=None)
@example(20, 3, 0, 300.0)
@example(20, 3, 0, -300.0)
@given(st.integers(1, 40), st.integers(1, 6), st.integers(0, 2**64 - 1),
       st.floats(-300.0, 300.0))
def test_rownorm_weights_are_total_at_every_scale(n, d, seed, log10_scale):
    A = np.random.default_rng(seed).standard_normal((n, d)) * 10.0 ** log10_scale
    p = sampling_weights("rownorm", A)
    assert np.all(np.isfinite(p)) and abs(p.sum() - 1.0) <= 1e-12
    assert p[np.unravel_index(np.argmax(np.abs(A)), A.shape)[0]] > 0


@pytest.mark.parametrize("seed", range(4))
def test_rownorm_weights_match_plain_squares_bitwise(seed):
    # the power-of-two scale cancels exactly wherever the plain squares are finite
    A = gen_gaussian_data(SyntheticSpec(n=600, d=40, rho=1.0, seed=seed))[0].A
    w = np.sum(A * A, axis=1)
    assert sampling_weights("rownorm", A).tobytes() == (w / w.sum()).tobytes()


class TestGramIdentity:
    # E[S^T S] = I, checked with the 5/sqrt(R) envelope at a fixed test seed
    @pytest.mark.parametrize("family", FAMILIES)
    def test_mean_gram_close_to_identity(self, family):
        reps = 2000
        n, m = 32, 16
        weights = sampling_weights(family, _aux(n))
        acc = np.zeros((n, n))
        for r in range(reps):
            op = make_operator(SketchSpec(family, m, derive_seed(1, family, r)), n,
                               weights=weights)
            S = as_matrix(op)
            acc += S.T @ S
        dev = np.max(np.abs(acc / reps - np.eye(n)))
        assert dev <= 5 / math.sqrt(reps)


class TestSubspaceEmbedding:
    def test_gaussian_preserves_column_space_norms(self):
        rng = np.random.default_rng(8)
        n, d = 128, 8
        A = rng.standard_normal((n, d))
        op = make_operator(SketchSpec("gaussian", 8 * d, 123), n)
        SA = apply(op, A)
        for _ in range(100):
            x = rng.standard_normal(d)
            ratio = np.sum((SA @ x) ** 2) / np.sum((A @ x) ** 2)
            assert 0.5 <= ratio <= 1.5


class TestGivenWeights:
    def test_data_free_families_have_no_weights(self):
        for family in ("gaussian", "srht", "countsketch", "uniform"):
            assert sampling_weights(family, _aux(8)) is None

    @pytest.mark.parametrize("weights", [
        np.r_[0.0, np.full(7, 1 / 7)],      # a zero probability
        np.full(8, 0.2),                    # sums to 1.6
        np.full(8, np.nan),
        np.r_[np.nan, np.full(7, 1 / 7)],
        np.r_[np.inf, np.full(7, 1 / 7)],
    ])
    def test_given_weights_are_validated(self, weights):
        with pytest.raises(InvalidWeightsError):
            make_operator(SketchSpec("leverage", 4, 0), 8, weights=weights)

    def test_weight_sum_message_prints_a_plain_number(self):
        with pytest.raises(InvalidWeightsError, match=r"^probabilities sum to 1\.2, not 1$"):
            make_operator(SketchSpec("rownorm", 3, 1), 4, weights=np.full(4, 0.3))

    def test_given_weights_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            make_operator(SketchSpec("rownorm", 4, 0), 8, weights=np.full(4, 0.25))
