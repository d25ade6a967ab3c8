import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from sketchls import (
    FAMILIES,
    SketchSpec,
    apply,
    as_matrix,
    derive_seed,
    leverage_scores,
    make_operator,
    sampling_weights,
)
from sketchls.errors import DimensionMismatchError, InvalidInputError, InvalidWeightsError
from sketchls.sketches import _fwht


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
    @pytest.mark.parametrize("m, n, seed", [(1, 1, 0), (3, 17, 5), (16, 64, 2**64 - 1),
                                            (300, 257, 41)])
    def test_bitwise_equal_to_the_reference_formulas(self, m, n, seed):
        rng = np.random.default_rng(seed)
        gaussian = rng.standard_normal((m, n)) / math.sqrt(m)
        rng = np.random.default_rng(seed)
        rademacher = (2.0 * rng.integers(0, 2, size=(m, n)) - 1.0) / math.sqrt(m)
        for family, reference in (("gaussian", gaussian), ("rademacher", rademacher)):
            dense = make_operator(SketchSpec(family, m, seed), n).dense
            assert dense.dtype == np.float64
            assert dense.tobytes() == reference.tobytes()


class TestFwht:
    @pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
    def test_matches_dense_hadamard(self, n):
        X = np.random.default_rng(n).standard_normal((n, 3))
        np.testing.assert_allclose(_fwht(X.copy()), hadamard(n) @ X, atol=1e-9)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            _fwht(np.ones((6, 1)))


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
        # with every padded row kept and m = n_pad the map is an isometry
        n = 32
        op = make_operator(SketchSpec("srht", n, 9), n)
        signs = op.signs
        x = np.random.default_rng(4).standard_normal((n, 1))
        z = _fwht(x * signs[:, None]) / math.sqrt(n)
        assert np.linalg.norm(z) == pytest.approx(np.linalg.norm(x), rel=1e-12)

    def test_srht_pads_to_power_of_two(self):
        op = _op("srht", n=20, m=8)
        assert op.n_pad == 32
        M = np.random.default_rng(5).standard_normal((20, 2))
        np.testing.assert_allclose(apply(op, M), as_matrix(op) @ M, atol=1e-10)


def _reference_fwht(a):
    # the stack-based transform that preceded the in-place kernel, kept frozen
    n, c = a.shape
    h = 1
    while h < n:
        a = a.reshape(n // (2 * h), 2, h, c)
        a = np.stack((a[:, 0] + a[:, 1], a[:, 0] - a[:, 1]), axis=1)
        a = a.reshape(n, c)
        h *= 2
    return a


def _reference_apply(op, M):
    # the SRHT and CountSketch products that preceded the in-place kernels, kept frozen
    M = np.asarray(M, dtype=np.float64)
    vector = M.ndim == 1
    if vector:
        M = M[:, None]
    if op.family == "srht":
        z = np.zeros((op.n_pad, M.shape[1]))
        z[: op.n] = M
        z *= op.signs[:, None]
        out = _reference_fwht(z)[op.indices] / math.sqrt(op.m)
    else:
        out = np.zeros((op.m, M.shape[1]))
        np.add.at(out, op.buckets, M * op.signs[:, None])
    return out[:, 0] if vector else out


class TestStructuredKernels:
    @pytest.mark.parametrize("family", ["srht", "countsketch"])
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 20, 64, 100, 257, 1024])
    def test_bitwise_equal_to_the_frozen_reference(self, family, n):
        for m in (1, 7, 40, 300):
            for cols in (None, 3, 101):
                for seed in (0, 5, 2**64 - 1):
                    op = make_operator(SketchSpec(family, m, seed), n)
                    shape = n if cols is None else (n, cols)
                    M = np.random.default_rng(seed % 1000 + n).standard_normal(shape)
                    out = apply(op, M)
                    assert out.shape == ((m,) if cols is None else (m, cols))
                    assert np.array_equal(out, _reference_apply(op, M))

    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_fwht_in_place_matches_reference(self, n):
        X = np.random.default_rng(n).standard_normal((n, 4))
        reference = _reference_fwht(X.copy())
        assert _fwht(X) is X
        assert np.array_equal(X, reference)

    def test_fwht_rejects_non_contiguous_input(self):
        with pytest.raises(ValueError):
            _fwht(np.ones((8, 2))[:, :1])

    @pytest.mark.parametrize("n, m, seed", [(1, 3, 0), (20, 8, 1), (64, 64, 2), (100, 300, 3)])
    def test_srht_matrix_from_its_ingredients(self, n, m, seed):
        op = make_operator(SketchSpec("srht", m, seed), n)
        explicit = hadamard(op.n_pad)[op.indices][:, :n] * op.signs[:n] / math.sqrt(m)
        assert np.array_equal(as_matrix(op), explicit)

    @pytest.mark.parametrize("n, m, seed", [(1, 3, 0), (20, 8, 1), (64, 64, 2), (100, 300, 3)])
    def test_countsketch_matrix_from_its_ingredients(self, n, m, seed):
        op = make_operator(SketchSpec("countsketch", m, seed), n)
        explicit = np.zeros((m, n))
        explicit[op.buckets, np.arange(n)] = op.signs
        assert np.array_equal(as_matrix(op), explicit)

    @pytest.mark.parametrize("n, m", [(1, 1), (50, 1), (50, 7), (3000, 150)])
    def test_countsketch_rounds_partition_the_input(self, n, m):
        op = make_operator(SketchSpec("countsketch", m, 11), n)
        assert np.array_equal(np.sort(np.concatenate(op.rounds)), np.arange(n))
        arrivals, rank = {}, []
        for b in op.buckets.tolist():
            rank.append(arrivals.get(b, 0))
            arrivals[b] = rank[-1] + 1
        for r, idx in enumerate(op.rounds):
            # round r holds, in input order, the r-th arrival at each bucket it touches
            assert np.all(np.diff(idx) > 0)
            assert np.unique(op.buckets[idx]).size == idx.size
            assert all(rank[i] == r for i in idx.tolist())
        assert len(op.rounds) == max(arrivals.values())

    def test_operator_state_is_read_only(self):
        op = make_operator(SketchSpec("countsketch", 4, 0), 32)
        assert isinstance(op.rounds, tuple) and op.rounds
        for array in (op.buckets, op.signs, *op.rounds):
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


@settings(max_examples=150, deadline=None)
@given(_operator_cases())
def test_apply_is_the_linear_map_of_its_matrix(case):
    family, n, m, seed, cols = case
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, min(n, 3))) if family in ("rownorm", "leverage") else None
    op = make_operator(SketchSpec(family, m, seed), n, weights=sampling_weights(family, A))
    shape = n if cols is None else (n, cols)
    M1, M2 = rng.standard_normal(shape), rng.standard_normal(shape)
    S = as_matrix(op)
    assert S.shape == (m, n)
    out = apply(op, M1)
    assert out.shape == ((m,) if cols is None else (m, cols))
    scale = np.max(np.abs(S)) * np.max(np.abs(M1)) * n
    np.testing.assert_allclose(out, S @ M1, rtol=1e-12, atol=1e-12 * scale)
    lhs = apply(op, 2.5 * M1 - M2)
    rhs = 2.5 * apply(op, M1) - apply(op, M2)
    scale = np.max(np.abs(S)) * (2.5 * np.max(np.abs(M1)) + np.max(np.abs(M2))) * n
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * scale)


class TestSamplingWeights:
    def test_leverage_scores_sum_to_d(self):
        A = np.random.default_rng(6).standard_normal((64, 12))
        assert leverage_scores(A).sum() == pytest.approx(12.0, abs=1e-9)

    def test_rownorm_requires_aux(self):
        with pytest.raises(InvalidWeightsError):
            make_operator(SketchSpec("rownorm", 4, 0), 16)

    def test_zero_row_rejected(self):
        A = np.random.default_rng(7).standard_normal((16, 4))
        A[3] = 0.0
        with pytest.raises(InvalidWeightsError):
            make_operator(SketchSpec("rownorm", 4, 0), 16, weights=sampling_weights("rownorm", A))

    def test_aux_row_count_checked(self):
        with pytest.raises(DimensionMismatchError):
            make_operator(SketchSpec("leverage", 4, 0), 16,
                          weights=sampling_weights("leverage", np.ones((8, 2))))


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
    ])
    def test_given_weights_are_validated(self, weights):
        with pytest.raises(InvalidWeightsError):
            make_operator(SketchSpec("leverage", 4, 0), 8, weights=weights)

    def test_given_weights_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            make_operator(SketchSpec("rownorm", 4, 0), 8, weights=np.full(4, 0.25))
