import math

import numpy as np
import pytest
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
    aux = _aux(n) if family in ("rownorm", "leverage") else None
    return make_operator(SketchSpec(family, m, seed), n, aux=aux)


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
            make_operator(SketchSpec("rownorm", 4, 0), 16, aux=A)

    def test_aux_row_count_checked(self):
        with pytest.raises(DimensionMismatchError):
            make_operator(SketchSpec("leverage", 4, 0), 16, aux=np.ones((8, 2)))


class TestGramIdentity:
    # E[S^T S] = I, checked with the 5/sqrt(R) envelope at a fixed test seed
    @pytest.mark.parametrize("family", FAMILIES)
    def test_mean_gram_close_to_identity(self, family):
        reps = 2000
        n, m = 32, 16
        aux = _aux(n) if family in ("rownorm", "leverage") else None
        acc = np.zeros((n, n))
        for r in range(reps):
            op = make_operator(SketchSpec(family, m, derive_seed(1, family, r)), n, aux=aux)
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
    @pytest.mark.parametrize("family", ["rownorm", "leverage"])
    def test_given_weights_realize_the_aux_operator(self, family):
        A = _aux(32)
        weights = sampling_weights(family, A)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        for seed in range(3):
            spec = SketchSpec(family, 16, seed)
            given = make_operator(spec, 32, weights=weights)
            computed = make_operator(spec, 32, aux=A)
            assert np.array_equal(given.indices, computed.indices)
            assert np.array_equal(given.row_scale, computed.row_scale)

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
