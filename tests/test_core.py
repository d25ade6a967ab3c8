import math

import numpy as np
import pytest
import scipy.linalg

from sketchls import (
    ProblemInstance,
    SyntheticSpec,
    gen_gaussian_data,
    prediction_error,
    snr,
    solve_exact,
)
from sketchls.errors import (
    DimensionMismatchError,
    InvalidInputError,
    RankDeficientError,
    SketchLSError,
)


def _random_instance(n=16, d=4, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    return ProblemInstance(A, y=y)


class TestSolveExact:
    def test_identity_matrix(self):
        p = ProblemInstance(np.vstack([np.eye(3), np.zeros((1, 3))]),
                            y=np.array([1.0, 2.0, 3.0, 0.0]))
        sol = solve_exact(p)
        np.testing.assert_allclose(sol.x_ls, [1.0, 2.0, 3.0], atol=1e-12)
        assert sol.r2 == pytest.approx(0.0, abs=1e-24)

    def test_symmetric_averaging(self):
        p = ProblemInstance(np.array([[1.0], [1.0]]), y=np.array([0.0, 2.0]))
        sol = solve_exact(p)
        np.testing.assert_allclose(sol.x_ls, [1.0], atol=1e-12)
        np.testing.assert_allclose(sol.y_perp, [-1.0, 1.0], atol=1e-12)
        assert sol.r2 == pytest.approx(2.0, rel=1e-12)

    def test_orthogonality_residual_and_pinv_cross_check(self):
        p = _random_instance(16, 4, seed=7)
        sol = solve_exact(p)
        bound = 1e-9 * np.linalg.norm(p.A, "fro") * np.linalg.norm(p.y)
        assert np.max(np.abs(p.A.T @ sol.y_perp)) <= bound
        # independent oracle: pseudoinverse from a full singular decomposition
        x_pinv = np.linalg.pinv(p.A) @ p.y
        np.testing.assert_allclose(sol.x_ls, x_pinv, atol=1e-10)

    def test_pythagorean_split(self):
        p = _random_instance(32, 6, seed=3)
        sol = solve_exact(p)
        total = float(np.sum(p.y**2))
        assert total == pytest.approx(sol.pred_energy + sol.r2, rel=1e-9)

    def test_deterministic_bitwise(self):
        a = solve_exact(_random_instance(20, 5, seed=11))
        b = solve_exact(_random_instance(20, 5, seed=11))
        assert np.array_equal(a.x_ls, b.x_ls)
        assert np.array_equal(a.y_perp, b.y_perp)
        assert a.r2 == b.r2

    def test_rank_deficient_rejected(self):
        A = np.ones((8, 3))  # identical columns
        with pytest.raises(RankDeficientError):
            ProblemInstance(A, y=np.ones(8))

    def test_matrix_target(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((20, 4))
        Y = rng.standard_normal((20, 3))
        sol = solve_exact(ProblemInstance(A, Y=Y))
        assert sol.x_ls.shape == (4, 3)
        assert np.max(np.abs(A.T @ sol.y_perp)) < 1e-10


class TestInstanceValidation:
    def test_requires_target(self):
        with pytest.raises(DimensionMismatchError):
            ProblemInstance(np.eye(4)[:, :2])

    def test_rejects_wide_matrix(self):
        with pytest.raises(DimensionMismatchError):
            ProblemInstance(np.ones((2, 3)), y=np.ones(2))

    def test_rejects_nonfinite(self):
        A = np.random.default_rng(0).standard_normal((6, 2))
        A[0, 0] = np.nan
        with pytest.raises(ValueError):
            ProblemInstance(A, y=np.ones(6))

    def test_rejects_bad_target_shape(self):
        A = np.random.default_rng(0).standard_normal((6, 2))
        with pytest.raises(DimensionMismatchError):
            ProblemInstance(A, y=np.ones(5))

    def test_arrays_immutable(self):
        p = _random_instance()
        with pytest.raises(ValueError):
            p.A[0, 0] = 1.0

    def test_spectrum_properties(self):
        p = _random_instance(30, 5, seed=2)
        eig = np.linalg.eigvalsh(p.A.T @ p.A)
        assert p.sigma_min == pytest.approx(eig[0], rel=1e-9)
        assert p.sigma_max == pytest.approx(eig[-1], rel=1e-9)


class TestPredictionError:
    def test_zero_at_solution(self):
        p = _random_instance()
        sol = solve_exact(p)
        assert prediction_error(p.A, sol.x_ls, sol.x_ls) == 0.0

    def test_euclidean_case(self):
        A = np.vstack([np.eye(2), np.zeros((1, 2))])
        assert prediction_error(A, np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(25.0)

    def test_pythagorean_identity(self):
        p = _random_instance(24, 5, seed=9)
        sol = solve_exact(p)
        x_hat = sol.x_ls + 0.1 * np.random.default_rng(1).standard_normal(5)
        lhs = float(np.sum((p.A @ x_hat - p.y) ** 2))
        rhs = prediction_error(p.A, x_hat, sol.x_ls) + sol.r2
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            prediction_error(np.ones((4, 2)), np.ones(3), np.ones(3))


class TestSnr:
    def test_unit_ratio(self):
        p = _random_instance(20, 3, seed=4)
        sol = solve_exact(p)
        assert snr(sol) == pytest.approx(sol.pred_energy / sol.r2)

    def test_generated_snr_is_exact(self):
        _, sol = gen_gaussian_data(SyntheticSpec(n=128, d=10, rho=0.1, seed=21))
        assert snr(sol) == pytest.approx(0.1, rel=1e-10)

    def test_zero_residual_gives_inf_marker(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((10, 3))
        x = rng.standard_normal(3)
        sol = solve_exact(ProblemInstance(A, y=A @ x))
        assert sol.r2 < 1e-20
        # solve is accurate enough that r2 underflows to ~0 but may not be exactly 0
        if sol.r2 == 0.0:
            assert math.isinf(snr(sol))

    def test_inf_marker_directly(self):
        from sketchls.core import ExactSolution

        sol = ExactSolution(x_ls=np.zeros(3), y_perp=np.zeros(5), r2=0.0, pred_energy=1.0)
        assert math.isinf(snr(sol))


class TestSingleFactorization:
    def test_solution_is_bitwise_the_one_qr_solve(self):
        p = _random_instance(40, 6, seed=12)
        U = np.linalg.qr(np.column_stack((p.A, p.y)), mode="r")
        x = scipy.linalg.solve_triangular(U[:6, :6], U[:6, 6])
        assert np.array_equal(solve_exact(p).x_ls, x)

    @pytest.mark.parametrize("k", [None, 3])
    def test_solution_matches_lstsq(self, k):
        rng = np.random.default_rng(14)
        A = rng.standard_normal((50, 7))
        b = rng.standard_normal(50 if k is None else (50, k))
        p = ProblemInstance(A, y=b) if k is None else ProblemInstance(A, Y=b)
        ref = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.linalg.norm(solve_exact(p).x_ls - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_overflowing_factorization_is_typed(self):
        # finite entries whose Householder QR overflows to inf
        rng = np.random.default_rng(15)
        A = rng.uniform(-1.0, 1.0, (8, 3)) * 1.7e308
        with pytest.raises(InvalidInputError, match="overflow"):
            ProblemInstance(A, y=rng.uniform(-1.0, 1.0, 8) * 1.7e308)

    def test_spectrum_matches_svd_of_a(self):
        p = _random_instance(50, 7, seed=13)
        svals = np.linalg.svd(p.A, compute_uv=False)
        assert p.sigma_min == pytest.approx(svals[-1] ** 2, rel=1e-12)
        assert p.sigma_max == pytest.approx(svals[0] ** 2, rel=1e-12)

    def test_nonfinite_error_is_typed(self):
        with pytest.raises(InvalidInputError) as exc:
            ProblemInstance(np.ones((4, 2)), y=np.array([1.0, np.inf, 0.0, 2.0]))
        assert isinstance(exc.value, SketchLSError) and isinstance(exc.value, ValueError)
