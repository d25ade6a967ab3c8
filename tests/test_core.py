import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sketchls import (
    ProblemInstance,
    SyntheticSpec,
    classical,
    gen_gaussian_data,
    prediction_error,
    snr,
    solve_exact,
)
from sketchls.core import (INVERSE_TOL, RANK_TOL, certified_inverse, certify_rank, gram_factor,
                           qr_factor)
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
        sol = solve_exact(ProblemInstance(A, Y))
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


class TestOneCopy:
    """An instance holds [A | y] once: A and y are read-only views of AB."""

    @pytest.mark.parametrize("k", [None, 3])
    def test_a_and_y_are_views_of_ab_and_outlive_the_callers_writes(self, k):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((12, 4))
        y = rng.standard_normal(12 if k is None else (12, k))
        A0, y0 = A.copy(), y.copy()
        p = ProblemInstance(A, y)
        assert p.AB.flags.c_contiguous and not p.AB.flags.writeable
        for view, ref in ((p.A, A0), (p.y, y0)):
            assert np.shares_memory(view, p.AB) and not view.flags.writeable
            assert view.shape == ref.shape
        A[:] = np.nan
        y[...] = np.inf
        assert np.array_equal(p.A, A0) and np.array_equal(p.y, y0)

    def test_fortran_inputs_give_a_c_contiguous_ab(self):
        rng = np.random.default_rng(22)
        A = np.asfortranarray(rng.standard_normal((12, 4)))
        y = np.asfortranarray(rng.standard_normal((12, 2)))
        p = ProblemInstance(A, y)
        assert p.AB.flags.c_contiguous
        assert np.array_equal(p.AB, np.column_stack((A, y)))

    @pytest.mark.parametrize("k", [None, 3])
    def test_an_instance_retains_ab_r_tilde_and_small_arrays_only(self, k):
        rng = np.random.default_rng(23)
        n, d = 4096, 50
        A = rng.standard_normal((n, d))
        y = rng.standard_normal(n if k is None else (n, k))
        tracemalloc.start()
        try:
            p = ProblemInstance(A, y)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a copy of A or y kept beside AB would add at least n * 8 = 32 KiB
        assert retained <= p.AB.nbytes + p.R_tilde.nbytes + p.R_tilde_inv.nbytes + 8 * 1024


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
        U = qr_factor(np.column_stack((p.A, p.y)))
        x = scipy.linalg.solve_triangular(U[:6, :6], U[:6, 6])
        assert np.array_equal(solve_exact(p).x_ls, x)
        # the Householder QR's solve agrees to rounding: cond([A | y]) is about 4 here
        H = np.linalg.qr(np.column_stack((p.A, p.y)), mode="r")
        x_h = scipy.linalg.solve_triangular(H[:6, :6], H[:6, 6])
        assert np.linalg.norm(x - x_h) <= 1e-14 * np.linalg.norm(x_h)

    @pytest.mark.parametrize("k", [515, -530])
    def test_a_power_of_two_scale_scales_the_factor_exactly(self, qr_rows, k):
        # the Gram of [A | y] would overflow at 2^515 and run through subnormals at 2^-530:
        # CholeskyQR2 forms it at a power-of-two scale, so R~ scales exactly and no QR runs
        p = _random_instance(512, 20, seed=48)
        qr_rows.clear()
        scaled = ProblemInstance(np.ldexp(p.A, k), np.ldexp(p.y, k))
        assert np.array_equal(scaled.R_tilde, np.ldexp(p.R_tilde, k))
        assert np.array_equal(scaled.R_tilde_inv, np.ldexp(p.R_tilde_inv, -k))
        assert qr_rows == []

    @pytest.mark.parametrize("k", [None, 3])
    def test_solution_matches_lstsq(self, k):
        rng = np.random.default_rng(14)
        A = rng.standard_normal((50, 7))
        b = rng.standard_normal(50 if k is None else (50, k))
        p = ProblemInstance(A, b)
        ref = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.linalg.norm(solve_exact(p).x_ls - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_overflowing_factorization_is_typed(self):
        # finite entries whose Householder QR overflows to inf
        rng = np.random.default_rng(15)
        A = rng.uniform(-1.0, 1.0, (8, 3)) * 1.7e308
        with pytest.raises(InvalidInputError, match="overflow"):
            ProblemInstance(A, y=rng.uniform(-1.0, 1.0, 8) * 1.7e308)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_energy_is_typed(self):
        # the QR of [A | y] is finite, but r2 and pred_energy exceed float64
        signs = np.random.default_rng(0).choice([-1.0, 1.0], size=(8, 3))
        p = ProblemInstance(signs[:, 1:] * 1e300, y=signs[:, 0] * 1e300)
        with pytest.raises(InvalidInputError, match="overflow float64: r2 = inf"):
            solve_exact(p)

    def test_nonfinite_error_is_typed(self):
        with pytest.raises(InvalidInputError) as exc:
            ProblemInstance(np.ones((4, 2)), y=np.array([1.0, np.inf, 0.0, 2.0]))
        assert isinstance(exc.value, SketchLSError) and isinstance(exc.value, ValueError)


def _with_condition(ratio, d=8, n=20):
    # A = U diag(s) V^T with s_max = 1 and s_min = ratio
    rng = np.random.default_rng(31)
    U, _ = np.linalg.qr(rng.standard_normal((n, d)))
    V, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (U * np.geomspace(1.0, ratio, d)) @ V.T, rng.standard_normal(n)


def _assert_svd_rule_decides(A, y):
    """`ProblemInstance` rejects A exactly when the SVD rule does, and with its message."""
    d = A.shape[1]
    U = np.linalg.qr(np.column_stack((A, y)), mode="r")
    s = np.linalg.svd(U[:d, :d], compute_uv=False)
    if s[-1] <= RANK_TOL * s[0]:
        message = f"A is rank deficient: s_min/s_max = {s[-1] / s[0]:.3e}"
        with pytest.raises(RankDeficientError, match=f"^{re.escape(message)}$"):
            ProblemInstance(A, y=y)
    else:
        assert np.all(np.isfinite(solve_exact(ProblemInstance(A, y=y)).x_ls))


class TestSharedRankRule:
    """`ProblemInstance` factors, certifies and solves with the kernel `classical` uses."""

    @pytest.mark.parametrize("ratio", [1e-3, 1e-6, 1e-9, 5e-10, 4e-10, 3e-10, 2.5e-10, 2.1e-10,
                                       2e-10, 1.5e-10, 1.01e-10, 1e-10, 9.9e-11, 1e-11, 1e-12])
    def test_decision_is_the_svd_rule(self, ratio):
        _assert_svd_rule_decides(*_with_condition(ratio))

    @pytest.mark.parametrize("k", [None, 3])
    def test_well_conditioned_instance_runs_no_svd(self, svd_calls, k):
        rng = np.random.default_rng(40)
        A = rng.standard_normal((40, 6))
        b = rng.standard_normal(40 if k is None else (40, k))
        p = ProblemInstance(A, b)
        solve_exact(p)
        assert svd_calls == []

    @pytest.mark.parametrize("ratio, calls", [(1e-3, 0), (3e-10, 0), (1.5e-10, 1), (1e-11, 1)])
    def test_svd_runs_only_where_the_certificate_cannot_decide(self, svd_calls, ratio, calls):
        A, y = _with_condition(ratio)
        try:
            ProblemInstance(A, y=y)
        except RankDeficientError:
            assert ratio < RANK_TOL
        assert len(svd_calls) == calls

    def test_zero_matrix_has_ratio_zero(self):
        with pytest.raises(RankDeficientError,
                           match=r"^A is rank deficient: s_min/s_max = 0\.000e\+00$"):
            ProblemInstance(np.zeros((6, 2)), y=np.ones(6))

    def test_overflowing_norms_are_certified_quietly(self, svd_calls):
        # ||R||_F^2 overflows at this scale; the certificate takes it from R scaled by a power
        # of two, holds, and runs no SVD (a RuntimeWarning fails the test)
        rng = np.random.default_rng(41)
        p = ProblemInstance(rng.standard_normal((60, 3)) * 1e155, y=rng.standard_normal(60))
        assert svd_calls == []
        assert np.all(np.isfinite(solve_exact(p).x_ls))

    @pytest.mark.parametrize("k", [None, 3])
    def test_exact_solution_is_bitwise_the_classical_solve(self, k):
        rng = np.random.default_rng(42)
        A = rng.standard_normal((30, 5))
        b = rng.standard_normal(30 if k is None else (30, k))
        p = ProblemInstance(A, b)
        assert np.array_equal(solve_exact(p).x_ls, classical(A, b).x_hat)


_HOUSEHOLDER = np.linalg.qr  # bound at import, so the qr_rows fixture does not count it


@st.composite
def _qr_cases(draw):
    """(M, k, gram_possible, gram_expected): 2^k [A | t] for A = U diag(s) V^T with s from 1
    to 1/kappa and t a vector, a matrix or nothing, with at most one defect: a repeated
    column or fewer rows than columns.  The scale 2^k is 1, or one whose unscaled Gram would
    overflow (2^515), be subnormal (2^-525) or be zero (2^-565); it is no defect.  The Gram
    path may run only on M with no defect, and is expected on such M that is also well
    conditioned and has at least 2 p rows."""
    d, t = draw(st.integers(1, 10)), draw(st.sampled_from([0, 1, 4]))
    p = d + t
    defect = draw(st.sampled_from([None, "rank", "wide"]))
    if (defect == "rank" and d < 2) or (defect == "wide" and p < 2):
        defect = None
    k = draw(st.sampled_from([0, 515, -525, -565]))
    n = draw(st.integers(1, p - 1) if defect == "wide" else st.integers(p, 8 * p))
    log_kappa = draw(st.one_of(st.floats(0.0, 3.5), st.floats(3.5, 12.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U, _ = np.linalg.qr(rng.standard_normal((max(n, d), d)))
    V, _ = np.linalg.qr(rng.standard_normal((d, d)))
    A = ((U * np.geomspace(1.0, 10.0 ** -log_kappa, d)) @ V.T)[:n]
    if defect == "rank":
        A[:, -1] = A[:, 0]
    M = np.ldexp(np.column_stack((A, rng.standard_normal((n, t)))), k)
    return M, k, defect is None, defect is None and n >= 2 * p and log_kappa <= 1.0


# qr_rows is cleared at the start of every example
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example((np.array([[1e-154]]), 0, True, False))  # an unscaled Gram would be subnormal
@given(_qr_cases())
def test_qr_factor_is_the_householder_factor_up_to_row_signs(qr_rows, case):
    """`qr_factor` is upper triangular and square in M's columns; wherever a piece declines,
    exactly one Householder QR runs and gives U bitwise.  Where its Gram path runs (no
    np.linalg.qr call), U is 2^k times the unscaled 2^-k M's U, bitwise, and its rows are
    Householder's up to sign within 32 eps b relative
    (eps = 2^-52), b = ||H||_F ||H^-1||_F the certificate's measure (under 1e4 there): both
    factors are backward stable, and a row near the smallest singular value moves by about
    eps b.  Over 15,000 such draws the largest row error was 8.8 eps b (1.1e-11 at
    b = 7.4e3), and 2.9% of draws exceeded 1e-13.  Q = M U^-1 is orthonormal within the same
    32 eps b: CholeskyQR2 read at most 3 eps b over 3,386 draws, where one Cholesky pass
    (U = R1) read up to 4.8e3 eps b."""
    M, k, gram_possible, gram_expected = case
    n, p = M.shape
    qr_rows.clear()
    U = qr_factor(M)
    assert U.shape == (p, p) and np.all(np.tril(U, -1) == 0.0)
    H = _HOUSEHOLDER(M, mode="r")
    H = np.vstack((H, np.zeros((p - len(H), p))))
    if qr_rows:
        assert qr_rows == [n] and not gram_expected
        assert np.array_equal(U, H)
    else:
        assert gram_possible and np.all(np.diag(U) > 0)
        assert np.array_equal(U, np.ldexp(qr_factor(np.ldexp(M, -k)), k))
        assert qr_rows == []
        U, H, M = (np.ldexp(X, -k) for X in (U, H, M))  # the norms below stay in range
        H *= np.sign(np.diag(H))[:, None]
        tol = 32 * np.finfo(np.float64).eps * np.linalg.norm(H) * np.linalg.norm(np.linalg.inv(H))
        np.testing.assert_array_less(np.linalg.norm(U - H, axis=1),
                                     tol * np.linalg.norm(H, axis=1))
        Q = scipy.linalg.solve_triangular(U, M.T, trans="T").T
        assert np.linalg.norm(Q.T @ Q - np.eye(p), 2) < tol


class TestFirstFactor:
    """`qr_factor(M, first)` with first = (R1, R1^-1): the Gram step on R1 where it holds,
    else bitwise `qr_factor(M)`."""

    @staticmethod
    def _case():
        # M = S [A | b] for a Gaussian S, with R~ and its inverse: what a sketch passes
        rng = np.random.default_rng(46)
        p = ProblemInstance(rng.standard_normal((200, 6)), rng.standard_normal(200))
        return rng.standard_normal((30, 200)) @ p.AB, p.R_tilde, p.R_tilde_inv

    def test_is_the_gram_step_bitwise(self, qr_rows):
        M, R1, R1_inv = self._case()
        X = M @ R1_inv
        assert np.array_equal(qr_factor(M, (R1, R1_inv)), gram_factor(X.T @ X, R1))
        assert qr_rows == []

    def test_without_an_inverse_it_is_qr_factor(self, qr_rows):
        M, R1, _ = self._case()
        assert np.array_equal(qr_factor(M, (R1, None)), qr_factor(M))
        assert qr_rows == []  # CholeskyQR2, twice

    def test_a_declined_step_gives_qr_factor(self, qr_rows):
        # R1^-1 scales X's column 3 by 1e3, so L's diagonal ratio falls under GRAM_DIAG_MIN
        M, _, _ = self._case()
        R1 = np.eye(M.shape[1])
        R1[3, 3] = 1e-3
        R1_inv = certified_inverse(R1)
        X = M @ R1_inv
        assert gram_factor(X.T @ X, R1) is None
        assert np.array_equal(qr_factor(M, (R1, R1_inv)), qr_factor(M))
        assert qr_rows == []

    def test_fewer_rows_than_columns_skip_it(self, qr_rows):
        M, R1, R1_inv = self._case()
        assert np.array_equal(qr_factor(M[:5], (R1, R1_inv)), qr_factor(M[:5]))
        assert qr_rows == [5, 5]


class TestCertifyRank:
    """`certify_rank` on a given triangular factor, with no QR in front of it."""

    @staticmethod
    def _factor(*diag):
        # [[diag(diag), 1], [0, 1]]: X = diag(diag), so s_min/s_max is the diagonal's ratio
        U = np.diag([*diag, 1.0])
        U[:-1, -1] = 1.0
        return U

    def test_certified_factor_is_returned_as_it_is(self, svd_calls):
        U = self._factor(2.0, -1.0, 0.5)
        assert certify_rank(U, 3, RankDeficientError, "X") is U
        assert svd_calls == []

    def test_zero_diagonal_goes_to_the_svd_and_fails(self, svd_calls):
        with pytest.raises(RankDeficientError,
                           match=r"^X is rank deficient: s_min/s_max = 0\.000e\+00$"):
            certify_rank(self._factor(1.0, 0.0, 3.0), 3, RankDeficientError, "X")
        assert svd_calls == [(3, 3)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 2)])
    def test_nonfinite_factor_is_typed(self, svd_calls, bad, where):
        U = self._factor(1.0, 2.0)
        U[where] = bad
        with pytest.raises(InvalidInputError,
                           match=r"^\[SA \| target\] is too large to factor without overflow$"):
            certify_rank(U, 2, RankDeficientError, "SA")
        assert svd_calls == []

    @pytest.mark.parametrize("ratio, passes", [(0.5e-10, False), (2e-10, True)])
    def test_decision_at_the_tolerance(self, svd_calls, ratio, passes):
        # 2 RANK_TOL ||R||_F ||R^-1||_F >= 1 at both ratios, so the SVD decides
        U = self._factor(1.0, ratio)
        if passes:
            assert certify_rank(U, 2, RankDeficientError, "X") is U
        else:
            with pytest.raises(RankDeficientError,
                               match=r"^X is rank deficient: s_min/s_max = 5\.000e-11$"):
                certify_rank(U, 2, RankDeficientError, "X")
        assert svd_calls == [(2, 2)]


class TestCertifiedInverse:
    """`ProblemInstance.R_tilde_inv`: R~^-1 where R~ is certified well enough conditioned to
    be inverted explicitly, else None."""

    @pytest.mark.parametrize("k", [None, 3])
    def test_well_conditioned_instance_holds_its_inverse(self, k):
        rng = np.random.default_rng(43)
        p = ProblemInstance(rng.standard_normal((40, 6)), rng.standard_normal(40 if k is None
                                                                             else (40, k)))
        R_inv = p.R_tilde_inv
        assert R_inv.shape == p.R_tilde.shape and not R_inv.flags.writeable
        assert np.all(np.tril(R_inv, -1) == 0.0)
        np.testing.assert_allclose(R_inv @ p.R_tilde, np.eye(len(R_inv)), rtol=0, atol=1e-12)
        assert INVERSE_TOL * np.linalg.norm(p.R_tilde) * np.linalg.norm(R_inv) < 1

    @pytest.mark.parametrize("ratio, inverted", [(1e-2, True), (1e-8, False)])
    def test_certificate_follows_the_condition_number(self, ratio, inverted):
        A, y = _with_condition(ratio)
        assert (ProblemInstance(A, y=y).R_tilde_inv is not None) == inverted

    def test_zero_residual_leaves_no_inverse(self):
        # [diag; 0] factors without rounding, so R~ has an exact zero on its diagonal
        A = np.zeros((12, 3))
        A[:3] = np.diag([1.0, 2.0, 3.0])
        p = ProblemInstance(A, A @ np.array([1.0, -2.0, 0.5]))
        assert p.R_tilde[3, 3] == 0.0 and p.R_tilde_inv is None
        rng = np.random.default_rng(44)
        A = rng.standard_normal((30, 4))
        assert ProblemInstance(A, A @ rng.standard_normal(4)).R_tilde_inv is None

    def test_padded_factor_leaves_no_inverse(self):
        # n = 5 < d+k' = 7: R~ has zero rows below row n
        rng = np.random.default_rng(45)
        assert ProblemInstance(rng.standard_normal((5, 4)), rng.standard_normal((5, 3))
                               ).R_tilde_inv is None

    @pytest.mark.parametrize("exponent", [515, -530])
    def test_a_scaled_factor_keeps_its_certificate(self, svd_calls, exponent):
        # ||R||_F^2 or ||R^-1||_F^2 leaves float64's range at these scales: the bound is taken
        # again from R scaled by a power of two, so R^-1 scales exactly and no SVD runs
        R = qr_factor(np.random.default_rng(47).standard_normal((40, 6)))
        scaled = np.ldexp(R, exponent)
        assert np.array_equal(certified_inverse(scaled), np.ldexp(certified_inverse(R), -exponent))
        assert certify_rank(scaled, 5, RankDeficientError, "X") is scaled
        assert svd_calls == []

    def test_overflowing_norms_leave_no_inverse_quietly(self):
        rng = np.random.default_rng(41)
        p = ProblemInstance(rng.standard_normal((60, 3)) * 1e155, y=rng.standard_normal(60))
        assert p.R_tilde_inv is None
