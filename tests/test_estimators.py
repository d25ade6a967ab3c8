import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from sketchls import (
    ProblemInstance,
    SketchSpec,
    SyntheticSpec,
    apply,
    classical,
    estimate_residual_full,
    estimate_residual_sketched,
    gen_gaussian_data,
    js_oracle,
    make_operator,
    positive_part,
    prediction_error,
    shrinkage,
    shrinkage_alt,
    shrinkage_matrix,
    derive_seed,
)
from sketchls.core import RANK_TOL
from sketchls.errors import InvalidInputError, InvalidSketchSizeError, RankDeficientSketchError
from sketchls.estimators import classical_stacked


def _sketched(spec, p, sol):
    op = make_operator(spec, p.n)
    SA = apply(op, p.A)
    St = apply(op, p.y)
    return SA, St, classical(SA, St)


class TestClassical:
    def test_identity_sketch_recovers_exact_solution(self):
        p, sol = gen_gaussian_data(SyntheticSpec(n=64, d=6, rho=1.0, seed=1))
        rec = classical(p.A, p.y)  # S = I
        np.testing.assert_allclose(rec.x_hat, sol.x_ls, atol=1e-10)
        assert rec.shrink_factor == 1.0

    def test_rejects_undersized_sketch(self):
        with pytest.raises(RankDeficientSketchError):
            classical(np.ones((3, 5)), np.ones(3))

    def test_zero_sketch_has_ratio_zero(self):
        with pytest.raises(RankDeficientSketchError,
                           match=r"^SA is rank deficient: s_min/s_max = 0\.000e\+00$"):
            classical(np.zeros((6, 2)), np.ones(6))

    def test_overflowing_sketch_factor_is_typed(self):
        # finite entries whose Householder QR overflows to inf
        rng = np.random.default_rng(15)
        SA = rng.uniform(-1.0, 1.0, (8, 3)) * 1.7e308
        Sy = rng.uniform(-1.0, 1.0, 8) * 1.7e308
        with pytest.raises(InvalidInputError,
                           match=r"^\[SA \| target\] is too large to factor without overflow$"):
            classical(SA, Sy)

    def test_solution_decomposition(self):
        # x_hat - x_ls = pinv(SA) @ S y_perp
        p, sol = gen_gaussian_data(SyntheticSpec(n=128, d=10, rho=0.5, seed=2))
        op = make_operator(SketchSpec("gaussian", 40, 17), p.n)
        SA = apply(op, p.A)
        rec = classical(SA, apply(op, p.y))
        expected = np.linalg.pinv(SA) @ apply(op, sol.y_perp)
        np.testing.assert_allclose(rec.x_hat - sol.x_ls, expected, atol=1e-9)

    def test_mean_prediction_error_matches_closed_form(self):
        n, d, m, reps = 256, 20, 60, 500
        p, sol = gen_gaussian_data(SyntheticSpec(n=n, d=d, rho=1.0, seed=3))
        errs = np.empty(reps)
        for r in range(reps):
            spec = SketchSpec("gaussian", m, derive_seed(3, "gaussian", m, r))
            _, _, rec = _sketched(spec, p, sol)
            errs[r] = prediction_error(p.A, rec.x_hat, sol.x_ls)
        target = d / (m - d - 1) * sol.r2
        assert abs(errs.mean() - target) <= 0.05 * target


def _sketch(d, m, k, seed=7):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, d)), rng.standard_normal(m if k is None else (m, k))


def _assert_svd_rule_decides(SA, Sy):
    """`classical` rejects SA exactly when the SVD rule does, and with its message."""
    d = SA.shape[1]
    U = np.linalg.qr(np.column_stack((SA, Sy)), mode="r")
    s = np.linalg.svd(U[:d, :d], compute_uv=False)
    if s[-1] <= RANK_TOL * s[0]:
        message = f"SA is rank deficient: s_min/s_max = {s[-1] / s[0]:.3e}"
        with pytest.raises(RankDeficientSketchError, match=f"^{re.escape(message)}$"):
            classical(SA, Sy)
    else:
        assert np.all(np.isfinite(classical(SA, Sy).x_hat))


class TestClassicalByQr:
    """`classical` solves by QR of [SA | Sy] and keeps the SVD rank rule.

    The rule's decisions are the SVD's, but the SVD runs only when the
    Frobenius certificate 1/(||R||_F ||R^-1||_F) > 2 rank_tol cannot decide.
    """

    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("extra", [0, 1, "3d"])
    def test_matches_the_lstsq_reference(self, k, extra):
        d = 12
        m = 3 * d if extra == "3d" else d + extra
        rng = np.random.default_rng(d + m + (k or 0))
        SA = rng.standard_normal((m, d))
        Sy = rng.standard_normal(m if k is None else (m, k))
        x = classical(SA, Sy).x_hat
        reference = np.linalg.lstsq(SA, Sy, rcond=None)[0]
        assert x.shape == reference.shape
        np.testing.assert_allclose(x, reference, rtol=1e-10, atol=0)

    @staticmethod
    def _with_condition(ratio, d=8, m=20):
        # SA = U diag(s) V^T with s_max = 1 and s_min = ratio
        rng = np.random.default_rng(31)
        U, _ = np.linalg.qr(rng.standard_normal((m, d)))
        V, _ = np.linalg.qr(rng.standard_normal((d, d)))
        return (U * np.geomspace(1.0, ratio, d)) @ V.T, rng.standard_normal(m)

    def test_rank_rule_threshold(self):
        SA, Sy = self._with_condition(1e-9)
        assert np.all(np.isfinite(classical(SA, Sy).x_hat))
        SA, Sy = self._with_condition(1e-11)
        with pytest.raises(RankDeficientSketchError, match="s_min/s_max"):
            classical(SA, Sy)

    # geomspace(1, ratio, 8) puts the certificate's bound just below `ratio`, so the
    # ratios from 5e-10 down to 2e-10 straddle its factor of 2 above RANK_TOL
    @pytest.mark.parametrize("ratio", [1e-3, 1e-6, 1e-9, 5e-10, 4e-10, 3e-10, 2.5e-10, 2.1e-10,
                                       2e-10, 1.5e-10, 1.01e-10, 1e-10, 9.9e-11, 1e-11, 1e-12])
    def test_decision_is_the_svd_rule(self, ratio):
        _assert_svd_rule_decides(*self._with_condition(ratio))

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(1, 10), extra=st.integers(0, 20), log_ratio=st.floats(-12.5, -3),
           seed=st.integers(0, 2**32 - 1))
    def test_decision_is_the_svd_rule_on_random_spectra(self, d, extra, log_ratio, seed):
        rng = np.random.default_rng(seed)
        m = d + extra
        U, _ = np.linalg.qr(rng.standard_normal((m, d)))
        V, _ = np.linalg.qr(rng.standard_normal((d, d)))
        s = np.sort(10.0 ** rng.uniform(log_ratio, 0, d))[::-1]
        s[0], s[-1] = 1.0, 10.0 ** log_ratio
        _assert_svd_rule_decides((U * s) @ V.T, rng.standard_normal(m))

    @pytest.mark.parametrize("ratio, calls", [(1e-3, 0), (3e-10, 0), (1.5e-10, 1), (1e-11, 1)])
    def test_svd_runs_only_where_the_certificate_cannot_decide(self, svd_calls, ratio, calls):
        SA, Sy = self._with_condition(ratio)
        try:
            classical(SA, Sy)
        except RankDeficientSketchError:
            assert ratio < RANK_TOL
        assert len(svd_calls) == calls

    def test_exactly_singular_r_falls_to_the_svd_rule(self, svd_calls):
        SA, Sy = _sketch(6, 20, None)
        SA[:, 2] = 0.0  # the QR leaves an exact zero on R's diagonal
        U = np.linalg.qr(np.column_stack((SA, Sy)), mode="r")
        assert lapack.dtrtri(U[:6, :6])[1] > 0
        with pytest.raises(RankDeficientSketchError, match="s_min/s_max"):
            classical(SA, Sy)
        assert len(svd_calls) == 1

    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("extra", [0, 1, "3d"])
    def test_well_conditioned_sketch_runs_no_svd(self, svd_calls, k, extra):
        d = 12
        SA, Sy = _sketch(d, 3 * d if extra == "3d" else d + extra, k)
        classical(SA, Sy)
        assert svd_calls == []

    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("extra", [0, 1, "3d"])
    def test_solution_is_bitwise_the_triangular_solve(self, k, extra):
        d = 12
        SA, Sy = _sketch(d, 3 * d if extra == "3d" else d + extra, k)
        U = np.linalg.qr(np.column_stack((SA, Sy)), mode="r")
        expected = scipy.linalg.solve_triangular(U[:d, :d], U[:d, d] if k is None else U[:d, d:])
        assert np.array_equal(classical(SA, Sy).x_hat, expected)
        # the harness's spelling, on the stacked array it already holds
        SB = np.column_stack((SA, Sy))
        rec, UA, Ub = classical_stacked(SB, d, k is None)
        assert np.array_equal(rec.x_hat, expected)
        # with U's blocks: the QR's rows, zero-padded to d+k' rows when m < d+k'
        padded = np.vstack((U, np.zeros((SB.shape[1] - len(U), SB.shape[1]))))
        assert UA.shape == (SB.shape[1], d) and Ub.ndim == Sy.ndim
        assert np.array_equal(np.column_stack((UA, Ub)), padded)


class TestResidualEstimates:
    def test_full_plug_in_at_exact_solution(self):
        p, sol = gen_gaussian_data(SyntheticSpec(n=64, d=6, rho=1.0, seed=4))
        d, m = 6, 20
        est = estimate_residual_full(p.A, p.y, sol.x_ls, d, m)
        assert est == pytest.approx((m - d - 1) / (m - 1) * sol.r2, rel=1e-12)

    def test_full_boundary(self):
        with pytest.raises(InvalidSketchSizeError):
            estimate_residual_full(np.ones((4, 2)), np.ones(4), np.ones(2), d=2, m=3)

    def test_sketched_interpolating_case(self):
        SA = np.random.default_rng(5).standard_normal((8, 3))
        x = np.ones(3)
        assert estimate_residual_sketched(SA, SA @ x, x, d=3, m=8) == 0.0

    def test_sketched_boundary(self):
        with pytest.raises(InvalidSketchSizeError):
            estimate_residual_sketched(np.ones((2, 2)), np.ones(2), np.ones(2), d=2, m=2)

    @pytest.mark.parametrize("which", ["full", "sketched"])
    def test_monte_carlo_unbiased(self, which):
        n, d, m, reps = 256, 20, 60, 500
        p, sol = gen_gaussian_data(SyntheticSpec(n=n, d=d, rho=1.0, seed=6))
        vals = np.empty(reps)
        for r in range(reps):
            spec = SketchSpec("gaussian", m, derive_seed(6, "gaussian", m, r))
            SA, Sy, rec = _sketched(spec, p, sol)
            if which == "full":
                vals[r] = estimate_residual_full(p.A, p.y, rec.x_hat, d, m)
            else:
                vals[r] = estimate_residual_sketched(SA, Sy, rec.x_hat, d, m)
        assert abs(vals.mean() - sol.r2) <= 0.02 * sol.r2


class TestJsOracle:
    def test_small_dimension_returns_input(self):
        x = np.array([1.0, 2.0])
        rec = js_oracle(x, np.eye(2), r2_hat=1.0, d=2, m=8)
        assert rec.shrink_factor == 1.0 and rec.degenerate
        np.testing.assert_array_equal(rec.x_hat, x)

    def test_closed_form_factor(self):
        # d=4, m=20, r2=2, ||SA x||^2 = 1  ->  factor 0.8
        SA = np.vstack([np.eye(4), np.zeros((16, 4))])
        x = np.array([1.0, 0.0, 0.0, 0.0])
        rec = js_oracle(x, SA, r2_hat=2.0, d=4, m=20)
        assert rec.shrink_factor == pytest.approx(0.8, rel=1e-12)
        np.testing.assert_allclose(rec.x_hat, 0.8 * x)

    def test_degenerate_direction_flagged(self):
        rec = js_oracle(np.zeros(4), np.eye(4), r2_hat=1.0, d=4, m=9)
        assert rec.shrink_factor == 1.0 and rec.degenerate

    def test_dominates_classical_at_low_snr(self):
        # paired sketched-norm comparison plus the quantitative error identity
        n, d, m, reps = 64, 8, 16, 10_000
        p, sol = gen_gaussian_data(SyntheticSpec(n=n, d=d, rho=0.01, seed=7))
        r2 = sol.r2
        cls_err = np.empty(reps)
        js_err = np.empty(reps)
        deficit = np.empty(reps)
        for r in range(reps):
            spec = SketchSpec("gaussian", m, derive_seed(7, "gaussian", m, r))
            SA, _, rec = _sketched(spec, p, sol)
            rec_js = js_oracle(rec.x_hat, SA, r2, d, m)
            cls_err[r] = np.sum((SA @ (rec.x_hat - sol.x_ls)) ** 2)
            js_err[r] = np.sum((SA @ (rec_js.x_hat - sol.x_ls)) ** 2)
            deficit[r] = (d - 2) ** 2 * r2**2 / (m**2 * np.sum((SA @ rec.x_hat) ** 2))
        assert js_err.mean() < cls_err.mean()
        # identity: E[js] = E[cls] - E[deficit], paired residual within 3 se
        resid = js_err - cls_err + deficit
        se = resid.std(ddof=1) / math.sqrt(reps)
        assert abs(resid.mean()) <= 3 * se


class TestShrinkage:
    def test_closed_form_factor(self):
        # d=4, m=20, ||A x - y||^2 = 2, ||SA x||^2 = 1 -> 1 - 60/380
        SA = np.vstack([np.eye(4), np.zeros((16, 4))])
        x = np.array([1.0, 0.0, 0.0, 0.0])
        A = np.vstack([np.eye(4), np.zeros((2, 4))])
        y = np.concatenate([x[:4], np.sqrt([1.0, 1.0])])  # residual^2 = 2
        rec = shrinkage(x, SA, estimate_residual_full(A, y, x, 4, 20), d=4, m=20)
        assert rec.shrink_factor == pytest.approx(1 - 60 / 380, rel=1e-12)

    def test_noiseless_factor_is_one(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((32, 4))
        x = rng.standard_normal(4)
        p = ProblemInstance(A, y=A @ x)
        op = make_operator(SketchSpec("gaussian", 16, 9), 32)
        SA = apply(op, A)
        rec0 = classical(SA, apply(op, p.y))
        rec = shrinkage(rec0.x_hat, SA, estimate_residual_full(A, p.y, rec0.x_hat, 4, 16),
                        d=4, m=16)
        assert rec.shrink_factor == pytest.approx(1.0, abs=1e-12)

    def test_sketch_size_boundary(self):
        # the domain check lives in the kind's r2_hat, the full-data residual estimate
        with pytest.raises(InvalidSketchSizeError, match="needs m > d\\+1"):
            shrinkage(np.ones(4), np.ones((5, 4)),
                      estimate_residual_full(np.ones((6, 4)), np.ones(6), np.ones(4), 4, 5),
                      d=4, m=5)

    def test_matches_oracle_when_fed_true_residual_energy(self):
        p, sol = gen_gaussian_data(SyntheticSpec(n=128, d=10, rho=0.2, seed=10))
        d, m = 10, 40
        op = make_operator(SketchSpec("gaussian", m, 11), p.n)
        SA = apply(op, p.A)
        rec0 = classical(SA, apply(op, p.y))
        # the kinds share one body, so fed r2_hat = r2 shrinkage is the oracle bitwise
        rec = shrinkage(rec0.x_hat, SA, sol.r2, d, m)
        oracle = js_oracle(rec0.x_hat, SA, sol.r2, d, m)
        assert rec.shrink_factor == oracle.shrink_factor
        np.testing.assert_array_equal(rec.x_hat, oracle.x_hat)
        assert (rec.r2_estimate, oracle.r2_estimate) == (sol.r2, None)

    def test_beats_classical_at_low_snr(self):
        n, d, m, reps = 256, 32, 96, 100
        p, sol = gen_gaussian_data(SyntheticSpec(n=n, d=d, rho=0.1, seed=12))
        diffs = np.empty(reps)
        for r in range(reps):
            spec = SketchSpec("gaussian", m, derive_seed(12, "gaussian", m, r))
            SA, Sy, rec = _sketched(spec, p, sol)
            rec_s = shrinkage(rec.x_hat, SA, estimate_residual_full(p.A, p.y, rec.x_hat, d, m),
                              d, m)
            diffs[r] = (prediction_error(p.A, rec.x_hat, sol.x_ls)
                        - prediction_error(p.A, rec_s.x_hat, sol.x_ls))
        se = diffs.std(ddof=1) / math.sqrt(reps)
        assert diffs.mean() > 3 * se

    def test_high_snr_factor_approaches_one(self):
        n, d, m = 256, 16, 64
        p, sol = gen_gaussian_data(SyntheticSpec(n=n, d=d, rho=1e4, seed=13))
        op = make_operator(SketchSpec("gaussian", m, 14), n)
        SA = apply(op, p.A)
        rec0 = classical(SA, apply(op, p.y))
        rec = shrinkage(rec0.x_hat, SA, estimate_residual_full(p.A, p.y, rec0.x_hat, d, m), d, m)
        assert rec.shrink_factor >= 0.99


class TestShrinkageAlt:
    def test_interpolating_factor_is_one(self):
        SA = np.random.default_rng(17).standard_normal((12, 4))
        x = np.ones(4)
        rec = shrinkage_alt(x, SA, estimate_residual_sketched(SA, SA @ x, x, 4, 12), d=4, m=12)
        assert rec.shrink_factor == pytest.approx(1.0)

    def test_closed_form_factor(self):
        # d=4, m=20, ||SA x - Sy||^2 = 1.6, ||SA x||^2 = 1 -> 1 - 3.2/16
        SA = np.vstack([np.eye(4), np.zeros((16, 4))])
        x = np.array([1.0, 0.0, 0.0, 0.0])
        Sy = SA @ x - np.concatenate([[0.0] * 4, [math.sqrt(1.6)], [0.0] * 15])
        rec = shrinkage_alt(x, SA, estimate_residual_sketched(SA, Sy, x, 4, 20), d=4, m=20)
        assert rec.shrink_factor == pytest.approx(0.8, rel=1e-12)

    def test_boundary(self):
        # the domain check lives in the kind's r2_hat, the sketched residual estimate
        with pytest.raises(InvalidSketchSizeError, match="needs m > d,"):
            shrinkage_alt(np.ones(4), np.ones((4, 4)),
                          estimate_residual_sketched(np.ones((4, 4)), np.ones(4), np.ones(4), 4, 4),
                          d=4, m=4)

    def test_tracks_full_data_variant(self):
        # across an m-grid at low SNR the alt variant stays inside the
        # full variant's one-std error bars and far below classical
        n, d, reps = 1024, 100, 100
        p, sol = gen_gaussian_data(SyntheticSpec(n=n, d=d, rho=0.1, seed=18))
        rel_gaps = []
        for m in (200, 300, 400):
            err_cls = np.empty(reps)
            err_full = np.empty(reps)
            err_alt = np.empty(reps)
            for r in range(reps):
                spec = SketchSpec("gaussian", m, derive_seed(18, "gaussian", m, r))
                SA, Sy, rec = _sketched(spec, p, sol)
                rec_f = shrinkage(rec.x_hat, SA,
                                  estimate_residual_full(p.A, p.y, rec.x_hat, d, m), d, m)
                rec_a = shrinkage_alt(rec.x_hat, SA,
                                      estimate_residual_sketched(SA, Sy, rec.x_hat, d, m), d, m)
                err_cls[r] = prediction_error(p.A, rec.x_hat, sol.x_ls)
                err_full[r] = prediction_error(p.A, rec_f.x_hat, sol.x_ls)
                err_alt[r] = prediction_error(p.A, rec_a.x_hat, sol.x_ls)
            assert err_alt.mean() < err_cls.mean()
            bars = err_full.std(ddof=1) + err_alt.std(ddof=1)
            assert abs(err_alt.mean() - err_full.mean()) <= bars
            rel_gaps.append((err_alt.mean() - err_full.mean()) / err_full.mean())
        # the residual estimates agree as m grows, so the gap closes
        assert rel_gaps[0] > rel_gaps[-1]
        assert rel_gaps[-1] <= 0.10


class TestPositivePart:
    def test_clamps_negative_factor_to_zero_vector(self):
        # huge residual forces a negative raw factor
        SA = np.vstack([np.eye(4), np.zeros((16, 4))])
        x = np.array([1.0, 0.0, 0.0, 0.0])
        A = np.vstack([np.eye(4), np.zeros((2, 4))])
        y = np.concatenate([x[:4], [10.0, 0.0]])  # residual^2 = 100
        r2_hat = estimate_residual_full(A, y, x, 4, 20)
        raw = shrinkage(x, SA, r2_hat, d=4, m=20)
        assert raw.shrink_factor < 0
        rec = positive_part(x, SA, r2_hat, d=4, m=20)
        assert rec.shrink_factor == 0.0
        assert np.all(rec.x_hat == 0.0)

    def test_noop_region_matches_shrinkage(self):
        SA = np.vstack([np.eye(4), np.zeros((16, 4))])
        x = np.array([1.0, 0.0, 0.0, 0.0])
        A = np.vstack([np.eye(4), np.zeros((2, 4))])
        y = np.concatenate([x[:4], np.sqrt([1.0, 1.0])])
        r2_hat = estimate_residual_full(A, y, x, 4, 20)
        raw = shrinkage(x, SA, r2_hat, d=4, m=20)
        rec = positive_part(x, SA, r2_hat, d=4, m=20)
        assert rec.shrink_factor == raw.shrink_factor
        np.testing.assert_array_equal(rec.x_hat, raw.x_hat)


class TestShrinkageMatrix:
    def test_single_column_reduces_to_vector_variant(self):
        p, sol = gen_gaussian_data(SyntheticSpec(n=128, d=10, rho=0.2, seed=19))
        d, m = 10, 40
        op = make_operator(SketchSpec("gaussian", m, 20), p.n)
        SA = apply(op, p.A)
        rec0 = classical(SA, apply(op, p.y))
        vec = shrinkage(rec0.x_hat, SA, estimate_residual_full(p.A, p.y, rec0.x_hat, d, m), d, m)
        X_hat = rec0.x_hat[:, None]
        mat = shrinkage_matrix(X_hat, SA, estimate_residual_full(p.A, p.y[:, None], X_hat, d, m),
                               d, m)
        assert mat.shrink_factor == pytest.approx(vec.shrink_factor, rel=1e-12)

    def test_zero_residual_factor_is_one(self):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((32, 4))
        X = rng.standard_normal((4, 3))
        Y = A @ X
        op = make_operator(SketchSpec("gaussian", 16, 22), 32)
        SA = apply(op, A)
        rec0 = classical(SA, apply(op, Y))
        rec = shrinkage_matrix(rec0.x_hat, SA, estimate_residual_full(A, Y, rec0.x_hat, 4, 16),
                               d=4, m=16)
        assert rec.shrink_factor == pytest.approx(1.0, abs=1e-12)


class TestRecordInvariants:
    @pytest.mark.parametrize("m,seed", [(40, 1), (64, 2), (100, 3)])
    def test_collinearity_and_factor_cap(self, m, seed):
        p, sol = gen_gaussian_data(SyntheticSpec(n=256, d=12, rho=0.3, seed=seed))
        op = make_operator(SketchSpec("gaussian", m, seed), p.n)
        SA = apply(op, p.A)
        Sy = apply(op, p.y)
        rec0 = classical(SA, Sy)
        for rec in (
            js_oracle(rec0.x_hat, SA, sol.r2, 12, m),
            shrinkage(rec0.x_hat, SA, estimate_residual_full(p.A, p.y, rec0.x_hat, 12, m), 12, m),
            shrinkage_alt(rec0.x_hat, SA, estimate_residual_sketched(SA, Sy, rec0.x_hat, 12, m),
                          12, m),
            positive_part(rec0.x_hat, SA, estimate_residual_full(p.A, p.y, rec0.x_hat, 12, m),
                          12, m),
        ):
            assert rec.shrink_factor <= 1.0
            np.testing.assert_array_equal(rec.x_hat, rec.shrink_factor * rec0.x_hat)

    def test_low_dimension_passthrough_all_variants(self):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((16, 2))
        y = rng.standard_normal(16)
        SA = rng.standard_normal((8, 2))
        x = rng.standard_normal(2)
        for rec in (
            js_oracle(x, SA, 1.0, 2, 8),
            shrinkage(x, SA, estimate_residual_full(A, y, x, 2, 8), 2, 8),
            shrinkage_alt(x, SA, estimate_residual_sketched(SA, SA @ x + 1.0, x, 2, 8), 2, 8),
            positive_part(x, SA, estimate_residual_full(A, y, x, 2, 8), 2, 8),
        ):
            assert rec.degenerate and rec.shrink_factor == 1.0
            np.testing.assert_array_equal(rec.x_hat, x)

    @pytest.mark.parametrize("fn", [js_oracle, shrinkage, shrinkage_alt, positive_part,
                                    shrinkage_matrix])
    @pytest.mark.parametrize("d, SA", [(2, np.eye(2)), (4, np.zeros((6, 4)))])
    def test_record_owns_its_array(self, fn, d, SA):
        # d <= 2 and a zero ||SA x|| are the paths that return the input unchanged
        x = np.arange(1.0, d + 1.0)
        rec = fn(x, SA, 1.0, d, 8)
        assert rec.degenerate
        assert x.flags.writeable and not rec.x_hat.flags.writeable
        x[0] = -1.0
        assert rec.x_hat[0] == 1.0

    @pytest.mark.parametrize("fn", [js_oracle, shrinkage, shrinkage_alt, positive_part,
                                    shrinkage_matrix])
    @pytest.mark.parametrize("d", [2, 4])
    def test_r2_hat_must_be_a_scalar(self, fn, d):
        # the old (x, SA, Sy, d, m) call shape passes the sketched target as r2_hat
        rng = np.random.default_rng(d)
        SA = rng.standard_normal((8, d))
        with pytest.raises(TypeError):
            fn(rng.standard_normal(d), SA, rng.standard_normal(8), d, 8)
