import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchls.bounds import (
    BoundInputs,
    epsilon_prime,
    eta_to_b_squared,
    evaluate_report,
    exact_classical_error,
    general_lower_bound,
    ratio_r,
    unbiased_lower_bound,
    upper_bound_pred,
    upper_bound_sa,
)
from sketchls.errors import InvalidInputError, UndefinedBoundError


class TestExactClassical:
    def test_value(self):
        assert exact_classical_error(100, 300, 1.0) == pytest.approx(100 / 199)

    def test_zero_residual(self):
        assert exact_classical_error(10, 40, 0.0) == 0.0

    def test_boundary_undefined(self):
        with pytest.raises(UndefinedBoundError):
            exact_classical_error(10, 11, 1.0)

    def test_decreasing_in_m(self):
        values = [exact_classical_error(10, m, 1.0) for m in range(13, 200, 7)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestUnbiasedLower:
    def test_equals_exact_classical(self):
        for d, m, r2 in [(3, 10, 1.0), (20, 60, 1.0), (100, 300, 2.5)]:
            assert unbiased_lower_bound(d, m, r2) == exact_classical_error(d, m, r2)

    def test_values(self):
        assert unbiased_lower_bound(20, 60, 1.0) == pytest.approx(20 / 39)
        assert unbiased_lower_bound(2, 10, 3.0) == pytest.approx(6 / 7)


class TestGeneralLower:
    def test_unconstrained(self):
        value, vacuous = general_lower_bound(100, 300, 1.0)
        assert value == pytest.approx(1 / 3) and not vacuous

    def test_zero_crossing(self):
        d, m, r2, sigma_min = 5, 40, 2.0, 0.7
        B = math.sqrt(math.pi**2 * r2 / (m * sigma_min))
        value, vacuous = general_lower_bound(d, m, r2, B=B, sigma_min=sigma_min)
        assert value == pytest.approx(0.0, abs=1e-15) and not vacuous

    def test_tiny_b_is_vacuous(self):
        value, vacuous = general_lower_bound(5, 40, 2.0, B=1e-6, sigma_min=0.7)
        assert value == 0.0 and vacuous

    def test_nondecreasing_in_b(self):
        values = [general_lower_bound(5, 40, 2.0, B=b, sigma_min=0.7)[0]
                  for b in (0.5, 1.0, 2.0, 8.0, math.inf)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_never_exceeds_unbiased_floor(self):
        for d, m in [(3, 10), (10, 30), (100, 300)]:
            assert general_lower_bound(d, m, 1.0)[0] <= unbiased_lower_bound(d, m, 1.0)


class TestEtaToB:
    def test_unit_case(self):
        assert eta_to_b_squared(1.0, 1.0, 1, 1.0) == 1.0

    def test_linear_in_r2(self):
        assert eta_to_b_squared(2.0, 4.0, 5, 3.0) == pytest.approx(
            2 * eta_to_b_squared(2.0, 2.0, 5, 3.0))

    def test_composition_with_lower_bound(self):
        d, m, r2, eta2 = 8, 50, 3.0, 16.0
        sigma_min, sigma_max = 0.5, 2.0
        B = math.sqrt(eta_to_b_squared(eta2, r2, d, sigma_max))
        value, _ = general_lower_bound(d, m, r2, B=B, sigma_min=sigma_min)
        expected = d / m * r2 * (1 - d * math.pi**2 * sigma_max / (m * eta2 * sigma_min))
        assert value == pytest.approx(expected, rel=1e-12)


class TestEpsilonPrime:
    def test_d_two_collapses_to_one(self):
        for m in (6, 10, 1000):
            assert epsilon_prime(2, m) == pytest.approx(1.0)

    def test_value(self):
        expected = 0.0396 + 2 * 98**2 / (100 * 999 * 897)
        assert epsilon_prime(100, 1000) == pytest.approx(expected, rel=1e-9)
        assert epsilon_prime(100, 1000) == pytest.approx(0.039814, abs=5e-7)

    def test_boundary(self):
        with pytest.raises(UndefinedBoundError):
            epsilon_prime(10, 13)


class TestUpperBounds:
    def test_infinite_snr_gives_classical_rate(self):
        assert upper_bound_sa(100, 400, 1.0, math.inf) == pytest.approx(100 / 400)

    def test_zero_snr_plug_in(self):
        d, m, r2 = 10, 50, 2.0
        assert upper_bound_sa(d, m, r2, 0.0) == pytest.approx(
            d / m * r2 * epsilon_prime(d, m))

    def test_small_dimension_undefined(self):
        with pytest.raises(UndefinedBoundError):
            upper_bound_sa(2, 40, 1.0, 0.5)

    def test_nondecreasing_in_rho(self):
        values = [upper_bound_sa(10, 50, 1.0, rho) for rho in (0.0, 0.1, 1.0, 10.0, math.inf)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_pred_scales_sa(self):
        base = upper_bound_sa(100, 400, 1.0, 0.1)
        assert upper_bound_pred(100, 400, 1.0, 0.1, 0.0) == base
        assert upper_bound_pred(100, 400, 1.0, 0.1, 0.1) == pytest.approx(1.1 * base)


class TestRatio:
    def test_below_one_plus_eps(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(3, 50))
            m = d + 4 + int(rng.integers(0, 200))
            rho = float(rng.uniform(0, 100))
            eps = float(rng.uniform(0, 0.3))
            assert ratio_r(d, m, rho, eps) < 1 + eps

    def test_limit_in_m(self):
        assert ratio_r(10, 10**7, 1.0, 0.0) == pytest.approx(1.0, abs=1e-4)

    def test_arithmetic_value(self):
        d, m, rho = 100, 400, 0.1
        eps_p = epsilon_prime(d, m)
        expected = (m - d - 1) / m * (1 - (1 - eps_p) / (1 + m / d * rho))
        assert ratio_r(d, m, rho, 0.0) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(d=st.integers(3, 500), excess=st.integers(4, 5000),
           rho=st.floats(0, 1e6) | st.just(math.inf), eps=st.floats(0, 10))
    def test_is_the_prediction_ceiling_over_the_classical_error(self, d, excess, rho, eps):
        m = d + excess
        assert ratio_r(d, m, rho, eps) == (upper_bound_pred(d, m, 1.0, rho, eps)
                                           / exact_classical_error(d, m, 1.0))


class TestReport:
    def test_full_report(self):
        report = evaluate_report(BoundInputs(d=100, m=300, r2=1.0, rho=0.1))
        assert report.exact_classical == pytest.approx(100 / 199)
        assert report.unbiased_lower == report.exact_classical
        assert report.general_lower == pytest.approx(1 / 3)
        assert report.upper_sa is not None and report.ratio_R is not None
        assert report.upper_pred == report.upper_sa  # eps defaults to 0

    def test_undefined_markers_carry_reasons(self):
        report = evaluate_report(BoundInputs(d=10, m=11, r2=1.0))
        assert report.exact_classical is None
        assert "m > d+1" in report.reasons["exact_classical"]
        assert report.upper_sa is None
        assert report.reasons["upper_sa"] == "rho not supplied"
        # the unconstrained floor is defined for every m
        assert report.general_lower == pytest.approx(10 / 11)

    def test_eta_route(self):
        inputs = BoundInputs(d=8, m=50, r2=3.0, rho=1.0, sigma_min=0.5,
                             sigma_max=2.0, eta2=4.0)
        report = evaluate_report(inputs)
        B = math.sqrt(eta_to_b_squared(4.0, 3.0, 8, 2.0))
        expected, _ = general_lower_bound(8, 50, 3.0, B=B, sigma_min=0.5)
        assert report.general_lower == pytest.approx(expected)

    def test_vacuous_flagged(self):
        report = evaluate_report(BoundInputs(d=5, m=40, r2=2.0, B=1e-6, sigma_min=0.7))
        assert report.general_lower == 0.0
        assert "vacuous" in report.reasons["general_lower"]


NAN, INF = math.nan, math.inf


class TestNonFiniteInputs:
    """Every domain check rejects NaN; r2 and eps must also be finite."""

    @pytest.mark.parametrize("call", [
        lambda: exact_classical_error(10, 40, NAN),
        lambda: exact_classical_error(10, 40, INF),
        lambda: unbiased_lower_bound(10, 40, NAN),
        lambda: general_lower_bound(10, 40, NAN),
        lambda: general_lower_bound(10, 40, INF),
        lambda: general_lower_bound(10, 40, 1.0, B=NAN, sigma_min=1.0),
        lambda: general_lower_bound(10, 40, 1.0, B=2.0, sigma_min=NAN),
        lambda: eta_to_b_squared(NAN, 1.0, 10, 2.0),
        lambda: eta_to_b_squared(4.0, NAN, 10, 2.0),
        lambda: eta_to_b_squared(4.0, 1.0, 10, NAN),
        lambda: upper_bound_sa(10, 40, 1.0, NAN),
        lambda: upper_bound_pred(10, 40, 1.0, 1.0, NAN),
        lambda: upper_bound_pred(10, 40, 1.0, 1.0, INF),
        lambda: ratio_r(10, 40, NAN),
        lambda: ratio_r(10, 40, 1.0, eps=NAN),
        lambda: ratio_r(10, 40, 1.0, eps=INF),
    ])
    def test_rejected(self, call):
        with pytest.raises(InvalidInputError):
            call()

    @pytest.mark.parametrize("field", ["r2", "rho", "sigma_min", "sigma_max", "B", "eta2",
                                       "eps"])
    def test_report_inputs_reject_nan(self, field):
        with pytest.raises(InvalidInputError, match=field):
            BoundInputs(**{"d": 10, "m": 40, "r2": 1.0, field: NAN})

    def test_infinite_rho_and_b_stay_valid(self):
        report = evaluate_report(BoundInputs(d=10, m=40, r2=1.0, rho=INF))
        assert report.upper_sa == pytest.approx(10 / 40)
        assert report.general_lower == pytest.approx(10 / 40)
        assert not report.reasons
