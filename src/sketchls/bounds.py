"""Closed-form error values and bounds for Gaussian-sketched least squares.

All functions are pure scalar formulas in the problem dimensions d, m,
the residual energy r2, the signal-to-noise ratio rho, and optional
prior knowledge (hypercube half-width B, spectrum extremes of A^T A,
subspace-embedding distortion eps).  Parameter regions where a formula
is not defined raise UndefinedBoundError with the reason;
``evaluate_report`` instead collects every quantity into a BoundReport
with explicit "undefined" markers so that curves over an m-grid can
distinguish "not applicable" from numerical failure.  Invalid inputs
raise InvalidInputError.  Each domain check is written `not x >= 0`, so
NaN fails it too; r2 and eps must also be finite, while rho = inf (a
zero residual) and B = inf (no prior knowledge) are valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvalidInputError, UndefinedBoundError


def exact_classical_error(d: int, m: int, r2: float) -> float:
    """Expected squared prediction error of the classical Gaussian sketch.

    Equals d/(m-d-1) * r2 for m > d+1.
    """
    if not 0 <= r2 < math.inf:
        raise InvalidInputError("r2 must be finite and nonnegative")
    if m <= d + 1:
        raise UndefinedBoundError(f"requires m > d+1 (d={d}, m={m})")
    return d / (m - d - 1) * r2


def unbiased_lower_bound(d: int, m: int, r2: float) -> float:
    """Error floor for any unbiased estimator built on the Gaussian sketch.

    Numerically identical to `exact_classical_error`, which achieves it;
    kept as a distinct named quantity because it bounds the whole
    unbiased class.
    """
    return exact_classical_error(d, m, r2)


def general_lower_bound(d: int, m: int, r2: float, B: float = math.inf,
                        sigma_min: float | None = None) -> tuple[float, bool]:
    """Worst-case error floor for arbitrary (possibly biased) estimators.

    With prior knowledge that the solution lies in a hypercube of
    half-width B the floor is (d/m) r2 (1 - pi^2 r2 / (m B^2 sigma_min));
    B = inf gives (d/m) r2.  Returns (value, vacuous): a negative value
    is floored at zero and flagged vacuous.
    """
    if not 0 <= r2 < math.inf:
        raise InvalidInputError("r2 must be finite and nonnegative")
    if not B > 0:
        raise InvalidInputError("B must be positive")
    base = d / m * r2
    if math.isinf(B):
        return base, False
    if sigma_min is None or not sigma_min > 0:
        raise InvalidInputError("finite B requires sigma_min > 0")
    value = base * (1.0 - math.pi**2 * r2 / (m * B**2 * sigma_min))
    if value < 0.0:
        return 0.0, True
    return value, False


def eta_to_b_squared(eta2: float, r2: float, d: int, sigma_max: float) -> float:
    """Hypercube half-width squared implied by the SNR cap rho <= eta^2.

    B^2 = eta^2 * r2 / (d * sigma_max).
    """
    if not (eta2 > 0 and r2 > 0 and d >= 1 and sigma_max > 0):
        raise InvalidInputError("all inputs must be positive")
    return eta2 * r2 / (d * sigma_max)


def epsilon_prime(d: int, m: int) -> float:
    """Slack term of the shrinkage upper bound.

    4(d-1)/d^2 + 2(d-2)^2 / (d (m-1)(m-d-3)), defined for m > d+3.
    """
    if d < 1:
        raise InvalidInputError("d must be >= 1")
    if m <= d + 3:
        raise UndefinedBoundError(f"requires m > d+3 (d={d}, m={m})")
    return 4 * (d - 1) / d**2 + 2 * (d - 2) ** 2 / (d * (m - 1) * (m - d - 3))


def upper_bound_sa(d: int, m: int, r2: float, rho: float) -> float:
    """Ceiling on the sketched-norm error of the shrinkage estimator.

    (d/m) r2 (1 - (1 - eps'(d,m)) / (1 + (m/d) rho)); rho may be inf, in
    which case the classical-rate ceiling (d/m) r2 is returned.
    """
    if d <= 2:
        raise UndefinedBoundError(f"requires d > 2 (d={d})")
    if not rho >= 0:
        raise InvalidInputError("rho must be nonnegative")
    eps_p = epsilon_prime(d, m)
    return d / m * r2 * (1.0 - (1.0 - eps_p) / (1.0 + m / d * rho))


def upper_bound_pred(d: int, m: int, r2: float, rho: float, eps: float) -> float:
    """Prediction-error ceiling: (1 + eps) times the sketched-norm ceiling.

    eps is the subspace-embedding distortion, measured empirically or
    chosen by the caller; it holds with high probability once m is large
    enough relative to d, a threshold with an unspecified constant that
    this function does not itself assert.
    """
    if not 0 <= eps < math.inf:
        raise InvalidInputError("eps must be finite and nonnegative")
    return (1.0 + eps) * upper_bound_sa(d, m, r2, rho)


def ratio_r(d: int, m: int, rho: float, eps: float = 0.0) -> float:
    """Ceiling on (shrinkage prediction error) / (classical prediction error).

    (1+eps) ((m-d-1)/m) (1 - (1 - eps'(d,m)) / (1 + (m/d) rho)); always
    below 1+eps and tends to 1 as m grows.
    """
    if d <= 2:
        raise UndefinedBoundError(f"requires d > 2 (d={d})")
    if not rho >= 0:
        raise InvalidInputError("rho must be nonnegative")
    if not 0 <= eps < math.inf:
        raise InvalidInputError("eps must be finite and nonnegative")
    eps_p = epsilon_prime(d, m)
    return (1.0 + eps) * (m - d - 1) / m * (1.0 - (1.0 - eps_p) / (1.0 + m / d * rho))


@dataclass(frozen=True)
class BoundInputs:
    """Everything the closed forms can consume.

    rho may be None (unknown), in which case the SNR-dependent bounds
    are reported undefined.  B defaults to infinity (no prior knowledge);
    when eta2 and sigma_max are given instead, B is derived from the SNR
    cap.
    """

    d: int
    m: int
    r2: float
    rho: float | None = None
    sigma_min: float | None = None
    sigma_max: float | None = None
    B: float = math.inf
    eta2: float | None = None
    eps: float = 0.0

    def __post_init__(self):
        if self.d < 1 or self.m < 1:
            raise InvalidInputError("d and m must be >= 1")
        # a NaN fails the domain check of every formula that reads it; these
        # catch one that no defined formula reads
        for name in ("r2", "rho", "sigma_min", "sigma_max", "B", "eta2", "eps"):
            value = getattr(self, name)
            if value is not None and math.isnan(value):
                raise InvalidInputError(f"{name} must be a number, got nan")
        if self.sigma_min is not None and self.sigma_max is not None:
            if self.sigma_min > self.sigma_max:
                raise InvalidInputError("sigma_min must not exceed sigma_max")


@dataclass(frozen=True)
class BoundReport:
    """Evaluated closed forms; None marks an undefined value, with the
    reason keyed by field name in `reasons`."""

    exact_classical: float | None
    unbiased_lower: float | None
    general_lower: float | None
    upper_sa: float | None
    upper_pred: float | None
    eps_prime: float | None
    ratio_R: float | None
    reasons: dict = field(default_factory=dict)

    FIELDS = ("exact_classical", "unbiased_lower", "general_lower",
              "upper_sa", "upper_pred", "eps_prime", "ratio_R")


def evaluate_report(inputs: BoundInputs) -> BoundReport:
    """Evaluate every bound, recording reasons for undefined entries."""
    d, m, r2, rho = inputs.d, inputs.m, inputs.r2, inputs.rho
    values: dict = {}
    reasons: dict = {}

    def attempt(name, fn, needs_rho=False):
        try:
            if needs_rho and rho is None:
                raise UndefinedBoundError("rho not supplied")
            values[name] = fn()
        except UndefinedBoundError as exc:
            values[name] = None
            reasons[name] = exc.reason

    def general_lower():
        B = inputs.B
        if math.isinf(B) and inputs.eta2 is not None:
            if inputs.sigma_max is None:
                raise UndefinedBoundError("eta2 given without sigma_max")
            B = math.sqrt(eta_to_b_squared(inputs.eta2, r2, d, inputs.sigma_max))
        if not math.isinf(B) and inputs.sigma_min is None:
            raise UndefinedBoundError("finite B requires sigma_min")
        value, vacuous = general_lower_bound(d, m, r2, B, inputs.sigma_min)
        if vacuous:
            reasons["general_lower"] = "vacuous: floored at zero"
        return value

    attempt("exact_classical", lambda: exact_classical_error(d, m, r2))
    attempt("unbiased_lower", lambda: unbiased_lower_bound(d, m, r2))
    attempt("eps_prime", lambda: epsilon_prime(d, m))
    attempt("general_lower", general_lower)
    attempt("upper_sa", lambda: upper_bound_sa(d, m, r2, rho), needs_rho=True)
    attempt("upper_pred", lambda: upper_bound_pred(d, m, r2, rho, inputs.eps), needs_rho=True)
    attempt("ratio_R", lambda: ratio_r(d, m, rho, inputs.eps), needs_rho=True)
    return BoundReport(reasons=reasons, **values)
