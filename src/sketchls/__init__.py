"""Sketched least squares: random projections, shrinkage estimators,
closed-form error bounds, and a reproducible Monte Carlo harness."""

from .bounds import (
    BoundInputs,
    BoundReport,
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
from .core import ExactSolution, ProblemInstance, prediction_error, snr, solve_exact
from .config import load_config
from .datagen import SyntheticSpec, ar1_covariance, gen_gaussian_data
from .dataio import DatasetFile, load, save_dense_csv, write_results_csv
from .estimators import (
    KINDS,
    EstimateRecord,
    classical,
    estimate_residual_full,
    estimate_residual_sketched,
    js_oracle,
    positive_part,
    shrinkage,
    shrinkage_alt,
    shrinkage_matrix,
)
from .harness import (
    CellResult,
    ExperimentConfig,
    ExperimentResult,
    SteinInstance,
    replay_cell,
    run_experiment,
    verify_gram_identity,
    verify_residual_unbiased,
    verify_stein,
)
from .sketches import (
    FAMILIES,
    SketchOperator,
    SketchSpec,
    apply,
    as_matrix,
    derive_seed,
    leverage_scores,
    make_operator,
    sampling_weights,
)

__version__ = "0.1.0"

__all__ = [
    "BoundInputs", "BoundReport", "CellResult", "DatasetFile", "EstimateRecord",
    "ExactSolution", "ExperimentConfig", "ExperimentResult", "FAMILIES", "KINDS",
    "ProblemInstance", "SketchOperator", "SketchSpec", "SteinInstance", "SyntheticSpec",
    "apply", "ar1_covariance", "as_matrix", "classical", "derive_seed",
    "epsilon_prime", "estimate_residual_full", "estimate_residual_sketched",
    "eta_to_b_squared", "evaluate_report", "exact_classical_error", "gen_gaussian_data",
    "general_lower_bound", "js_oracle", "leverage_scores", "load", "load_config",
    "make_operator", "positive_part", "prediction_error", "ratio_r", "replay_cell",
    "run_experiment", "sampling_weights", "save_dense_csv", "shrinkage", "shrinkage_alt",
    "shrinkage_matrix", "snr", "solve_exact", "unbiased_lower_bound", "upper_bound_pred",
    "upper_bound_sa", "verify_gram_identity", "verify_residual_unbiased", "verify_stein",
    "write_results_csv",
]
