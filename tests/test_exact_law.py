"""Gaussian cells drawn from their exact law, and error metrics from A's R factor.

The harness never realizes a Gaussian operator: S[A | b] has the law of
G R~ / sqrt(m), with R~ = `instance.R_tilde`.  Errors and
full-data residuals come from R for every family.  These tests compare
both against the explicit, A-based route they replace.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sketchls import (
    FAMILIES,
    DatasetFile,
    ExperimentConfig,
    ProblemInstance,
    SketchSpec,
    SyntheticSpec,
    apply,
    derive_seed,
    gen_gaussian_data,
    make_operator,
    prediction_error,
    run_experiment,
    sampling_weights,
    save_dense_csv,
    solve_exact,
)
from sketchls import estimators as est
from sketchls import harness
from sketchls.harness import resolve_instance

REL = 1e-10


def _sq(a) -> float:
    return float(np.sum(np.asarray(a) ** 2))


def _gram_gap(instance, r_tilde) -> float:
    """max |R~^T R~ - [A|b]^T [A|b]|, relative to the largest Gram entry."""
    AB = np.column_stack([instance.A, instance.target])
    gram = AB.T @ AB
    return float(np.max(np.abs(r_tilde.T @ r_tilde - gram)) / np.max(np.abs(gram)))


def _csv_source(tmp_path, A, y):
    path = tmp_path / "data.csv"
    save_dense_csv(ProblemInstance(A, y=y), path)
    return DatasetFile(path=str(path))


def _cfg(source, **overrides):
    base = dict(source=source, families=("gaussian",), m_values=(40,),
                estimators=("classical",), reps=3, master_seed=5)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestAugmentedFactor:
    @pytest.mark.parametrize("case", ["vector", "k=3", "file", "kappa"])
    def test_gram_identity(self, case, tmp_path):
        if case == "file":
            p, _ = gen_gaussian_data(SyntheticSpec(n=96, d=7, rho=0.5, seed=31))
            source, kappa = _csv_source(tmp_path, p.A, p.y), 0.0
        else:
            k = 3 if case == "k=3" else None
            source = SyntheticSpec(n=96, d=7, rho=0.5, seed=32, k=k)
            kappa = 2.0 if case == "kappa" else 0.0
        instance, _ = resolve_instance(_cfg(source, kappa=kappa))
        r_tilde = instance.R_tilde
        k = 1 if instance.Y is None else instance.Y.shape[1]
        assert r_tilde.shape == (instance.d + k, instance.d + k)
        assert np.all(np.tril(r_tilde, -1) == 0.0)
        assert _gram_gap(instance, r_tilde) <= REL

    def test_fewer_rows_than_columns_of_ab(self):
        rng = np.random.default_rng(37)
        p = ProblemInstance(rng.standard_normal((6, 3)), Y=rng.standard_normal((6, 5)))
        assert p.R_tilde.shape == (8, 8)
        assert np.all(p.R_tilde[6:] == 0.0)
        assert _gram_gap(p, p.R_tilde) <= REL

    def test_instance_factor_is_read_only(self):
        p, _ = gen_gaussian_data(SyntheticSpec(n=40, d=5, rho=1.0, seed=33))
        assert np.allclose(p.R.T @ p.R, p.A.T @ p.A, rtol=REL, atol=0)
        assert p.AB.flags.c_contiguous
        for arr in (p.R, p.R_tilde, p.AB):
            with pytest.raises(ValueError):
                arr[0] = 1.0


def _reference_rep(p, sol, family, m, seed, aux_seed, kinds, two_sketch, weights):
    """One repetition on the explicit route: errors and residuals from n-row products."""
    A, b, n, d = p.A, p.target, p.n, p.d

    def sketch(s):
        op = make_operator(SketchSpec(family, m, s), n, weights=weights)
        return apply(op, A), apply(op, b)

    SA, Sb = sketch(seed)
    rec0 = est.classical(SA, Sb)
    full = sketched = None
    if two_sketch:
        SA2, Sb2 = sketch(aux_seed)
        x_aux = est.classical(SA2, Sb2).x_hat
        full, sketched = _sq(A @ x_aux - b), _sq(SA2 @ x_aux - Sb2)
    recs = {
        "classical": lambda: rec0,
        "shrinkage": lambda: est.shrinkage(rec0.x_hat, SA, A, b, d, m, residual_sq=full),
        "shrinkage-alt": lambda: est.shrinkage_alt(rec0.x_hat, SA, Sb, d, m,
                                                   residual_sq=sketched),
        "positive-part": lambda: est.positive_part(rec0.x_hat, SA, A, b, d, m,
                                                   residual_sq=full),
        "shrinkage-fro": lambda: est.shrinkage_matrix(rec0.x_hat, SA, A, b, d, m,
                                                      residual_sq=full),
    }
    out = {}
    for kind in kinds:
        rec = recs[kind]()
        out[kind] = (prediction_error(A, rec.x_hat, sol.x_ls) / n, rec.shrink_factor)
    return out


class TestRFactorMetrics:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_equal_to_the_a_based_metrics(self, family):
        p, sol = gen_gaussian_data(SyntheticSpec(n=128, d=10, rho=0.2, seed=34))
        op = make_operator(SketchSpec(family, 40, 7), p.n, weights=sampling_weights(family, p.A))
        SA, Sy = apply(op, p.A), apply(op, p.y)
        x_cl = est.classical(SA, Sy).x_hat
        x_sh = est.shrinkage(x_cl, SA, p.A, p.y, p.d, 40).x_hat
        for x_hat in (x_cl, x_sh):
            fit = harness._fit_error(p.R, x_hat, sol.x_ls)
            assert fit == pytest.approx(prediction_error(p.A, x_hat, sol.x_ls), rel=REL)
            assert fit + sol.r2 == pytest.approx(_sq(p.A @ x_hat - p.y), rel=REL)

    @pytest.mark.parametrize("two_sketch", [False, True])
    @pytest.mark.parametrize("k, kinds", [
        (None, ("classical", "shrinkage", "shrinkage-alt", "positive-part")),
        (3, ("classical", "shrinkage-fro")),
    ])
    def test_harness_logs_match_the_explicit_route(self, two_sketch, k, kinds):
        families = tuple(f for f in FAMILIES if f != "gaussian")
        cfg = _cfg(SyntheticSpec(n=128, d=10, rho=0.1, seed=35, k=k), families=families,
                   estimators=kinds, two_sketch=two_sketch)
        res = run_experiment(cfg)
        p, sol = resolve_instance(cfg)
        for family in families:
            weights = sampling_weights(family, p.A)
            for r in range(cfg.reps):
                ref = _reference_rep(p, sol, family, 40, derive_seed(5, family, 40, r),
                                     derive_seed(5, family, 40, r, "aux"), kinds,
                                     two_sketch, weights)
                for kind in kinds:
                    cell = res.cell(family, 40, kind)
                    assert cell.per_rep_pred_err[r] == pytest.approx(ref[kind][0], rel=REL)
                    assert cell.per_rep_factor[r] == pytest.approx(ref[kind][1], rel=REL)


class TestGaussianCells:
    def test_drawn_from_g_r_tilde_without_n_row_work(self, monkeypatch):
        cfg = _cfg(SyntheticSpec(n=128, d=10, rho=0.1, seed=36, k=2),
                   estimators=("classical", "shrinkage-fro"), two_sketch=True)

        def refuse(*args, **kwargs):
            raise AssertionError("a Gaussian cell touched an n-row operation")

        for name in ("make_operator", "apply", "prediction_error"):
            monkeypatch.setattr(harness, name, refuse)
        res = run_experiment(cfg)
        p, sol = resolve_instance(cfg)
        r_tilde = p.R_tilde
        for r, seed in enumerate(res.cell("gaussian", 40, "classical").rep_seeds):
            assert seed == derive_seed(5, "gaussian", 40, r)
            SB = np.random.default_rng(seed).standard_normal((40, 12)) @ r_tilde / math.sqrt(40)
            x_hat = est.classical(SB[:, :10], SB[:, 10:]).x_hat
            expected = harness._fit_error(p.R, x_hat, sol.x_ls) / p.n
            assert res.cell("gaussian", 40, "classical").per_rep_pred_err[r] == expected

    @pytest.mark.parametrize("two_sketch", [False, True])
    def test_zero_residual_instance(self, tmp_path, two_sketch):
        # [diag; 0] factors without rounding, so the residual is exactly zero
        A = np.zeros((40, 4))
        A[:4] = np.diag([1.0, 2.0, 3.0, 4.0])
        cfg = _cfg(_csv_source(tmp_path, A, A @ np.array([1.0, -2.0, 3.0, 0.5])), m_values=(12,),
                   estimators=("classical", "js-oracle", "shrinkage", "shrinkage-alt",
                               "positive-part"), two_sketch=two_sketch)
        res = run_experiment(cfg)
        assert res.r2 == 0.0
        for cell in res.cells:
            assert cell.skipped is None and cell.reps == cfg.reps
            assert cell.mean_pred_err < 1e-20

    def test_same_law_as_the_explicit_operator(self):
        # Criterion 1's setting: (n, d, rho, m) = (256, 20, 1, 60).
        n, d, m, reps = 256, 20, 60, 400
        spec = SyntheticSpec(n=n, d=d, rho=1.0, seed=derive_seed(11, "datagen"))
        res = run_experiment(_cfg(spec, m_values=(m,), estimators=("classical", "shrinkage"),
                                  reps=reps, master_seed=11))
        p, sol = gen_gaussian_data(spec)
        explicit = {"classical": [], "shrinkage": []}
        for r in range(reps):
            op = make_operator(SketchSpec("gaussian", m, derive_seed(11, "explicit", r)), n)
            SA, Sy = apply(op, p.A), apply(op, p.y)
            x_cl = est.classical(SA, Sy).x_hat
            x_sh = est.shrinkage(x_cl, SA, p.A, p.y, d, m).x_hat
            explicit["classical"].append(prediction_error(p.A, x_cl, sol.x_ls) / n)
            explicit["shrinkage"].append(prediction_error(p.A, x_sh, sol.x_ls) / n)
        for kind, errs in explicit.items():
            assert stats.ks_2samp(res.cell("gaussian", m, kind).per_rep_pred_err,
                                  errs).pvalue > 0.01
        exact = d / (m - d - 1) * sol.r2 / n
        harness_mean = res.cell("gaussian", m, "classical").mean_pred_err
        assert harness_mean == pytest.approx(exact, rel=0.05)
        assert np.mean(explicit["classical"]) == pytest.approx(exact, rel=0.05)


@st.composite
def _problems(draw):
    d = draw(st.integers(1, 8))
    n = draw(st.integers(d + 2, 48))
    k = draw(st.one_of(st.none(), st.integers(1, 4)))
    m = draw(st.integers(d + 1, d + 20))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, d, k, m, seed


@settings(max_examples=60, deadline=None)
@given(_problems())
def test_factor_and_metric_identities(problem):
    n, d, k, m, seed = problem
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    b = rng.standard_normal(n if k is None else (n, k))
    p = ProblemInstance(A, y=b) if k is None else ProblemInstance(A, Y=b)
    sol = solve_exact(p)
    assert _gram_gap(p, p.R_tilde) <= REL

    op = make_operator(SketchSpec("gaussian", m, seed), n)
    x_hat = est.classical(apply(op, A), apply(op, b)).x_hat
    fit = harness._fit_error(p.R, x_hat, sol.x_ls)
    assert fit == pytest.approx(prediction_error(A, x_hat, sol.x_ls), rel=REL, abs=1e-300)
    assert fit + sol.r2 == pytest.approx(_sq(A @ x_hat - b), rel=REL)
