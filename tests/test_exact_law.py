"""Gaussian cells drawn from their exact law, and norms from triangular factors.

The harness never realizes a Gaussian operator: S[A | b] has the law of
G R~ / sqrt(m), with R~ = `instance.R_tilde`.  Errors come from A's R
factor, full-data residuals from R~'s blocks and sketched norms from U's,
for every family.  These tests compare all of them against the explicit,
A-based route they replace.
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
from sketchls.core import factor_blocks
from sketchls.errors import RankDeficientSketchError
from sketchls.harness import resolve_instance

REL = 1e-10


def _sq(a) -> float:
    return float(np.sum(np.asarray(a) ** 2))


def _gram_gap(instance, r_tilde) -> float:
    """max |R~^T R~ - [A|b]^T [A|b]|, relative to the largest Gram entry."""
    AB = np.column_stack([instance.A, instance.y])
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
        k = 1 if instance.y.ndim == 1 else instance.y.shape[1]
        assert r_tilde.shape == (instance.d + k, instance.d + k)
        assert np.all(np.tril(r_tilde, -1) == 0.0)
        assert _gram_gap(instance, r_tilde) <= REL

    def test_fewer_rows_than_columns_of_ab(self):
        rng = np.random.default_rng(37)
        p = ProblemInstance(rng.standard_normal((6, 3)), rng.standard_normal((6, 5)))
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


def _explicit_r2_hat(A, b, SA, Sb, x, d, m):
    """Each residual source's r2_hat at x, from explicit products and the written-out scales."""
    return {"full": (m - d - 1) / (m - 1) * _sq(A @ x - b),
            "sketched": m / (m - d) * _sq(SA @ x - Sb)}


def _reference_rep(p, sol, family, m, seed, aux_seed, kinds, two_sketch, weights):
    """One repetition on the explicit route: errors and residuals from n-row products.

    The auxiliary sketch is drawn only when a kind reads a residual estimate.
    """
    A, b, n, d = p.A, p.y, p.n, p.d

    def sketch(s):
        op = make_operator(SketchSpec(family, m, s), n, weights=weights)
        return apply(op, A), apply(op, b)

    SA, Sb = sketch(seed)
    rec0 = est.classical(SA, Sb)
    SA_r, Sb_r, x_r = SA, Sb, rec0.x_hat
    reads = {est.ESTIMATORS[kind].residual for kind in kinds} & {"full", "sketched"}
    if two_sketch and reads:
        SA_r, Sb_r = sketch(aux_seed)
        x_r = est.classical(SA_r, Sb_r).x_hat
    r2_hat = {"true": sol.r2}
    if reads:  # the scales divide by zero at m = d, where only classical runs
        r2_hat.update(_explicit_r2_hat(A, b, SA_r, Sb_r, x_r, d, m))
    out = {}
    for kind in kinds:
        entry = est.ESTIMATORS[kind]
        rec = rec0 if kind == "classical" else getattr(est, entry.function)(
            rec0.x_hat, SA, r2_hat[entry.residual], d, m)
        out[kind] = (prediction_error(A, rec.x_hat, sol.x_ls) / n,
                     prediction_error(SA, rec.x_hat, sol.x_ls) / n, rec.shrink_factor)
    return out


def _check_logs_against_the_explicit_route(k, kinds, m, two_sketch):
    """Each repetition's logs equal `_reference_rep`'s; a cell fails where a draw loses rank."""
    families = tuple(f for f in FAMILIES if f != "gaussian")
    cfg = _cfg(SyntheticSpec(n=128, d=10, rho=0.1, seed=35, k=k), families=families,
               m_values=(m,), estimators=kinds, two_sketch=two_sketch)
    res = run_experiment(cfg)
    p, sol = resolve_instance(cfg)
    for family in families:
        weights = sampling_weights(family, p.A)
        refs = []
        for r in range(cfg.reps):
            try:
                refs.append(_reference_rep(p, sol, family, m, derive_seed(5, family, m, r),
                                           derive_seed(5, family, m, r, "aux"), kinds,
                                           two_sketch, weights))
            except RankDeficientSketchError:
                refs.append(None)
        for kind in kinds:
            cell = res.cell(family, m, kind)
            if None in refs:
                assert cell.skipped.startswith("failed: SA is rank deficient"), cell.skipped
                continue
            for r, ref in enumerate(refs):
                assert cell.per_rep_pred_err[r] == pytest.approx(ref[kind][0], rel=REL)
                assert cell.per_rep_sa_err[r] == pytest.approx(ref[kind][1], rel=REL)
                assert cell.per_rep_factor[r] == pytest.approx(ref[kind][2], rel=REL)


class TestRFactorMetrics:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_equal_to_the_a_based_metrics(self, family):
        p, sol = gen_gaussian_data(SyntheticSpec(n=128, d=10, rho=0.2, seed=34))
        op = make_operator(SketchSpec(family, 40, 7), p.n, weights=sampling_weights(family, p.A))
        SA, Sy = apply(op, p.A), apply(op, p.y)
        x_cl = est.classical(SA, Sy).x_hat
        x_sh = est.shrinkage(x_cl, SA, est.estimate_residual_full(p.A, p.y, x_cl, p.d, 40),
                             p.d, 40).x_hat
        for x_hat in (x_cl, x_sh):
            fit = prediction_error(p.R, x_hat, sol.x_ls)
            assert fit == pytest.approx(prediction_error(p.A, x_hat, sol.x_ls), rel=REL)
            assert fit + sol.r2 == pytest.approx(_sq(p.A @ x_hat - p.y), rel=REL)

    @pytest.mark.parametrize("two_sketch", [False, True])
    @pytest.mark.parametrize("k, kinds", [
        (None, ("classical", "shrinkage", "shrinkage-alt", "positive-part")),
        (3, ("classical", "shrinkage-fro")),
    ])
    def test_harness_logs_match_the_explicit_route(self, two_sketch, k, kinds):
        _check_logs_against_the_explicit_route(k, kinds, 40, two_sketch)

    # m = d and d + 1 lie below d + k' (k' = 1 or 3), so U is zero below row m
    @pytest.mark.parametrize("two_sketch", [False, True])
    @pytest.mark.parametrize("m", [10, 11])
    @pytest.mark.parametrize("k", [None, 3])
    def test_classical_logs_match_where_u_is_padded(self, two_sketch, m, k):
        _check_logs_against_the_explicit_route(k, ("classical",), m, two_sketch)


@pytest.mark.parametrize("k, kinds", [
    (None, ("classical", "js-oracle", "shrinkage", "shrinkage-alt", "positive-part")),
    (3, ("classical", "shrinkage-fro")),
])
def test_a_repetition_reads_only_the_factor_blocks(monkeypatch, k, kinds):
    """Past the sketched solve a sweep reads only triangular-factor blocks, never SA, Sb, A or b.

    Every shrinkage call gets U_A (d+k' rows) and a float r2_hat; `prediction_error`
    gets only R (d rows) or U_A.
    """
    d, rows = 10, 10 + (k or 1)
    sa_rows, r2_types, error_rows, called = [], set(), [], set()

    def guarded(name, fn):
        def wrapper(x_hat, SA, r2_hat, d, m):
            called.add(name)
            sa_rows.append(len(SA))
            r2_types.add(type(r2_hat))
            return fn(x_hat, SA, r2_hat, d, m)
        return wrapper

    shrinkage_fns = {est.ESTIMATORS[kind].function for kind in est.KINDS} - {"classical"}
    for name in shrinkage_fns:
        monkeypatch.setattr(est, name, guarded(name, getattr(est, name)))

    def guarded_error(X, *args):
        error_rows.append(len(X))
        return prediction_error(X, *args)

    monkeypatch.setattr(harness, "prediction_error", guarded_error)
    for two_sketch in (False, True):
        cfg = _cfg(SyntheticSpec(n=128, d=d, rho=0.1, seed=38, k=k), families=FAMILIES,
                   estimators=kinds, reps=2, two_sketch=two_sketch)
        res = run_experiment(cfg)
        assert all(c.skipped is None for c in res.cells)
    assert called == {est.ESTIMATORS[kind].function for kind in kinds} - {"classical"}
    assert set(sa_rows) == {rows}
    assert r2_types == {float}
    assert set(error_rows) == {d, rows}


def test_two_sketch_draws_the_auxiliary_sketch_only_for_a_residual():
    """At m = d+1 every shrinkage kind is gated out, so a lost-rank auxiliary draw is unread."""
    base = dict(source=SyntheticSpec(n=128, d=10, rho=0.1, seed=35), families=("uniform",),
                m_values=(11,), estimators=("classical", "shrinkage"), reps=10, master_seed=1)
    one, two = (run_experiment(ExperimentConfig(**base, two_sketch=t)) for t in (False, True))
    for res in (one, two):
        assert res.cell("uniform", 11, "classical").skipped is None
        assert res.cell("uniform", 11, "shrinkage").skipped.startswith("m=11 <= d+3")
    assert (two.cell("uniform", 11, "classical").per_rep_pred_err
            == one.cell("uniform", 11, "classical").per_rep_pred_err)


class TestGaussianCells:
    def test_drawn_from_g_r_tilde_without_n_row_work(self, monkeypatch):
        cfg = _cfg(SyntheticSpec(n=128, d=10, rho=0.1, seed=36, k=2),
                   estimators=("classical", "shrinkage-fro"), two_sketch=True)

        def refuse(*args, **kwargs):
            raise AssertionError("a Gaussian cell touched an n-row operation")

        def refuse_n_rows(X, *args):
            if len(X) == cfg.source.n:
                refuse()
            return prediction_error(X, *args)

        for name in ("make_operator", "apply"):
            monkeypatch.setattr(harness, name, refuse)
        monkeypatch.setattr(harness, "prediction_error", refuse_n_rows)
        res = run_experiment(cfg)
        p, sol = resolve_instance(cfg)
        r_tilde = p.R_tilde
        for r, seed in enumerate(res.cell("gaussian", 40, "classical").rep_seeds):
            assert seed == derive_seed(5, "gaussian", 40, r)
            SB = np.random.default_rng(seed).standard_normal((40, 12)) @ r_tilde / math.sqrt(40)
            x_hat = est.classical(SB[:, :10], SB[:, 10:]).x_hat
            expected = prediction_error(p.R, x_hat, sol.x_ls) / p.n
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
            x_sh = est.shrinkage(x_cl, SA, est.estimate_residual_full(p.A, p.y, x_cl, d, m),
                                 d, m).x_hat
            explicit["classical"].append(prediction_error(p.A, x_cl, sol.x_ls) / n)
            explicit["shrinkage"].append(prediction_error(p.A, x_sh, sol.x_ls) / n)
        for kind, errs in explicit.items():
            assert stats.ks_2samp(res.cell("gaussian", m, kind).per_rep_pred_err,
                                  errs).pvalue > 0.01
        exact = d / (m - d - 1) * sol.r2 / n
        harness_mean = res.cell("gaussian", m, "classical").mean_pred_err
        assert harness_mean == pytest.approx(exact, rel=0.05)
        assert np.mean(explicit["classical"]) == pytest.approx(exact, rel=0.05)


# (d, m, rho): d from 3 to 50 and m/d from 1.1 to 10; the law depends on neither n nor rho,
# and at m <= d + 3 only classical runs
_LAW_GRID = [(3, 4, 0.1), (3, 12, 1.0), (3, 30, 10.0), (10, 11, 1.0), (10, 30, 0.1),
             (10, 100, 10.0), (25, 29, 10.0), (25, 250, 0.1), (50, 55, 1.0), (50, 150, 10.0)]


def test_every_gaussian_cell_follows_its_exact_law():
    """Classical errors follow F(d, m-d+1); js-oracle and shrinkage stay under bound_upper_sa.

    With a Gaussian sketch, ||R(x_hat - x_ls)||^2 = r2 v^T W^-1 v (v ~ N(0, I_d), W Wishart),
    so n pred_err / r2 (m-d+1)/d is F(d, m-d+1) by Hotelling's T^2, for any data.  Each
    cell runs one KS test against that law, and each shrinkage kind one one-sided z test
    of its mean sa_err against the paper's ceiling.  alpha = 0.01 bounds the chance that a
    correct build fails anywhere on the grid: each of the K checks runs at level alpha / K.
    About 2 s on one core.
    """
    alpha, reps = 0.01, 600
    pvalues, zscores = {}, {}
    for d, m, rho in _LAW_GRID:
        res = run_experiment(_cfg(SyntheticSpec(n=d + 8, d=d, rho=rho,
                                                seed=derive_seed(17, "datagen", d, m)),
                                  m_values=(m,), estimators=("classical", "js-oracle", "shrinkage"),
                                  reps=reps, master_seed=17))
        f = np.array(res.cell("gaussian", m, "classical").per_rep_pred_err) * res.n / res.r2
        pvalues[d, m, rho] = stats.kstest(f * (m - d + 1) / d, stats.f(d, m - d + 1).cdf).pvalue
        for kind in ("js-oracle", "shrinkage"):
            cell = res.cell("gaussian", m, kind)
            if cell.skipped is None:
                se = cell.std_sa_err / math.sqrt(cell.reps)
                zscores[d, m, rho, kind] = (cell.mean_sa_err - cell.bound_upper_sa) / se
    level = alpha / (len(pvalues) + len(zscores))
    assert len(zscores) == 16  # every cell with m > d + 3, both kinds
    assert {key: p for key, p in pvalues.items() if p <= level} == {}
    assert {key: z for key, z in zscores.items() if z >= stats.norm.isf(level)} == {}


@st.composite
def _problems(draw):
    d = draw(st.integers(1, 8))
    n = draw(st.integers(d + 2, 48))
    k = draw(st.one_of(st.none(), st.integers(1, 4)))
    m = draw(st.integers(d, d + 20))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, d, k, m, seed


@settings(max_examples=60, deadline=None)
@given(_problems())
def test_factor_and_metric_identities(problem):
    n, d, k, m, seed = problem
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    b = rng.standard_normal(n if k is None else (n, k))
    p = ProblemInstance(A, b)
    sol = solve_exact(p)
    assert _gram_gap(p, p.R_tilde) <= REL

    op = make_operator(SketchSpec("gaussian", m, seed), n)
    SA, Sb = apply(op, A), apply(op, b)
    x_hat = est.classical(SA, Sb).x_hat
    fit = prediction_error(p.R, x_hat, sol.x_ls)
    assert fit == pytest.approx(prediction_error(A, x_hat, sol.x_ls), rel=REL, abs=1e-300)
    assert fit + sol.r2 == pytest.approx(_sq(A @ x_hat - b), rel=REL)

    # U's blocks stand in for (SA, Sb), zero-padded below row m when m < d+k'
    rec, UA, Ub = est.classical_stacked(np.column_stack((SA, Sb)), d, k is None)
    assert np.array_equal(rec.x_hat, x_hat)
    if m <= d:  # outside every residual estimate's domain
        return
    assert est.estimate_residual_sketched(UA, Ub, x_hat, d, m) == pytest.approx(
        est.estimate_residual_sketched(SA, Sb, x_hat, d, m), rel=REL)
    sources = {"true", "sketched"}
    if m > d + 1:  # inside the full-data residual estimate's domain
        # R~'s blocks stand in for (A, b) in the full-data residual estimate
        RA, Rb = factor_blocks(p.R_tilde, d, k is None)
        assert est.estimate_residual_full(RA, Rb, x_hat, d, m) == pytest.approx(
            est.estimate_residual_full(A, b, x_hat, d, m), rel=REL)
        sources.add("full")

    # each kind's record on (U_A, r2_hat from the blocks) is its record on the explicit route;
    # every shrinkage function is checked on vector and matrix targets alike
    on_blocks = harness.residual_estimates(sources, p, sol.r2, x_hat, UA, Ub, m)
    explicit = {"true": sol.r2, **_explicit_r2_hat(A, b, SA, Sb, x_hat, d, m)}
    for kind, entry in est.ESTIMATORS.items():
        if entry.residual not in sources:
            continue
        fn = getattr(est, entry.function)
        u = fn(x_hat, UA, on_blocks[entry.residual], d, m)
        s = fn(x_hat, SA, explicit[entry.residual], d, m)
        assert (u.kind, u.degenerate) == (s.kind, s.degenerate) == (kind, d <= 2)
        assert u.shrink_factor == pytest.approx(s.shrink_factor, rel=REL, abs=REL)
        if entry.residual == "true":
            assert u.r2_estimate is s.r2_estimate is None
        else:
            assert u.r2_estimate == pytest.approx(s.r2_estimate, rel=REL)
        np.testing.assert_allclose(u.x_hat, s.x_hat, rtol=REL,
                                   atol=REL * float(np.max(np.abs(x_hat))))
