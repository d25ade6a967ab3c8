import math

import numpy as np
import pytest

from sketchls import (
    ExperimentConfig,
    SteinInstance,
    SyntheticSpec,
    estimate_residual_full,
    gen_gaussian_data,
    replay_cell,
    run_experiment,
    verify_gram_identity,
    verify_residual_unbiased,
    verify_stein,
    write_results_csv,
)
from sketchls.config import load_config, parse_config_text
from sketchls.core import qr_factor
from sketchls.errors import ConfigError, InvalidInputError, NotSpdError
from sketchls import estimators as est_mod
from sketchls import harness, sketches
from sketchls.harness import resolve_instance
from sketchls.sketches import (
    FAMILIES,
    SketchSpec,
    apply,
    as_matrix,
    derive_seed,
    make_operator,
    sampling_weights,
)


def _small_cfg(**overrides):
    base = dict(
        source=SyntheticSpec(n=128, d=10, rho=0.1, seed=51),
        families=("gaussian",),
        m_values=(40,),
        estimators=("classical", "shrinkage"),
        reps=20,
        master_seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            _small_cfg(families=("fourier",))

    def test_unknown_estimator(self):
        with pytest.raises(ConfigError):
            _small_cfg(estimators=("ridge",))

    def test_unsorted_m(self):
        with pytest.raises(ConfigError):
            _small_cfg(m_values=(60, 40))

    @pytest.mark.parametrize("m_values", [(-3, 20), (0, 40), (-1,)])
    def test_sketch_size_below_one(self, m_values):
        with pytest.raises(ConfigError, match=f"got m = {m_values[0]}"):
            _small_cfg(m_values=m_values)

    # a repeated entry would yield a second, identical cell that `cell` never returns
    def test_repeated_family(self):
        with pytest.raises(ConfigError, match="families must not repeat"):
            _small_cfg(families=("srht", "srht"))

    def test_repeated_estimator(self):
        with pytest.raises(ConfigError, match="estimators must not repeat"):
            _small_cfg(estimators=("classical", "classical"))

    @pytest.mark.parametrize("m_values", [(20, 20), (20, 40, 40)])
    def test_repeated_sketch_size(self, m_values):
        with pytest.raises(ConfigError, match="strictly ascending"):
            _small_cfg(m_values=m_values)

    # each cell's repetition log holds reps rows of three floats, so numpy must address it
    @pytest.mark.parametrize("reps", [2**62, 2**64])
    def test_reps_must_size_an_addressable_log(self, reps):
        with pytest.raises(InvalidInputError, match="too large for numpy"):
            _small_cfg(reps=reps)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_every_seed_follows_the_64_bit_rule(seed):
    with pytest.raises(ConfigError, match="64 unsigned bits"):
        _small_cfg(master_seed=seed)
    with pytest.raises(InvalidInputError, match="64 unsigned bits"):
        derive_seed(seed, "datagen")
    with pytest.raises(InvalidInputError, match="64 unsigned bits"):
        SyntheticSpec(n=8, d=2, rho=1.0, seed=seed)
    with pytest.raises(InvalidInputError, match="64 unsigned bits"):
        SteinInstance(theta=np.ones(3), sigma=np.eye(3), samples=1, seed=seed)


def test_largest_seed_is_accepted():
    assert _small_cfg(master_seed=2**64 - 1).master_seed == 2**64 - 1
    assert SteinInstance(np.ones(3), np.eye(3), samples=1, seed=2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize("check", [
    lambda: verify_gram_identity("gaussian", 8, 4, 0, seed=1),
    lambda: verify_gram_identity("rownorm", 0, 4, 10, seed=1),
    lambda: verify_residual_unbiased(gen_gaussian_data(SyntheticSpec(64, 4, 1.0, 3))[0],
                                     "gaussian", 20, 0, seed=1),
])
def test_verification_runs_need_a_repetition_and_a_row(check):
    with pytest.raises(InvalidInputError, match="must be >= 1"):
        check()


@pytest.mark.parametrize("threads", [0, -3])
def test_run_experiment_rejects_thread_counts_below_one(threads):
    with pytest.raises(ConfigError, match=f"threads must be >= 1, got {threads}"):
        run_experiment(_small_cfg(reps=2), threads=threads)


class TestRunExperiment:
    def test_single_rep_has_no_std(self, tmp_path):
        res = run_experiment(_small_cfg(reps=1))
        cell = res.cell("gaussian", 40, "classical")
        assert cell.reps == 1 and cell.std_pred_err is None
        assert cell.mean_pred_err == cell.log["pred_err"][0]
        path = tmp_path / "out.csv"
        write_results_csv(res.cells, path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[5] == "NA"  # std_pred_err column

    def test_aggregates_match_per_rep_logs(self):
        # the log's strided columns reduce bitwise as contiguous copies do, so the CSV keeps
        # the bytes it had when the columns were separate arrays
        res = run_experiment(_small_cfg())
        for cell in res.cells:
            pred, sa, factor = (np.array(cell.log[c].tolist()) for c in cell.log.dtype.names)
            assert cell.mean_pred_err == float(pred.mean())
            assert cell.std_pred_err == float(np.std(pred, ddof=1))
            assert cell.mean_sa_err == float(sa.mean())
            assert cell.std_sa_err == float(np.std(sa, ddof=1))
            assert cell.mean_shrink_factor == float(factor.mean())

    def test_replay_cell_is_bitwise(self):
        cfg = _small_cfg(m_values=(40, 64))
        res = run_experiment(cfg)
        replayed = replay_cell(cfg, "gaussian", 64)
        for kind in cfg.estimators:
            a = res.cell("gaussian", 64, kind)
            b = replayed.cell("gaussian", 64, kind)
            assert a.reps == b.reps == cfg.reps
            assert a.log.tobytes() == b.log.tobytes()

    def test_thread_count_invariance(self):
        cfg = _small_cfg(families=("gaussian", "countsketch"), m_values=(40, 64))
        a = run_experiment(cfg, threads=1)
        b = run_experiment(cfg, threads=4)
        assert len(a.cells) == len(b.cells)
        for ca, cb in zip(a.cells, b.cells):
            assert (ca.family, ca.m, ca.estimator) == (cb.family, cb.m, cb.estimator)
            assert ca.reps == cb.reps == cfg.reps
            assert ca.log.tobytes() == cb.log.tobytes()

    def test_shrinkage_cells_below_domain_are_skipped(self):
        res = run_experiment(_small_cfg(m_values=(12, 40)))
        skipped = res.cell("gaussian", 12, "shrinkage")
        assert skipped.skipped is not None and skipped.reps == 0
        assert skipped.mean_pred_err is None
        # classical still runs at m=12 >= d=10
        assert res.cell("gaussian", 12, "classical").reps == 20

    def test_cells_come_in_config_order(self):
        # shrinkage, listed last, is skipped at m = 12: it keeps its place after classical
        cfg = _small_cfg(families=("rownorm", "gaussian"), m_values=(12, 40), reps=3)
        res = run_experiment(cfg)
        assert [(c.family, c.m, c.estimator) for c in res.cells] == [
            (f, m, k) for f in cfg.families for m in cfg.m_values for k in cfg.estimators]
        assert [c.skipped is not None for c in res.cells] == [False, True, False, False] * 2

    def test_classical_below_d_skipped(self):
        res = run_experiment(_small_cfg(m_values=(8, 40)))
        cell = res.cell("gaussian", 8, "classical")
        assert cell.skipped is not None and "rank deficient" in cell.skipped

    def test_matrix_source_limits_estimators(self):
        cfg = _small_cfg(source=SyntheticSpec(n=128, d=10, rho=0.1, seed=52, k=3),
                         estimators=("classical", "shrinkage-fro", "shrinkage"))
        res = run_experiment(cfg)
        assert res.cell("gaussian", 40, "classical").reps == 20
        assert res.cell("gaussian", 40, "shrinkage-fro").reps == 20
        assert "matrix" in res.cell("gaussian", 40, "shrinkage").skipped

    @pytest.mark.parametrize("two_sketch", [False, True])
    def test_zero_residual_matrix_target_sweep(self, two_sketch):
        # rho = inf plants a target in range(A): r2 = 0, so nothing may shrink
        cfg = _small_cfg(source=SyntheticSpec(n=128, d=10, rho=math.inf, seed=54, k=3),
                         families=FAMILIES, m_values=(8, 30), reps=5,
                         estimators=("classical", "shrinkage-fro"), two_sketch=two_sketch)
        res = run_experiment(cfg)
        assert res.r2 == 0.0
        for cell in res.cells:
            if cell.m == 8:
                assert cell.reps == 0 and not cell.skipped.startswith("failed")
                continue
            assert cell.skipped is None and cell.reps == cfg.reps
            assert math.isfinite(cell.mean_pred_err)
            assert cell.mean_shrink_factor == 1.0

    def test_failed_cell_recorded_not_raised(self):
        # uniform sampling with m = d draws duplicate rows for this seed,
        # so the sketched matrix loses rank and the cell records the failure
        cfg = ExperimentConfig(
            source=SyntheticSpec(n=16, d=8, rho=1.0, seed=53),
            families=("uniform",), m_values=(8,), estimators=("classical",),
            reps=20, master_seed=99)
        res = run_experiment(cfg)
        cell = res.cell("uniform", 8, "classical")
        assert cell.skipped is not None and cell.skipped.startswith("failed:")

    def test_bound_columns_scaled_by_n(self):
        res = run_experiment(_small_cfg())
        cell = res.cell("gaussian", 40, "classical")
        assert cell.bound_exact_classical == pytest.approx(
            10 / 29 * res.r2 / res.n)
        assert cell.bound_lower_general == pytest.approx(10 / 40 * res.r2 / res.n)

    def test_two_sketch_mode_still_beats_classical(self):
        cfg = _small_cfg(two_sketch=True, reps=60)
        res = run_experiment(cfg)
        cls = res.cell("gaussian", 40, "classical")
        shr = res.cell("gaussian", 40, "shrinkage")
        assert shr.mean_pred_err < cls.mean_pred_err

    def test_paired_js_dominance_across_cells(self):
        cfg = _small_cfg(estimators=("classical", "js-oracle"),
                         m_values=(16, 40, 64), reps=100)
        res = run_experiment(cfg)
        for m in (16, 40, 64):
            cls = res.cell("gaussian", m, "classical")
            js = res.cell("gaussian", m, "js-oracle")
            se = cls.std_sa_err / math.sqrt(cls.reps)
            assert js.mean_sa_err <= cls.mean_sa_err + se

    def test_bound_sandwich(self):
        from sketchls.bounds import general_lower_bound, upper_bound_sa

        cfg = _small_cfg(reps=200)
        res = run_experiment(cfg)
        cls = res.cell("gaussian", 40, "classical")
        shr = res.cell("gaussian", 40, "shrinkage")
        lower = general_lower_bound(res.d, 40, res.r2)[0] / res.n
        upper = upper_bound_sa(res.d, 40, res.r2, res.rho) / res.n
        assert cls.mean_pred_err >= lower - 3 * cls.std_pred_err / math.sqrt(cls.reps)
        assert shr.mean_sa_err <= upper + 3 * shr.std_sa_err / math.sqrt(shr.reps)


class TestCellLog:
    """A cell's statistics are functions of one read-only log with a row per repetition."""

    STATISTICS = {
        "mean_pred_err": lambda log: log["pred_err"].mean(),
        "std_pred_err": lambda log: np.std(log["pred_err"], ddof=1),
        "mean_sa_err": lambda log: log["sa_err"].mean(),
        "std_sa_err": lambda log: np.std(log["sa_err"], ddof=1),
        "mean_shrink_factor": lambda log: log["factor"].mean(),
    }

    def test_log_is_read_only_and_holds_every_statistic(self):
        cfg = _small_cfg(estimators=("classical", "shrinkage", "js-oracle"))
        res = run_experiment(cfg)
        for cell in res.cells:
            assert cell.log.dtype == harness.LOG_DTYPE and cell.log.shape == (cfg.reps,)
            assert cell.reps == cfg.reps
            with pytest.raises(ValueError, match="read-only"):
                cell.log["pred_err"][0] = 0.0
            for name, stat in self.STATISTICS.items():
                assert getattr(cell, name) == float(stat(cell.log)), name

    def test_skipped_and_failed_cells_have_empty_logs(self, tmp_path):
        skipped = run_experiment(_small_cfg(m_values=(12,))).cell("gaussian", 12, "shrinkage")
        # the pattern of test_failed_cell_recorded_not_raised: m = d uniform rows lose rank
        failed = run_experiment(ExperimentConfig(
            source=SyntheticSpec(n=16, d=8, rho=1.0, seed=53), families=("uniform",),
            m_values=(8,), estimators=("classical",), reps=20, master_seed=99),
        ).cell("uniform", 8, "classical")
        assert skipped.skipped.startswith("m=12 <= d+3")
        assert failed.skipped.startswith("failed: ")
        path = tmp_path / "out.csv"
        write_results_csv([skipped, failed], path)
        header, *rows = path.read_text().splitlines()
        for cell, row in zip((skipped, failed), rows, strict=True):
            assert cell.log.shape == (0,) and cell.log.dtype == harness.LOG_DTYPE
            assert not cell.log.flags.writeable
            assert cell.reps == 0
            assert all(getattr(cell, name) is None for name in self.STATISTICS)
            fields = dict(zip(header.split(","), row.split(","), strict=True))
            assert fields["reps"] == "0"
            assert all(fields[name] == "NA" for name in self.STATISTICS)


class TestSteinCheck:
    def test_identity_covariance(self):
        inst = SteinInstance(theta=np.zeros(10), sigma=np.eye(10), samples=100_000, seed=60)
        lhs, rhs = verify_stein(inst, 0.02)
        assert abs(lhs - rhs) <= 0.02 * abs(rhs)
        # chi-square inverse moment: E[1/quad] = 1/(d-2), so both sides are near 2
        assert rhs == pytest.approx(10 - 64 / 8, abs=0.15)

    def test_smallest_valid_dimension(self):
        inst = SteinInstance(theta=np.zeros(3), sigma=np.eye(3) * 2.0,
                             samples=200_000, seed=63)
        lhs, rhs = verify_stein(inst, 0.03)
        assert abs(lhs - rhs) <= 0.03 * abs(rhs)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale, tol", [(1e100, 0.02), (1e300, 10.0)])
    def test_a_theta_that_swallows_its_noise(self, scale, tol):
        # theta + noise rounds to theta: invalid input within tol, and no overflow warning past it
        inst = SteinInstance(theta=np.full(3, scale), sigma=np.eye(3), samples=100, seed=64)
        if tol < 1:
            with pytest.raises(InvalidInputError, match="does not carry its noise"):
                verify_stein(inst, tol)
        else:  # X is theta: quad overflows to inf, the factor is 1 and the error 0
            assert verify_stein(inst, tol) == (0.0, 3.0)

    def test_naive_estimator_error_is_dimension(self):
        d, samples = 10, 100_000
        rng = np.random.default_rng(63)
        eig = np.geomspace(1, 50, d)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        sigma = (Q * eig) @ Q.T
        L = np.linalg.cholesky(sigma)
        X = rng.standard_normal((samples, d)) @ L.T
        quad = np.einsum("ij,ji->i", X, np.linalg.solve(sigma, X.T))
        assert abs(quad.mean() - d) <= 0.01 * d

    def test_rejects_non_spd(self):
        with pytest.raises(NotSpdError):
            SteinInstance(theta=np.zeros(4), sigma=-np.eye(4), samples=10, seed=0)
        with pytest.raises(NotSpdError):
            SteinInstance(theta=np.zeros(4), sigma=np.arange(16.0).reshape(4, 4),
                          samples=10, seed=0)


class TestResidualCheck:
    def test_identity_sketch_plug_in(self):
        p, sol = gen_gaussian_data(SyntheticSpec(n=64, d=8, rho=1.0, seed=64))
        n, d = 64, 8
        est = estimate_residual_full(p.A, p.y, sol.x_ls, d, n)
        assert est == pytest.approx((n - d - 1) / (n - 1) * sol.r2, rel=1e-12)

    def test_unbiased_near_boundary(self):
        # m close to d+1: large variance but still unbiased within 3 se.  The
        # estimate's variance involves second moments of the inverse Wishart
        # (SA^T SA)^-1, which are infinite for m <= d+3, so a standard-error rule
        # needs m well above that: m = d+5.
        p, sol = gen_gaussian_data(SyntheticSpec(n=64, d=8, rho=1.0, seed=65))
        m, reps = 13, 3000
        vals = np.empty(reps)
        for r in range(reps):
            op = make_operator(SketchSpec("gaussian", m, derive_seed(65, r)), 64)
            SA = np.asarray(op.dense) @ p.A
            Sy = op.dense @ p.y
            x = np.linalg.lstsq(SA, Sy, rcond=None)[0]
            vals[r] = estimate_residual_full(p.A, p.y, x, 8, m)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - sol.r2) <= 3 * se

    def test_means_target_r2(self):
        p, sol = gen_gaussian_data(SyntheticSpec(n=128, d=10, rho=0.5, seed=66))
        mean_full, mean_sketched = verify_residual_unbiased(p, "gaussian", 40, 400, seed=66)
        assert mean_full == pytest.approx(sol.r2, rel=0.05)
        assert mean_sketched == pytest.approx(sol.r2, rel=0.05)

    @pytest.mark.parametrize("family", [f for f in FAMILIES if f != "gaussian"])
    def test_non_gaussian_means_equal_the_explicit_loop(self, family):
        """Each repetition realizes `make_operator`'s S, applies it to [A | b] and factors SB as
        L^T R~, L the Cholesky factor of X^T X for X = SB R~^-1: bitwise, and within rtol
        1e-12 of the QR of SB."""
        p, _ = gen_gaussian_data(SyntheticSpec(n=64, d=5, rho=0.5, seed=68))
        m, reps, seed = 24, 20, 68
        weights = sampling_weights(family, p.A)
        means = {}
        for factor in ("gram", "qr"):
            full, sketched = np.empty(reps), np.empty(reps)
            for r in range(reps):
                op = make_operator(SketchSpec(family, m, derive_seed(seed, family, m, r)), p.n,
                                   weights=weights)
                SB = apply(op, p.AB)
                if factor == "gram":
                    X = SB @ p.R_tilde_inv
                    U = np.linalg.cholesky(X.T @ X).T @ p.R_tilde
                    rec, UA, Ub = est_mod.classical_factored(U, p.d, True)
                else:
                    rec, UA, Ub = est_mod.classical_factored(qr_factor(SB), p.d, True)
                r2_hat = harness.residual_estimates(("full", "sketched"), p, None, rec.x_hat,
                                                    UA, Ub, m)
                full[r], sketched[r] = r2_hat["full"], r2_hat["sketched"]
            means[factor] = (float(full.mean()), float(sketched.mean()))
        assert verify_residual_unbiased(p, family, m, reps, seed) == means["gram"]
        np.testing.assert_allclose(means["gram"], means["qr"], rtol=1e-12, atol=0)


class TestGramCheck:
    def test_countsketch_diagonal_is_structurally_exact(self):
        n, m = 32, 16
        for r in range(50):
            op = make_operator(SketchSpec("countsketch", m, derive_seed(67, r)), n)
            S = as_matrix(op)
            np.testing.assert_array_equal(np.diag(S.T @ S), np.ones(n))

    def test_uniform_small_m(self):
        assert verify_gram_identity("uniform", 32, 8, 10_000, seed=1) <= 0.1

    def test_gaussian(self):
        assert verify_gram_identity("gaussian", 32, 16, 4000, seed=1) <= 0.05


class TestConfigFile:
    def test_parse_and_run(self, tmp_path):
        out = tmp_path / "res.csv"
        text = f"""
# comment line
synthetic.n = 128
synthetic.d = 10
synthetic.rho = 0.1
sketch.families = gaussian, countsketch
sketch.m_values = 40, 64
experiment.estimators = classical, shrinkage
experiment.reps = 5
experiment.seed = 77
output.path = {out}
"""
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        cfg = load_config(cfg_path)
        assert cfg.families == ("gaussian", "countsketch")
        assert cfg.m_values == (40, 64)
        assert cfg.reps == 5 and cfg.master_seed == 77
        res = run_experiment(cfg)
        write_results_csv(res.cells, cfg.out_path)
        assert out.read_text().count("\n") == 9  # header + 8 cells

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("synthetic.q = 3")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("synthetic.n = 3\nsynthetic.n = 4")

    def test_missing_source(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("sketch.families = gaussian\nsketch.m_values = 4\n"
                        "experiment.estimators = classical\noutput.path = o.csv\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_both_sources_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("synthetic.n = 8\nsynthetic.d = 2\nsynthetic.rho = 1\n"
                        "data.path = x.csv\nsketch.families = gaussian\n"
                        "sketch.m_values = 4\nexperiment.estimators = classical\n"
                        "output.path = o.csv\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent.cfg")


class TestSamplingWeightsOncePerSweep:
    def _cfg(self, **overrides):
        return _small_cfg(families=("gaussian", "rownorm", "leverage"), m_values=(30, 40),
                          estimators=("classical", "shrinkage", "shrinkage-alt"), reps=5,
                          two_sketch=True, **overrides)

    def test_per_rep_logs_match_per_rep_weights(self, monkeypatch):
        cfg = self._cfg()
        scores = sketches.leverage_scores
        calls = []
        monkeypatch.setattr(sketches, "leverage_scores",
                            lambda A: calls.append(A.shape) or scores(A))
        once = run_experiment(cfg)
        assert len(calls) == 1

        A = resolve_instance(cfg)[0].A
        make = harness.make_operator
        monkeypatch.setattr(harness, "make_operator", lambda spec, n, weights=None: make(
            spec, n, weights=sampling_weights(spec.family, A)))
        per_rep = run_experiment(cfg)
        # once per sweep, then once per realization (two sketches per rep)
        assert len(calls) == 1 + 1 + len(cfg.m_values) * cfg.reps * 2
        for a, b in zip(once.cells, per_rep.cells, strict=True):
            assert a.reps == b.reps == cfg.reps
            assert a.log.tobytes() == b.log.tobytes()

    # one zero-weight row fails every repetition of each leverage cell
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("scores, reason", [
        (lambda A: np.r_[0.0, np.ones(A.shape[0] - 1)], "strictly positive"),
    ])
    def test_zero_weight_source_marks_cells_failed(self, monkeypatch, threads, scores, reason):
        monkeypatch.setattr(sketches, "leverage_scores", scores)
        cfg = self._cfg()
        res = run_experiment(cfg, threads=threads)
        for c in res.cells:
            if c.family == "leverage":
                assert c.reps == 0 and c.skipped.startswith("failed: ") and reason in c.skipped
            else:
                assert c.reps == cfg.reps and c.skipped is None


class TestOneApplyPerRealization:
    """Every non-Gaussian realization is applied once, to the sweep's read-only [A | b]."""

    @pytest.mark.parametrize("two_sketch", [False, True])
    def test_one_apply_per_non_gaussian_realization(self, monkeypatch, two_sketch):
        cfg = _small_cfg(families=FAMILIES, m_values=(30, 40), reps=3, two_sketch=two_sketch)
        operators, applied = [], []
        make, apply_ = harness.make_operator, harness.apply

        def counting_make(spec, n, weights=None):
            op = make(spec, n, weights=weights)
            operators.append(op)
            return op

        def counting_apply(op, M):
            applied.append((op, M))
            return apply_(op, M)

        monkeypatch.setattr(harness, "make_operator", counting_make)
        monkeypatch.setattr(harness, "apply", counting_apply)
        res = run_experiment(cfg)
        assert all(c.reps == cfg.reps for c in res.cells)
        realizations = (len(FAMILIES) - 1) * len(cfg.m_values) * cfg.reps * (1 + two_sketch)
        assert len(operators) == len(applied) == realizations
        assert [op for op, _ in applied] == operators
        assert "gaussian" not in {op.family for op in operators}

        p = resolve_instance(cfg)[0]
        B = applied[0][1]
        assert all(M is B for _, M in applied)
        assert B.shape == (p.n, p.d + 1) and B.flags.c_contiguous
        assert not B.flags.writeable
        np.testing.assert_array_equal(B, np.column_stack((p.A, p.y)))
