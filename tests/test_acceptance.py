"""Acceptance gate: one test per criterion, each printed as PASS/FAIL.

Statistical criteria run at fixed seeds so the suite is deterministic;
tolerances are stated inline next to each assertion.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from sketchls import (
    ExperimentConfig,
    SteinInstance,
    SyntheticSpec,
    derive_seed,
    gen_gaussian_data,
    run_experiment,
    upper_bound_sa,
    verify_gram_identity,
    verify_residual_unbiased,
    verify_stein,
    write_results_csv,
)
from sketchls.sketches import FAMILIES, SketchSpec, as_matrix, make_operator


def _report(num, ok, detail):
    print(f"criterion {num:>2} [{'PASS' if ok else 'FAIL'}] {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def _paired_gap(res, family, m, kind_a, kind_b):
    """mean(err_a - err_b) and its paired standard error, on per-rep logs."""
    a = np.array(res.cell(family, m, kind_a).per_rep_pred_err)
    b = np.array(res.cell(family, m, kind_b).per_rep_pred_err)
    diff = a - b
    return diff.mean(), diff.std(ddof=1) / math.sqrt(len(diff))


@pytest.fixture(scope="module")
def closed_form_run():
    """(n, d, rho, m) = (256, 20, 1, 60), 500 Gaussian reps, classical only."""
    spec = SyntheticSpec(n=256, d=20, rho=1.0, seed=derive_seed(11, "datagen"))
    cfg = ExperimentConfig(source=spec, families=("gaussian",), m_values=(60,),
                           estimators=("classical",), reps=500, master_seed=11)
    start = time.perf_counter()
    res = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    return spec, res, elapsed


@pytest.fixture(scope="module")
def low_snr_sweep_cfg():
    spec = SyntheticSpec(n=1024, d=100, rho=0.1, seed=derive_seed(3, "datagen"))
    return ExperimentConfig(source=spec, families=("gaussian",),
                            m_values=(150, 200, 300),
                            estimators=("classical", "shrinkage"),
                            reps=100, master_seed=3)


@pytest.fixture(scope="module")
def low_snr_sweep_run(low_snr_sweep_cfg):
    start = time.perf_counter()
    res = run_experiment(low_snr_sweep_cfg)
    return low_snr_sweep_cfg, res, time.perf_counter() - start


def test_criterion_01_classical_error_closed_form(closed_form_run):
    _, res, elapsed = closed_form_run
    cell = res.cell("gaussian", 60, "classical")
    got = cell.mean_pred_err * res.n
    target = 20 / 39 * res.r2
    rel = abs(got - target) / target
    _report(1, rel <= 0.05 and elapsed < 60,
            f"mean pred err {got:.6f} vs 20/39*r2 = {target:.6f} "
            f"(rel {rel:.4f}, tol 0.05; {elapsed:.1f}s < 60s)")


def test_criterion_02_residual_estimates_unbiased(closed_form_run):
    spec, res, _ = closed_form_run
    p, sol = gen_gaussian_data(spec)
    mean_full, mean_sketched = verify_residual_unbiased(p, "gaussian", 60, 500, seed=11)
    rel_full = abs(mean_full - sol.r2) / sol.r2
    rel_sketched = abs(mean_sketched - sol.r2) / sol.r2
    _report(2, rel_full <= 0.02 and rel_sketched <= 0.02,
            f"full {mean_full:.4f}, sketched {mean_sketched:.4f} vs r2 {sol.r2:.4f} "
            f"(rel {rel_full:.4f}/{rel_sketched:.4f}, tol 0.02)")


def test_criterion_03_shrinkage_dominance_low_snr(low_snr_sweep_run):
    _, res, elapsed = low_snr_sweep_run
    details = []
    ok = elapsed < 300
    for m in (150, 200, 300):
        cls = res.cell("gaussian", m, "classical")
        shr = res.cell("gaussian", m, "shrinkage")
        gap, se = _paired_gap(res, "gaussian", m, "classical", "shrinkage")
        ok = ok and shr.mean_pred_err < cls.mean_pred_err and gap > 3 * se
        details.append(f"m={m}: gap/se={gap / se:.1f}")
    _report(3, ok, "; ".join(details) + f" (need > 3; {elapsed:.1f}s < 300s)")


def test_criterion_04_high_snr_convergence():
    spec = SyntheticSpec(n=1024, d=100, rho=10.0, seed=derive_seed(4, "datagen"))
    cfg = ExperimentConfig(source=spec, families=("gaussian",), m_values=(400,),
                           estimators=("classical", "shrinkage"), reps=100, master_seed=4)
    res = run_experiment(cfg)
    cls = res.cell("gaussian", 400, "classical").mean_pred_err
    shr = res.cell("gaussian", 400, "shrinkage").mean_pred_err
    rel = abs(shr - cls) / cls
    _report(4, rel <= 0.05, f"|shrinkage - classical|/classical = {rel:.4f} (tol 0.05)")


def test_criterion_05_sa_error_upper_bound():
    spec = SyntheticSpec(n=1024, d=100, rho=0.1, seed=derive_seed(5, "datagen"))
    cfg = ExperimentConfig(source=spec, families=("gaussian",), m_values=(200, 400),
                           estimators=("shrinkage",), reps=100, master_seed=5)
    res = run_experiment(cfg)
    ok = True
    details = []
    for m in (200, 400):
        cell = res.cell("gaussian", m, "shrinkage")
        bound = upper_bound_sa(res.d, m, res.r2, res.rho) / res.n
        se = cell.std_sa_err / math.sqrt(cell.reps)
        ok = ok and cell.mean_sa_err <= bound + 3 * se
        details.append(f"m={m}: sa {cell.mean_sa_err:.2e} <= bound {bound:.2e} + 3se")
    _report(5, ok, "; ".join(details))


def test_criterion_06_lower_bounds(closed_form_run):
    _, res, _ = closed_form_run
    cell = res.cell("gaussian", 60, "classical")
    d, m = 20, 60
    mean_raw = cell.mean_pred_err * res.n
    se_raw = cell.std_pred_err * res.n / math.sqrt(cell.reps)
    floor = d / m * res.r2
    tight = d / (m - d - 1) * res.r2
    rel = abs(mean_raw - tight) / tight
    _report(6, mean_raw >= floor - 3 * se_raw and rel <= 0.05,
            f"mean {mean_raw:.4f} >= (d/m)r2 {floor:.4f} - 3se and within "
            f"{rel:.4f} of tight value {tight:.4f} (tol 0.05)")


def test_criterion_07_stein_identity():
    rng = np.random.default_rng(77)
    d = 10
    eigvals = np.geomspace(1.0, 100.0, d)  # condition number exactly 100
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    sigma = (Q * eigvals) @ Q.T
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    ok = True
    details = []
    for scale in (0.0, 1.0, 10.0):
        inst = SteinInstance(theta=scale * direction, sigma=sigma,
                             samples=100_000, seed=7)
        lhs, rhs = verify_stein(inst, 0.02)
        rel = abs(lhs - rhs) / abs(rhs)
        ok = ok and rel <= 0.02
        details.append(f"|theta|={scale:g}: rel {rel:.4f}")
    _report(7, ok, "; ".join(details) + " (tol 0.02)")


def test_criterion_08_gram_identity_all_families():
    n, m, reps, seed = 32, 16, 10_000, 1
    ok = True
    details = []
    for family in FAMILIES:
        dev = verify_gram_identity(family, n, m, reps, seed=seed)
        ok = ok and dev <= 0.05
        details.append(f"{family} {dev:.4f}")
    # CountSketch structural part: every draw has an exactly unit diagonal,
    # so the seed-averaged diagonal matches the identity to fp epsilon
    diag_acc = np.zeros(n)
    for r in range(reps):
        op = make_operator(SketchSpec("countsketch", m, derive_seed(seed, "countsketch", m, r)), n)
        S = as_matrix(op)
        diag_acc += np.einsum("ij,ij->j", S, S)
    diag_dev = float(np.max(np.abs(diag_acc / reps - 1.0)))
    ok = ok and diag_dev <= 1e-12
    _report(8, ok, "max|mean StS - I|: " + ", ".join(details)
            + f" (tol 0.05); countsketch diag dev {diag_dev:.1e} (tol 1e-12)")


def test_criterion_09_matrix_regression_dominance():
    spec = SyntheticSpec(n=512, d=50, rho=0.1, seed=derive_seed(9, "datagen"), k=5)
    cfg = ExperimentConfig(source=spec, families=("gaussian",), m_values=(150,),
                           estimators=("classical", "shrinkage-fro"), reps=100,
                           master_seed=9)
    res = run_experiment(cfg)
    gap, se = _paired_gap(res, "gaussian", 150, "classical", "shrinkage-fro")
    _report(9, gap > 3 * se, f"classical - shrinkage-fro gap/se = {gap / se:.1f} (need > 3)")


def test_criterion_10_other_sketch_families():
    spec = SyntheticSpec(n=1024, d=100, rho=0.1, seed=derive_seed(10, "datagen"))
    cfg = ExperimentConfig(source=spec, families=("uniform", "srht"), m_values=(200,),
                           estimators=("classical", "shrinkage"), reps=100, master_seed=10)
    res = run_experiment(cfg)
    ok = True
    details = []
    for family in ("uniform", "srht"):
        gap, se = _paired_gap(res, family, 200, "classical", "shrinkage")
        ok = ok and gap > 2 * se
        details.append(f"{family}: gap/se={gap / se:.1f}")
    _report(10, ok, "; ".join(details) + " (need > 2)")


def test_criterion_11_positive_part_very_low_snr():
    spec = SyntheticSpec(n=1024, d=100, rho=0.01, seed=derive_seed(111, "datagen"))
    cfg = ExperimentConfig(source=spec, families=("gaussian",), m_values=(150,),
                           estimators=("shrinkage", "positive-part"), reps=100,
                           master_seed=111)
    res = run_experiment(cfg)
    gap, se = _paired_gap(res, "gaussian", 150, "positive-part", "shrinkage")
    _report(11, gap <= se,
            f"mean(pp - shrinkage) = {gap:.2e} <= 1 paired se = {se:.2e}")


def test_criterion_12_deterministic_csv_across_threads(low_snr_sweep_cfg, tmp_path):
    res1 = run_experiment(low_snr_sweep_cfg, threads=1)
    res4 = run_experiment(low_snr_sweep_cfg, threads=4)
    p1, p4 = tmp_path / "t1.csv", tmp_path / "t4.csv"
    write_results_csv(res1.cells, p1)
    write_results_csv(res4.cells, p4)
    identical = p1.read_bytes() == p4.read_bytes()
    _report(12, identical, f"CSV bytes identical across thread counts: {identical}")
