import tracemalloc

import numpy as np
import pytest

from sketchls import (
    SyntheticSpec,
    ar1_covariance,
    gen_gaussian_data,
    snr,
    solve_exact,
)


class TestSpecValidation:
    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=5, d=5, rho=1.0, seed=0)

    def test_rejects_nonpositive_snr(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=10, d=2, rho=0.0, seed=0)


class TestCovariance:
    def test_reconstruction_from_cholesky(self):
        for d in (4, 64, 256):
            C = ar1_covariance(d)
            L = np.linalg.cholesky(C)
            assert np.max(np.abs(L @ L.T - C)) <= 1e-10

    def test_entries(self):
        C = ar1_covariance(3)
        np.testing.assert_allclose(C, [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])


class TestGeneration:
    @pytest.mark.parametrize("rho", [0.01, 0.1, 1.0, 25.0])
    def test_snr_exact_by_construction(self, rho):
        _, sol = gen_gaussian_data(SyntheticSpec(n=200, d=15, rho=rho, seed=31))
        assert snr(sol) == pytest.approx(rho, rel=1e-10)
        assert sol.r2 == pytest.approx(1.0 / rho, rel=1e-10)
        assert sol.pred_energy == pytest.approx(1.0, rel=1e-12)

    def test_noise_lies_in_null_space(self):
        p, sol = gen_gaussian_data(SyntheticSpec(n=200, d=15, rho=0.5, seed=32))
        assert np.max(np.abs(p.A.T @ (p.y - p.A @ sol.x_ls))) <= 1e-9

    def test_planted_solution_matches_exact_solve(self):
        p, sol = gen_gaussian_data(SyntheticSpec(n=200, d=15, rho=0.5, seed=33))
        resolved = solve_exact(p)
        assert np.max(np.abs(resolved.x_ls - sol.x_ls)) <= 1e-8

    def test_deterministic_bitwise(self):
        spec = SyntheticSpec(n=64, d=8, rho=1.0, seed=34)
        p1, s1 = gen_gaussian_data(spec)
        p2, s2 = gen_gaussian_data(spec)
        assert np.array_equal(p1.A, p2.A)
        assert np.array_equal(p1.y, p2.y)
        assert np.array_equal(s1.x_ls, s2.x_ls)

    def test_matrix_target(self):
        spec = SyntheticSpec(n=128, d=10, rho=0.1, seed=35, k=4)
        p, sol = gen_gaussian_data(spec)
        assert p.y.shape == (128, 4)
        assert sol.x_ls.shape == (10, 4)
        assert sol.pred_energy == pytest.approx(1.0, rel=1e-12)
        assert sol.r2 == pytest.approx(10.0, rel=1e-10)
        resolved = solve_exact(p)
        assert np.max(np.abs(resolved.x_ls - sol.x_ls)) <= 1e-8


    def test_peak_holds_at_most_three_and_a_half_instance_arrays(self):
        # A, AB and the factorization's working copy of AB: the reflectors of A's raw QR
        # are released first, and the mean is added in place
        n, d = 4096, 50
        tracemalloc.start()
        try:
            gen_gaussian_data(SyntheticSpec(n=n, d=d, rho=1.0, seed=36))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * n * (d + 1) * 8


class TestReflectorNoise:
    @pytest.mark.parametrize("k", [None, 3])
    def test_matches_complete_q_formula_on_the_same_stream(self, k, monkeypatch):
        # reference: the null-space noise Q_full[:, d:] @ w of an explicit complete QR
        spec = SyntheticSpec(n=64, d=8, rho=0.5, seed=40, k=k)
        default_rng = np.random.default_rng
        generators = []

        def capture(seed):
            generators.append(default_rng(seed))
            return generators[-1]

        monkeypatch.setattr(np.random, "default_rng", capture)
        p, sol = gen_gaussian_data(spec)
        monkeypatch.undo()

        n, d = spec.n, spec.d
        rng = default_rng(spec.seed)
        A = 1.0 + rng.standard_normal((n, d)) @ np.linalg.cholesky(ar1_covariance(d)).T
        rng.standard_normal((d,) if k is None else (d, k))
        Q_full, _ = np.linalg.qr(A, mode="complete")
        noise = Q_full[:, d:] @ rng.standard_normal((n - d,) if k is None else (n - d, k))
        y_perp = noise / (np.sqrt(spec.rho) * np.linalg.norm(noise))

        assert np.array_equal(p.A, A)
        assert np.max(np.abs(sol.y_perp - y_perp)) / np.max(np.abs(y_perp)) <= 1e-12
        assert len(generators) == 1
        assert generators[0].bit_generator.state == rng.bit_generator.state
