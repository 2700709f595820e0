"""Tests for exact Gaussian log-likelihoods and likelihood-surface scans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky, solve_triangular
from scipy.stats import multivariate_normal, norm

from mrspec import likelihood
from mrspec.likelihood import (
    ExperimentDesign,
    LikelihoodSurface,
    SurfaceScanner,
    default_omega_grid,
    exact_loglik,
    mc_average_surface,
    omega_surface,
)
from mrspec.models import SpectralModel, ar2_from_omega, autocovariance, simulate


class TestDefaultOmegaGrid:
    def test_open_interval(self):
        grid = default_omega_grid(201)
        assert grid[0] > 0 and grid[-1] < 0.5
        assert len(grid) == 201
        assert np.all(np.diff(grid) > 0)

    def test_equal_spacing(self):
        grid = default_omega_grid(9)
        assert np.allclose(np.diff(grid), 0.05)


class TestLikelihoodSurface:
    def test_align_idempotent(self):
        s = LikelihoodSurface(np.array([0.1, 0.2, 0.3]), np.array([-5.0, -1.0, -3.0]))
        a = s.align()
        assert a.aligned
        assert np.nanmax(a.loglik) == 0.0
        assert a.align() is a

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            LikelihoodSurface(np.array([0.2, 0.1]), np.zeros(2))

    def test_rejects_endpoint(self):
        with pytest.raises(ValueError):
            LikelihoodSurface(np.array([0.0, 0.1]), np.zeros(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            LikelihoodSurface(np.array([0.1, 0.2]), np.zeros(3))

    def test_rejects_misaligned_flag(self):
        with pytest.raises(ValueError):
            LikelihoodSurface(np.array([0.1, 0.2]), np.array([-1.0, -2.0]), True)


class TestExperimentDesign:
    def test_base_indices_zero_gap(self):
        d = ExperimentDesign(n_low=4, n_high=3, replicates=1, omega_true=0.3)
        # coarse stride-2 block then consecutive dense block starting right after
        assert d.base_indices().tolist() == [0, 2, 4, 6, 7, 8, 9]

    def test_base_indices_dense_only(self):
        d = ExperimentDesign(n_low=0, n_high=4, replicates=1, omega_true=0.3)
        assert d.base_indices().tolist() == [0, 1, 2, 3]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ExperimentDesign(n_low=0, n_high=0, replicates=1, omega_true=0.3)

    def test_rejects_bad_omega(self):
        with pytest.raises(ValueError):
            ExperimentDesign(n_low=4, n_high=0, replicates=1, omega_true=0.5)


class TestExactLoglik:
    def test_white_noise_matches_iid_normal(self):
        model = SpectralModel(innovation_variance=1.7)
        rng = np.random.default_rng(5)
        values = rng.standard_normal(8)
        got = exact_loglik(model, list(zip(range(8), values)))
        want = norm.logpdf(values, scale=np.sqrt(1.7)).sum()
        assert got == pytest.approx(want, abs=1e-10)

    def test_ar1_matches_analytic_covariance(self):
        phi, sigma2 = 0.6, 1.3
        model = SpectralModel(ar=(phi,), innovation_variance=sigma2)
        indices = np.array([0, 2, 3, 7, 11])
        rng = np.random.default_rng(9)
        values = rng.standard_normal(len(indices))
        lags = np.abs(np.subtract.outer(indices, indices))
        cov = sigma2 / (1 - phi**2) * phi**lags.astype(float)
        want = multivariate_normal(cov=cov).logpdf(values)
        got = exact_loglik(model, list(zip(indices, values)))
        assert got == pytest.approx(want, abs=1e-8)

    def test_subsampled_equals_reindexed(self):
        # observing every other point of the base process is the same
        # likelihood whether indices are passed as {0,2,4,...} or the
        # covariance is built from gamma(2h) directly
        model = SpectralModel(ar=(0.5, -0.2))
        rng = np.random.default_rng(3)
        values = rng.standard_normal(6)
        indices = 2 * np.arange(6)
        got = exact_loglik(model, list(zip(indices, values)))
        from mrspec.models import autocovariance

        gamma = autocovariance(model, 10)
        lags = np.abs(np.subtract.outer(indices, indices))
        cov = gamma[lags]
        want = multivariate_normal(cov=cov).logpdf(values)
        assert got == pytest.approx(want, abs=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(phi2=st.floats(-0.9, 0.9), u=st.floats(-0.9, 0.9), theta=st.floats(-0.9, 0.9),
           sigma2=st.floats(0.1, 10.0),
           indices=st.lists(st.integers(0, 200), min_size=1, max_size=25, unique=True),
           seed=st.integers(0, 2**32 - 1))
    def test_random_index_sets_match_dense_cholesky(self, phi2, u, theta, sigma2, indices,
                                                    seed):
        model = SpectralModel(ar=(u * (1.0 - phi2), phi2), ma=(theta,),
                              innovation_variance=sigma2)
        indices = np.asarray(indices)
        values = np.random.default_rng(seed).standard_normal(len(indices)) * np.sqrt(sigma2)
        gamma = autocovariance(model, int(indices.max() - indices.min()))
        chol = cholesky(gamma[np.abs(np.subtract.outer(indices, indices))], lower=True)
        w = solve_triangular(chol, values, lower=True)
        want = -0.5 * (len(values) * np.log(2 * np.pi) + w @ w) - np.sum(np.log(np.diag(chol)))
        got = exact_loglik(model, list(zip(indices, values)))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValueError):
            exact_loglik(SpectralModel(), [(0, 1.0), (0, 2.0)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            exact_loglik(SpectralModel(), [])


class TestOmegaSurface:
    def test_matches_pointwise_exact_loglik(self):
        grid = np.array([0.1, 0.25, 0.4])
        indices = np.arange(12)
        truth = SpectralModel(ar=ar2_from_omega(0.25, 0.9))
        values = simulate(truth, 12, seed=2).values
        surface = omega_surface(indices, values, grid)
        for g, ll in zip(grid, surface.loglik):
            model = SpectralModel(ar=ar2_from_omega(g, 0.9))
            want = exact_loglik(model, list(zip(indices, values)))
            assert ll == pytest.approx(want, abs=1e-8)

    def test_peak_near_truth_with_dense_data(self):
        grid = default_omega_grid(49)
        omega0 = 0.3
        truth = SpectralModel(ar=ar2_from_omega(omega0, 0.9))
        values = simulate(truth, 400, seed=11).values
        surface = omega_surface(np.arange(400), values, grid)
        peak = grid[np.nanargmax(surface.loglik)]
        assert abs(peak - omega0) < 0.03

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            omega_surface(np.arange(3), np.zeros(3), np.array([]))


class TestSurfaceScanner:
    def test_reuse_matches_fresh_scan(self):
        grid = np.array([0.15, 0.3])
        indices = np.array([0, 2, 4, 5, 6])
        scanner = SurfaceScanner(indices, grid)
        rng = np.random.default_rng(4)
        for _ in range(3):
            values = rng.standard_normal(len(indices))
            fresh = omega_surface(indices, values, grid)
            assert np.allclose(scanner.loglik(values), fresh.loglik)

    @pytest.mark.parametrize("modulus", [0.9, 0.999])
    def test_covariances_use_exact_model_autocovariances(self, monkeypatch, modulus):
        real, covariances = likelihood.cho_factor, []

        def recording(cov, lower):
            covariances.append(cov)
            return real(cov, lower=lower)

        monkeypatch.setattr(likelihood, "cho_factor", recording)
        indices = np.array([0, 2, 4, 6, 7, 8, 9])
        grid = default_omega_grid(25)
        SurfaceScanner(indices, grid, modulus, sigma2=1.3)
        lags = np.abs(np.subtract.outer(indices, indices))
        assert len(covariances) == len(grid)
        for omega0, cov in zip(grid, covariances):
            model = SpectralModel(ar=ar2_from_omega(omega0, modulus), innovation_variance=1.3)
            assert np.array_equal(cov, autocovariance(model, 9)[lags])

    def test_argument_contract(self):
        with pytest.raises(ValueError, match="quad_points"):
            SurfaceScanner(np.arange(4), np.array([0.2]), quad_points=100)
        with pytest.raises(ValueError, match="omega0"):
            SurfaceScanner(np.arange(4), np.array([0.2, 0.5]))


class TestBatchedLoglik:
    indices = np.array([0, 2, 4, 6, 7, 8, 9])
    grid = np.array([0.1, 0.2, 0.3, 0.4])

    def _values(self, replicates):
        return np.random.default_rng(8).standard_normal((replicates, len(self.indices)))

    def test_rows_match_single_calls_and_exact_loglik(self):
        scanner = SurfaceScanner(self.indices, self.grid)
        values = self._values(5)
        batch = scanner.loglik(values)
        assert batch.shape == (5, len(self.grid))
        for row, v in zip(batch, values):
            assert np.allclose(row, scanner.loglik(v), rtol=0, atol=1e-9)
            for ll, g in zip(row, self.grid):
                model = SpectralModel(ar=ar2_from_omega(g, 0.9))
                assert ll == pytest.approx(exact_loglik(model, zip(self.indices, v)), abs=1e-9)

    def test_failed_factorisation_is_nan_column(self, monkeypatch):
        real, calls = likelihood.cho_factor, []

        def fails_second(cov, lower):
            calls.append(None)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("forced failure")
            return real(cov, lower=lower)

        monkeypatch.setattr(likelihood, "cho_factor", fails_second)
        scanner = SurfaceScanner(self.indices, self.grid)
        batch = scanner.loglik(self._values(3))
        assert np.isnan(batch[:, 1]).all()
        assert np.isfinite(np.delete(batch, 1, axis=1)).all()
        single = scanner.loglik(self._values(1)[0])
        assert np.isnan(single[1]) and np.isfinite(np.delete(single, 1)).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_data_raises(self, bad):
        scanner = SurfaceScanner(self.indices, self.grid)
        values = self._values(3)
        values[1, 4] = bad
        with pytest.raises(ValueError):
            scanner.loglik(values)
        with pytest.raises(ValueError):
            scanner.loglik(values[1])
        with pytest.raises(ValueError):
            exact_loglik(SpectralModel(), zip(self.indices, values[1]))

    def test_wrong_length_raises(self):
        scanner = SurfaceScanner(self.indices, self.grid)
        with pytest.raises(ValueError):
            scanner.loglik(np.zeros((2, len(self.indices) + 1)))


class TestMcAverageSurface:
    def test_per_rep_matches_replicate_loop(self):
        design = ExperimentDesign(
            n_low=12, n_high=5, replicates=4, omega_true=0.2,
            grid=default_omega_grid(11), seed=5,
        )
        _, per_rep = mc_average_surface(design, quad_points=1024, keep_replicates=True)
        indices = design.base_indices()
        scanner = SurfaceScanner(indices, design.grid, quad_points=1024)
        truth = SpectralModel(ar=ar2_from_omega(design.omega_true, design.modulus))
        for r, row in enumerate(per_rep):
            path = simulate(truth, int(indices[-1]) + 1, design.seed ^ r, 1024)
            assert np.allclose(row, scanner.loglik(path.values[indices]), rtol=0, atol=1e-9)

    def test_aligned_and_deterministic(self):
        design = ExperimentDesign(
            n_low=20, n_high=4, replicates=3, omega_true=0.3,
            grid=default_omega_grid(15), seed=7,
        )
        s1 = mc_average_surface(design, quad_points=1024)
        s2 = mc_average_surface(design, quad_points=1024)
        assert s1.aligned
        assert np.nanmax(s1.loglik) == 0.0
        assert np.array_equal(s1.loglik, s2.loglik)

    def test_keep_replicates_shape_and_consistency(self):
        design = ExperimentDesign(
            n_low=16, n_high=0, replicates=4, omega_true=0.3,
            grid=default_omega_grid(9), seed=1,
        )
        surface, per_rep = mc_average_surface(design, quad_points=1024,
                                              keep_replicates=True)
        assert per_rep.shape == (4, 9)
        avg = per_rep.mean(axis=0)
        assert np.allclose(surface.loglik, avg - avg.max())

    def test_coarse_only_surface_symmetric_about_quarter(self):
        # with only stride-2 data the likelihood cannot tell omega0 from
        # 1/2 - omega0, so a symmetric grid gives a symmetric surface
        grid = np.array([0.1, 0.2, 0.3, 0.4])
        design = ExperimentDesign(
            n_low=30, n_high=0, replicates=2, omega_true=0.15,
            grid=grid, seed=3,
        )
        s = mc_average_surface(design, quad_points=2048)
        assert s.loglik[0] == pytest.approx(s.loglik[3], abs=1e-8)
        assert s.loglik[1] == pytest.approx(s.loglik[2], abs=1e-8)
