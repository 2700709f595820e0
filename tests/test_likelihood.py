"""Tests for exact Gaussian log-likelihoods and likelihood-surface scans."""

import warnings
from dataclasses import replace

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
)
from mrspec.models import (
    DesignError,
    NotPositiveDefiniteError,
    SpectralModel,
    ar2_from_omega,
    autocovariance,
    simulate,
)


def dense_oracle(indices, values, grid, modulus, sigma2=1.0):
    """The scan by definition: for each grid point, the Toeplitz covariance of
    the AR(2) model's exact autocovariances at the observed lags, factored by
    scipy's dense Cholesky; (R, G) for an (R, n) matrix of datasets."""
    indices, values = np.asarray(indices), np.atleast_2d(values)
    lags = np.abs(np.subtract.outer(indices, indices))
    out = np.empty((len(values), len(grid)))
    for i, omega0 in enumerate(grid):
        model = SpectralModel(ar=ar2_from_omega(omega0, modulus), innovation_variance=sigma2)
        chol = cholesky(autocovariance(model, int(lags.max()))[lags], lower=True)
        w = solve_triangular(chol, values.T, lower=True)
        out[:, i] = (-0.5 * (len(indices) * np.log(2 * np.pi) + np.sum(w * w, axis=0))
                     - np.sum(np.log(np.diag(chol))))
    return out


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
        assert np.nanmax(a.loglik) == 0.0
        assert np.array_equal(a.align().loglik, a.loglik)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            LikelihoodSurface(np.array([0.2, 0.1]), np.zeros(2))

    def test_rejects_endpoint(self):
        with pytest.raises(ValueError):
            LikelihoodSurface(np.array([0.0, 0.1]), np.zeros(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            LikelihoodSurface(np.array([0.1, 0.2]), np.zeros(3))

    @pytest.mark.parametrize("omegas", [[], [0.1, np.nan, 0.3]], ids=["empty", "nan"])
    def test_rejects_empty_or_nan_grid(self, omegas):
        # the empty grid was an IndexError and the NaN one was accepted
        with pytest.raises(ValueError, match="omegas must be nonempty and strictly increasing"):
            LikelihoodSurface(omegas, np.arange(len(omegas), dtype=float))


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

    @pytest.mark.parametrize("delta_low", [0, -2])
    def test_rejects_delta_low_below_one(self, delta_low):
        # delta_low = 0 used to repeat base indices and fail at every grid point
        with pytest.raises(DesignError, match="delta_low"):
            ExperimentDesign(n_low=4, n_high=2, replicates=1, omega_true=0.3,
                             delta_low=delta_low)


    @pytest.mark.parametrize("field,value", [
        ("replicates", 2.5), ("n_low", True), ("n_high", 2.5), ("delta_low", 2.0),
    ], ids=["replicates", "n_low", "n_high", "delta_low"])
    def test_rejects_non_integer_field(self, field, value):
        # each was accepted, and a fractional replicate count failed later in spawn
        fields = dict(n_low=4, n_high=2, replicates=2, omega_true=0.3)
        fields[field] = value
        with pytest.raises(DesignError, match="%s must be an integer, got %r" % (field, value)):
            ExperimentDesign(**fields)

    @pytest.mark.parametrize("modulus", [0.0, 1.0, 1.5])
    def test_rejects_modulus_outside_unit_interval(self, modulus):
        with pytest.raises(DesignError, match="modulus"):
            ExperimentDesign(n_low=4, n_high=2, replicates=1, omega_true=0.3, modulus=modulus)

    @pytest.mark.parametrize("grid", [[0.3, 0.2], [0.2, 0.2], [0.1, 0.5], [0.0, 0.1], [],
                                      [[0.1, 0.2]], [0.1, np.nan, 0.3]])
    def test_rejects_grid_before_simulating(self, monkeypatch, grid):
        # an unsorted grid, or one touching 0 or 1/2, or an empty one, used to be
        # simulated and scanned before a later stage failed on it
        monkeypatch.setattr(likelihood, "simulate_replicates", None)
        with pytest.raises(DesignError, match="grid"):
            mc_average_surface(ExperimentDesign(10, 2, 2, 0.1, grid=grid))


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
           seasonal_ar=st.lists(st.floats(-0.9, 0.9), max_size=1),
           seasonal_ma=st.lists(st.floats(-0.9, 0.9), max_size=1),
           period=st.integers(2, 12), sigma2=st.floats(0.1, 10.0),
           indices=st.lists(st.integers(0, 200), min_size=1, max_size=25, unique=True),
           seed=st.integers(0, 2**32 - 1))
    def test_random_index_sets_match_dense_cholesky(self, phi2, u, theta, seasonal_ar,
                                                    seasonal_ma, period, sigma2, indices, seed):
        # seasonal factors at periods 2-12 give states of dimension up to 14
        model = SpectralModel(ar=(u * (1.0 - phi2), phi2), ma=(theta,), seasonal_ar=seasonal_ar,
                              seasonal_ma=seasonal_ma, season_period=period,
                              innovation_variance=sigma2)
        indices = np.asarray(indices)
        values = np.random.default_rng(seed).standard_normal(len(indices)) * np.sqrt(sigma2)
        gamma = autocovariance(model, int(indices.max() - indices.min()))
        chol = cholesky(gamma[np.abs(np.subtract.outer(indices, indices))], lower=True)
        w = solve_triangular(chol, values, lower=True)
        want = -0.5 * (len(values) * np.log(2 * np.pi) + w @ w) - np.sum(np.log(np.diag(chol)))
        got = exact_loglik(model, list(zip(indices, values)))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(phi2=st.floats(-0.9, 0.9), u=st.floats(-0.9, 0.9),
           ma=st.lists(st.floats(-0.9, 0.9), max_size=1),
           seasonal_ar=st.lists(st.floats(-0.9, 0.9), max_size=1),
           seasonal_ma=st.lists(st.floats(-0.9, 0.9), max_size=1),
           period=st.integers(1, 12), sigma2=st.floats(0.1, 10.0),
           stride=st.sampled_from([2, 4, 6]), offset=st.integers(0, 5),
           steps=st.lists(st.integers(0, 60), min_size=1, max_size=20, unique=True),
           seed=st.integers(0, 2**32 - 1))
    def test_even_stride_likelihood_is_reflection_invariant(
            self, phi2, u, ma, seasonal_ar, seasonal_ma, period, sigma2, stride, offset, steps,
            seed):
        # multiplying full-polynomial coefficient k by (-1)^k maps f(w) to f(1/2 - w)
        # and gamma(h) to (-1)^h gamma(h), which no even gap can see (criterion 1's 1e-8)
        model = SpectralModel(ar=(u * (1.0 - phi2), phi2), ma=ma, seasonal_ar=seasonal_ar,
                              seasonal_ma=seasonal_ma, season_period=period,
                              innovation_variance=sigma2)
        ar_poly, ma_poly = model.full_ar_poly(), model.full_ma_poly()
        reflected = SpectralModel(ar=-ar_poly[1:] * (-1.0) ** np.arange(1, len(ar_poly)),
                                  ma=ma_poly[1:] * (-1.0) ** np.arange(1, len(ma_poly)),
                                  innovation_variance=sigma2)
        indices = offset + stride * np.asarray(steps)
        values = np.random.default_rng(seed).standard_normal(len(indices)) * np.sqrt(sigma2)
        observations = list(zip(indices, values))
        assert exact_loglik(reflected, observations) == pytest.approx(
            exact_loglik(model, observations), rel=0, abs=1e-8)

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValueError):
            exact_loglik(SpectralModel(), [(0, 1.0), (0, 2.0)])

    def test_fractional_index_is_named_not_truncated(self):
        with pytest.raises(ValueError, match="2.5"):
            exact_loglik(SpectralModel(ar=(0.5,)), [(0, 1.0), (2.5, 2.0)])
        with pytest.raises(ValueError, match="2.5"):
            SurfaceScanner(np.array([0.0, 2.5, 4.0]), default_omega_grid(5))
        # whole numbers of any numeric type are indices
        assert exact_loglik(SpectralModel(), [(0.0, 1.0), (2.0, 2.0)]) == pytest.approx(
            norm.logpdf([1.0, 2.0]).sum(), abs=1e-12)

    def test_observations_far_apart_are_independent(self):
        # 10^6 steps apart the correlation is far below rounding, and the scan's
        # cost grows with the log of the gap, not with the gap
        model = SpectralModel(ar=(0.5, -0.2), ma=(0.3,), seasonal_ar=(0.7,),
                              seasonal_ma=(-0.4,), season_period=12, innovation_variance=1.3)
        values = np.array([0.4, -1.1])
        got = exact_loglik(model, [(0, values[0]), (10**6, values[1])])
        want = norm.logpdf(values, scale=np.sqrt(autocovariance(model, 0)[0])).sum()
        assert got == pytest.approx(want, rel=0, abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            exact_loglik(SpectralModel(), [])


class TestOmegaSurface:
    def test_matches_pointwise_exact_loglik(self):
        grid = np.array([0.1, 0.25, 0.4])
        indices = np.arange(12)
        truth = SpectralModel(ar=ar2_from_omega(0.25, 0.9))
        values = simulate(truth, 12, seed=2).values
        surface = SurfaceScanner(indices, grid).loglik(values)
        for g, ll in zip(grid, surface):
            model = SpectralModel(ar=ar2_from_omega(g, 0.9))
            want = exact_loglik(model, list(zip(indices, values)))
            assert ll == pytest.approx(want, abs=1e-8)

    def test_peak_near_truth_with_dense_data(self):
        grid = default_omega_grid(49)
        omega0 = 0.3
        truth = SpectralModel(ar=ar2_from_omega(omega0, 0.9))
        values = simulate(truth, 400, seed=11).values
        surface = SurfaceScanner(np.arange(400), grid).loglik(values)
        peak = grid[np.nanargmax(surface)]
        assert abs(peak - omega0) < 0.03

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            SurfaceScanner(np.arange(3), np.array([]))


class TestSurfaceScanner:
    def test_reuse_matches_fresh_scan(self):
        grid = np.array([0.15, 0.3])
        indices = np.array([0, 2, 4, 5, 6])
        scanner = SurfaceScanner(indices, grid)
        rng = np.random.default_rng(4)
        for _ in range(3):
            values = rng.standard_normal(len(indices))
            fresh = SurfaceScanner(indices, grid).loglik(values)
            assert np.allclose(scanner.loglik(values), fresh)

    @pytest.mark.parametrize("modulus", [0.9, 0.999])
    def test_covariances_use_exact_model_autocovariances(self, modulus):
        # the dense oracle itself loses digits as the roots near the unit circle
        rtol = {0.9: 1e-12, 0.999: 1e-10}[modulus]
        indices = np.array([0, 2, 4, 6, 7, 8, 9])
        grid = default_omega_grid(25)
        values = np.random.default_rng(6).standard_normal((2, len(indices))) * 3.0
        got = SurfaceScanner(indices, grid, modulus, sigma2=1.3).loglik(values)
        want = dense_oracle(indices, values, grid, modulus, sigma2=1.3)
        assert np.allclose(got, want, rtol=rtol, atol=0)

    @settings(max_examples=50, deadline=None)
    @given(gaps=st.lists(st.integers(1, 10), min_size=0, max_size=39),
           start=st.integers(0, 50), modulus=st.floats(0.5, 0.999),
           sigma2=st.floats(0.5, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_random_index_sets_match_dense_cholesky(self, gaps, start, modulus, sigma2, seed):
        rng = np.random.default_rng(seed)
        indices = rng.permutation(start + np.concatenate([[0], np.cumsum(gaps, dtype=int)]))
        values = rng.standard_normal((3, len(indices))) * np.sqrt(sigma2)
        grid = default_omega_grid(7)
        got = SurfaceScanner(indices, grid, modulus, sigma2).loglik(values)
        want = dense_oracle(indices, values, grid, modulus, sigma2)
        assert np.allclose(got, want, rtol=1e-9, atol=0)

    def test_permuting_observations_leaves_surface_unchanged(self):
        indices = np.array([0, 3, 5, 6, 7, 12, 13, 20])
        values = np.random.default_rng(2).standard_normal((4, len(indices)))
        grid = default_omega_grid(15)
        want = SurfaceScanner(indices, grid, 0.95).loglik(values)
        perm = np.random.default_rng(3).permutation(len(indices))
        got = SurfaceScanner(indices[perm], grid, 0.95).loglik(values[:, perm])
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_duplicate_index_gives_nan_columns_without_warning(self):
        scanner = SurfaceScanner(np.array([0, 2, 2, 3]), default_omega_grid(5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = scanner.loglik(np.array([[0.5, -1.0, 0.3, 0.2], [1.0, 0.1, 0.1, -2.0]]))
        assert np.isnan(out).all()

    def test_prefix_lengths_match_scans_of_the_prefixes(self):
        indices = np.array([9, 0, 4, 2, 7, 8, 6])
        values = np.random.default_rng(7).standard_normal((3, len(indices)))
        grid = default_omega_grid(11)
        lengths = [7, 1, 4, 4]
        got = SurfaceScanner(indices, grid).loglik(values, lengths)
        assert got.shape == (4, 3, len(grid))
        order = np.argsort(indices)
        for length, surfaces in zip(lengths, got):
            keep = order[:length]
            want = SurfaceScanner(indices[keep], grid).loglik(values[:, keep])
            assert np.array_equal(surfaces, want)
        single = SurfaceScanner(indices, grid).loglik(values[0], [2])
        assert single.shape == (1, len(grid))

    @pytest.mark.parametrize("lengths", [[0], [8], [3, 9]])
    def test_prefix_lengths_out_of_range_raise(self, lengths):
        scanner = SurfaceScanner(np.arange(7), default_omega_grid(5))
        with pytest.raises(ValueError, match="prefix lengths"):
            scanner.loglik(np.zeros(7), lengths)

    def test_argument_contract(self):
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
        real = likelihood.arma_state_space

        def indefinite(points):
            def state_space(*args):
                # Cov(x_t, x^_{t+1|t}) > Var(x_t): the stationary state variance is indefinite
                transition, noise, stationary = real(*args)
                stationary[points] = [[1.0, 10.0], [10.0, 1.0]]
                return transition, noise, stationary
            return state_space

        monkeypatch.setattr(likelihood, "arma_state_space", indefinite(1))
        scanner = SurfaceScanner(self.indices, self.grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = scanner.loglik(self._values(3))
            single = scanner.loglik(self._values(1)[0])
        assert np.isnan(batch[:, 1]).all()
        assert np.isfinite(np.delete(batch, 1, axis=1)).all()
        assert np.isnan(single[1]) and np.isfinite(np.delete(single, 1)).all()
        # one model: the failed scan raises, naming where, instead of returning NaN
        monkeypatch.setattr(likelihood, "arma_state_space", indefinite(Ellipsis))
        model = SpectralModel(ar=ar2_from_omega(0.2, 0.9))
        with pytest.raises(NotPositiveDefiniteError, match="at index 2 "):
            exact_loglik(model, zip(self.indices, self._values(1)[0]))

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
        _, per_rep = mc_average_surface(design, keep_replicates=True)
        indices = design.base_indices()
        scanner = SurfaceScanner(indices, design.grid)
        truth = SpectralModel(ar=ar2_from_omega(design.omega_true, design.modulus))
        seeds = np.random.SeedSequence(design.seed).spawn(design.replicates)
        for row, seed in zip(per_rep, seeds, strict=True):
            path = simulate(truth, int(indices[-1]) + 1, seed)
            assert np.allclose(row, scanner.loglik(path.values[indices]), rtol=0, atol=1e-9)

    def test_aligned_and_deterministic(self):
        design = ExperimentDesign(
            n_low=20, n_high=4, replicates=3, omega_true=0.3,
            grid=default_omega_grid(15), seed=7,
        )
        s1 = mc_average_surface(design)
        s2 = mc_average_surface(design)
        assert np.nanmax(s1.loglik) == 0.0
        assert np.array_equal(s1.loglik, s2.loglik)

    def test_keep_replicates_shape_and_consistency(self):
        design = ExperimentDesign(
            n_low=16, n_high=0, replicates=4, omega_true=0.3,
            grid=default_omega_grid(9), seed=1,
        )
        surface, per_rep = mc_average_surface(design, keep_replicates=True)
        assert per_rep.shape == (4, 9)
        avg = per_rep.mean(axis=0)
        assert np.allclose(surface.loglik, avg - avg.max())

    def test_nested_designs_from_one_call_equal_separate_runs(self):
        design = ExperimentDesign(
            n_low=60, n_high=0, replicates=4, omega_true=1 / 12,
            grid=default_omega_grid(21), seed=9,
        )
        n_highs = [10, 0, 20, 10]
        nested = mc_average_surface(design, keep_replicates=True, n_highs=n_highs)
        assert len(nested) == len(n_highs)
        for n_high, (surface, per_rep) in zip(n_highs, nested):
            alone, alone_per_rep = mc_average_surface(
                replace(design, n_high=n_high), keep_replicates=True)
            assert np.array_equal(surface.loglik, alone.loglik)
            assert np.array_equal(per_rep, alone_per_rep)

    def test_nested_designs_are_checked(self):
        design = ExperimentDesign(n_low=0, n_high=3, replicates=1, omega_true=0.2)
        with pytest.raises(DesignError):
            mc_average_surface(design, n_highs=[3, 0])
        with pytest.raises(DesignError):
            mc_average_surface(design, n_highs=[])

    def test_coarse_only_surface_symmetric_about_quarter(self):
        # with only stride-2 data the likelihood cannot tell omega0 from
        # 1/2 - omega0, so a symmetric grid gives a symmetric surface
        grid = np.array([0.1, 0.2, 0.3, 0.4])
        design = ExperimentDesign(
            n_low=30, n_high=0, replicates=2, omega_true=0.15,
            grid=grid, seed=3,
        )
        s = mc_average_surface(design)
        assert s.loglik[0] == pytest.approx(s.loglik[3], abs=1e-8)
        assert s.loglik[1] == pytest.approx(s.loglik[2], abs=1e-8)
