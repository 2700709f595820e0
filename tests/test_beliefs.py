"""Tests for Bayes linear adjustment of log-spectrum coefficients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from mrspec import beliefs, bench
from mrspec.beliefs import (
    EULER_GAMMA,
    LOG_PGRAM_VARIANCE,
    AdjustmentError,
    BeliefState,
    ForecastMoments,
    PeriodogramData,
    PriorSpec,
    adjust,
    adjustment_gain,
    difference_grid,
    forecast_moments,
    fourier_frequencies,
    log_periodogram,
    sequential_adjust,
    spectrum_summary,
)
from mrspec.models import DesignError, SampledSeries, SpectralModel, simulate, subsample


class TestBeliefState:
    def test_basic(self):
        s = BeliefState(np.zeros(3), np.eye(3))
        assert s.size == 3
        assert s.mean_logspectrum().evaluate(np.array([0.0]))[0] == 0.0

    def test_projects_tiny_negative_eigenvalue(self):
        var = np.eye(2)
        var[1, 1] = -1e-14
        s = BeliefState(np.zeros(2), var)
        assert np.min(np.linalg.eigvalsh(s.variance)) >= 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            BeliefState(np.zeros(2), np.diag([1.0, -0.5]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            BeliefState(np.zeros(3), np.eye(2))


class TestPriorSpec:
    def test_variances_decay(self):
        v = PriorSpec(size=16).variances()
        assert v[0] == 1.0
        assert np.all(np.diff(v) < 0)
        # half power at the cutoff index
        assert v[4] == pytest.approx(0.5)

    def test_to_state(self):
        s = PriorSpec(size=8, intercept_mean=1.5).to_state()
        assert s.mean[0] == 1.5
        assert np.all(s.mean[1:] == 0)
        assert np.allclose(s.variance, np.diag(PriorSpec(size=8).variances()))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PriorSpec(size=0)
        with pytest.raises(ValueError):
            PriorSpec(scale=-1.0)

    @pytest.mark.parametrize("field,value", [
        ("size", 0), ("size", 8.0), ("size", True), ("intercept_mean", "x"),
        ("intercept_mean", float("nan")), ("scale", 0), ("scale", "x"),
        ("smoothness", -1.0), ("cutoff", float("inf")), ("cutoff", None),
    ])
    def test_error_names_the_field(self, field, value):
        with pytest.raises(DesignError, match="prior.%s must be" % field):
            PriorSpec(**{field: value})


class TestFourierFrequencies:
    def test_interior_only(self):
        assert fourier_frequencies(8).tolist() == [1 / 8, 2 / 8, 3 / 8]
        assert fourier_frequencies(9).tolist() == [1 / 9, 2 / 9, 3 / 9, 4 / 9]

    def test_observed_frequencies_equal_layout(self):
        # forecasting from observed data must give the moments of its layout
        rng = np.random.default_rng(0)
        for n in range(beliefs.MIN_PERIODOGRAM_N, 71):
            data = log_periodogram(SampledSeries(rng.standard_normal(n), 2), "x")
            layout = PeriodogramData.layout("x", 2, n)
            assert np.array_equal(data.frequencies, layout.frequencies), n


class TestLogPeriodogram:
    def test_white_noise_moments(self):
        # log of an exponential(mean f) ordinate has mean log f - gamma_EM
        # and variance pi^2/6
        rng_seeds = range(400)
        n = 64
        logs = []
        for s in rng_seeds:
            series = simulate(SpectralModel(), n, seed=s)
            logs.append(log_periodogram(series).log_periodogram)
        logs = np.asarray(logs)
        assert logs.mean() == pytest.approx(-EULER_GAMMA, abs=0.04)
        assert logs.var() == pytest.approx(LOG_PGRAM_VARIANCE, abs=0.12)

    def test_frequency_layout(self):
        series = simulate(SpectralModel(), 32, seed=0)
        data = log_periodogram(series, "x")
        assert np.allclose(data.frequencies, fourier_frequencies(32))
        assert data.series_id == "x"
        assert data.stride == 1

    def test_subsampled_keeps_stride(self):
        base = simulate(SpectralModel(), 40, seed=1)
        data = log_periodogram(subsample(base, 2))
        assert data.stride == 2

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            log_periodogram(SampledSeries(np.zeros(4), 1))


class TestForecastMoments:
    def test_noise_floor_on_diagonal(self):
        prior = PriorSpec(size=8).to_state()
        layout = PeriodogramData.layout("a", 1, 32)
        m = forecast_moments(prior, [layout], mc_samples=600, seed=0)
        assert np.all(np.diag(m.variance) >= LOG_PGRAM_VARIANCE - 1e-9)

    def test_deterministic_in_seed(self):
        prior = PriorSpec(size=8).to_state()
        layout = PeriodogramData.layout("a", 2, 24)
        m1 = forecast_moments(prior, [layout], mc_samples=600, seed=5)
        m2 = forecast_moments(prior, [layout], mc_samples=600, seed=5)
        assert np.array_equal(m1.mean, m2.mean)
        assert np.array_equal(m1.variance, m2.variance)

    def test_degenerate_prior_gives_exact_mean(self):
        # zero prior variance: D has mean log fold - gamma_EM exactly
        prior = BeliefState(np.zeros(8), np.zeros((8, 8)))
        layout = PeriodogramData.layout("a", 1, 32)
        m = forecast_moments(prior, [layout], mc_samples=600, seed=0)
        # flat unit spectrum folds to itself, log 1 = 0
        assert np.allclose(m.mean, -EULER_GAMMA, atol=1e-12)
        assert np.allclose(m.cross, 0.0, atol=1e-12)

    def test_block_slices(self):
        prior = PriorSpec(size=8).to_state()
        a = PeriodogramData.layout("a", 1, 16)
        b = PeriodogramData.layout("b", 2, 20)
        m = forecast_moments(prior, [a, b], mc_samples=600, seed=0)
        slices = dict(m.block_slices())
        assert slices["a"] == slice(0, 7)
        assert slices["b"] == slice(7, 7 + 9)

    def test_even_stride_adjustment_symmetric_about_quarter(self):
        # stride-2 data cannot tell omega from 1/2 - omega, and reflection
        # antithetics make that exact in the sampled moments: the adjusted
        # spectrum bands are mirror images about omega = 1/4
        prior = PriorSpec(size=8).to_state()
        layout = PeriodogramData.layout("a", 2, 16)
        m = forecast_moments(prior, [layout], mc_samples=600, seed=0)
        rng = np.random.default_rng(1)
        obs = m.mean + rng.standard_normal(len(m.mean))
        post = adjust(prior, m, obs)
        grid = np.linspace(0.05, 0.45, 9)
        s = spectrum_summary(post, grid, levels=(0.9,))
        assert np.allclose(s.mean, s.mean[::-1], atol=1e-10)
        assert np.allclose(s.sd, s.sd[::-1], atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(cells=st.lists(st.tuples(st.sampled_from([2, 4, 6]), st.integers(16, 40)),
                          min_size=1, max_size=3),
           size=st.integers(2, 12), scale=st.floats(0.1, 10.0),
           intercept=st.floats(-2.0, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_even_stride_cross_has_no_odd_rows(self, cells, size, scale, intercept, seed):
        # even-stride data are blind to beta_m -> (-1)^m beta_m, and the reflection
        # antithetics make Cov(beta_m, D) vanish exactly for odd m
        prior = PriorSpec(size=size, scale=scale, intercept_mean=intercept).to_state()
        layouts = [PeriodogramData.layout("s%d" % i, stride, n)
                   for i, (stride, n) in enumerate(cells)]
        cross = forecast_moments(prior, layouts, mc_samples=500, seed=seed).cross
        assert np.max(np.abs(cross[1::2])) <= 1e-12 * np.max(np.abs(cross))

    def test_rejects_small_sample(self):
        prior = PriorSpec(size=4).to_state()
        with pytest.raises(ValueError):
            forecast_moments(prior, [PeriodogramData.layout("a", 1, 16)], mc_samples=10)

    def test_small_sample_is_design_error_naming_mc_samples(self):
        prior = PriorSpec(size=4).to_state()
        with pytest.raises(DesignError, match="mc_samples must be >= 500, got 3"):
            forecast_moments(prior, [PeriodogramData.layout("a", 1, 16)], mc_samples=3)


class TestAdjust:
    def test_scalar_conjugate_case(self):
        # one unknown observed directly with known noise: Bayes linear agrees
        # with the normal-normal posterior in closed form
        prior = BeliefState(np.array([2.0]), np.array([[3.0]]))
        moments = ForecastMoments(
            mean=np.array([2.0]),
            variance=np.array([[3.0 + 0.5]]),
            cross=np.array([[3.0]]),
            blocks=(("d", 1),),
        )
        post = adjust(prior, moments, np.array([4.0]))
        want_var = 1.0 / (1.0 / 3.0 + 1.0 / 0.5)
        want_mean = want_var * (2.0 / 3.0 + 4.0 / 0.5)
        assert post.mean[0] == pytest.approx(want_mean, abs=1e-12)
        assert post.variance[0, 0] == pytest.approx(want_var, abs=1e-12)

    def test_variance_never_increases(self):
        prior = PriorSpec(size=8).to_state()
        layout = PeriodogramData.layout("a", 1, 32)
        m = forecast_moments(prior, [layout], mc_samples=1000, seed=2)
        post = adjust(prior, m, m.mean)
        assert np.trace(post.variance) <= np.trace(prior.variance) + 1e-12

    def test_observing_forecast_mean_keeps_prior_mean(self):
        prior = PriorSpec(size=8).to_state()
        layout = PeriodogramData.layout("a", 2, 24)
        m = forecast_moments(prior, [layout], mc_samples=1000, seed=3)
        post = adjust(prior, m, m.mean)
        assert np.allclose(post.mean, prior.mean, atol=1e-12)

    def test_rejects_shape_mismatch(self):
        prior = PriorSpec(size=4).to_state()
        layout = PeriodogramData.layout("a", 1, 16)
        m = forecast_moments(prior, [layout], mc_samples=600, seed=0)
        with pytest.raises(ValueError):
            adjust(prior, m, np.zeros(len(m.mean) + 1))

    def test_singular_data_variance_names_block(self):
        prior = BeliefState(np.zeros(2), np.eye(2))
        moments = ForecastMoments(
            mean=np.zeros(2),
            variance=np.zeros((2, 2)),
            cross=np.zeros((2, 2)),
            blocks=(("bad", 2),),
        )
        with pytest.raises(AdjustmentError, match="bad"):
            adjust(prior, moments, np.zeros(2))


class TestSequentialAdjust:
    def test_matches_single_shot(self):
        prior = PriorSpec(size=8).to_state()
        a = PeriodogramData.layout("a", 2, 20)
        b = PeriodogramData.layout("b", 1, 16)
        rng = np.random.default_rng(7)
        obs_a = rng.standard_normal(len(a.frequencies)) - EULER_GAMMA
        obs_b = rng.standard_normal(len(b.frequencies)) - EULER_GAMMA
        final, stages = sequential_adjust(prior, [a, b], [obs_a, obs_b],
                                          mc_samples=1000, seed=4)
        m = forecast_moments(prior, [a, b], mc_samples=1000, seed=4)
        single = adjust(prior, m, np.concatenate([obs_a, obs_b]))
        assert np.allclose(final.mean, single.mean, atol=1e-10)
        assert np.allclose(final.variance, single.variance, atol=1e-10)
        assert len(stages) == 2

    def test_stage_traces_monotone(self):
        prior = PriorSpec(size=8).to_state()
        a = PeriodogramData.layout("a", 2, 20)
        b = PeriodogramData.layout("b", 1, 16)
        obs_a = np.zeros(len(a.frequencies))
        obs_b = np.zeros(len(b.frequencies))
        _, stages = sequential_adjust(prior, [a, b], [obs_a, obs_b],
                                      mc_samples=1000, seed=4)
        traces = [np.trace(prior.variance)] + [np.trace(s.variance) for s in stages]
        assert np.all(np.diff(traces) <= 1e-12)

    def test_rejects_length_mismatch(self):
        prior = PriorSpec(size=4).to_state()
        a = PeriodogramData.layout("a", 1, 16)
        with pytest.raises(ValueError):
            sequential_adjust(prior, [a], [])


def assert_close(got, want, rel):
    """Agreement to ``rel`` relative to the largest entry of ``want`` (or 1)."""
    np.testing.assert_allclose(got, want, rtol=0, atol=rel * max(np.abs(want).max(), 1.0))


def leading_moments(moments, count):
    """The moments of the first ``count`` blocks, sliced by hand; their Var(D)
    factor is made afresh on first use."""
    end = sum(length for _, length in moments.blocks[:count])
    return ForecastMoments(moments.mean[:end], moments.variance[:end, :end],
                           moments.cross[:, :end], moments.blocks[:count])


# a stacking of 1-3 series layouts, each (stride, N)
STACKINGS = st.lists(st.tuples(st.integers(1, 4), st.integers(16, 40)), min_size=1, max_size=3)


def stacked_layouts(cells):
    return [PeriodogramData.layout("s%d" % i, stride, n) for i, (stride, n) in enumerate(cells)]


class TestSequentialAdjustProperties:
    @settings(max_examples=25, deadline=None)
    @given(cells=STACKINGS, size=st.integers(3, 10), seed=st.integers(0, 2**32 - 1))
    def test_stages_are_adjust_on_leading_blocks(self, cells, size, seed):
        prior = PriorSpec(size=size).to_state()
        layouts = stacked_layouts(cells)
        rng = np.random.default_rng(seed)
        observed = [rng.standard_normal(len(l.frequencies)) - EULER_GAMMA for l in layouts]
        final, stages = sequential_adjust(prior, layouts, observed, mc_samples=500, seed=seed)
        moments = forecast_moments(prior, layouts, 500, seed)
        joint = adjust(prior, moments, np.concatenate(observed))
        assert np.array_equal(final.mean, joint.mean)
        assert np.array_equal(final.variance, joint.variance)
        assert len(stages) == len(layouts)
        for k, stage in enumerate(stages, start=1):
            want = adjust(prior, leading_moments(moments, k), np.concatenate(observed[:k]))
            assert_close(stage.mean, want.mean, 1e-12)
            assert_close(stage.variance, want.variance, 1e-12)

    @settings(max_examples=15, deadline=None)
    @given(cells=STACKINGS, pick=st.integers(0, 2))
    def test_zero_variance_block_is_named(self, cells, pick):
        # zeroing one block's variance, but not its covariance with the other
        # blocks, leaves a Var(D) that no ridge makes positive definite
        layouts = stacked_layouts(cells)
        bad = pick % len(layouts)
        real = beliefs.forecast_moments

        def zeroed(*args):
            moments = real(*args)
            variance = moments.variance.copy()
            sl = moments.block_slices()[bad][1]
            variance[sl, sl] = 0.0
            return ForecastMoments(moments.mean, variance, moments.cross, moments.blocks)

        observed = [np.zeros(len(l.frequencies)) for l in layouts]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(beliefs, "forecast_moments", zeroed)
            with pytest.raises(AdjustmentError, match=r"dataset\(s\): s%d\)$" % bad):
                sequential_adjust(PriorSpec(size=6).to_state(), layouts, observed,
                                  mc_samples=500, seed=0)


def eigh_capped_cross(var_b, var_d, cross):
    """Reference cap by the symmetric square roots (eigh) of both variances:
    the capped Cov(beta, D) and the largest canonical correlation before it."""
    roots = []
    for var in (var_b, var_d):
        vals, vecs = np.linalg.eigh(var)
        roots.append((vecs * np.sqrt(vals) @ vecs.T, vecs / np.sqrt(vals) @ vecs.T))
    (root_b, inv_b), (root_d, inv_d) = roots
    u, s, vt = np.linalg.svd(inv_b @ cross @ inv_d, full_matrices=False)
    return root_b @ (u * np.minimum(s, 1.0) @ vt) @ root_d, s[0]


class TestOneFactorisation:
    def test_var_d_factored_once_and_no_data_sized_eigh(self, monkeypatch):
        prior = PriorSpec(size=8).to_state()
        layouts = [PeriodogramData.layout("a", 2, 20), PeriodogramData.layout("b", 1, 16),
                   PeriodogramData.layout("c", 3, 24)]
        observed = [np.zeros(len(l.frequencies)) for l in layouts]
        factored, eigh_shapes = [], []
        real_cho, real_eigh = beliefs.cho_factor, np.linalg.eigh

        def cho_factor(a, *args, **kwargs):
            factored.append(a.shape)
            return real_cho(a, *args, **kwargs)

        def eigh(a, *args, **kwargs):
            eigh_shapes.append(np.shape(a))
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(beliefs, "cho_factor", cho_factor)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        k = sum(len(l.frequencies) for l in layouts)
        sequential_adjust(prior, layouts, observed, mc_samples=600, seed=0)
        assert factored == [(k, k)]
        moments = forecast_moments(prior, layouts, 600, 1)
        adjust(prior, moments, np.concatenate(observed))
        adjustment_gain(moments)
        assert factored == [(k, k)] * 2
        assert set(eigh_shapes) == {(8, 8)}

    def test_cap_matches_eigh_whitening(self, monkeypatch):
        # interp_comparison(0)'s three layouts all fire the cap
        uncapped, moments = [], []
        real_cap, real_forecast = beliefs._cap_canonical_correlations, bench.forecast_moments

        def cap(var_b, factor_d, cross):
            uncapped.append(cross)
            return real_cap(var_b, factor_d, cross)

        def forecast(*args):
            moments.append(real_forecast(*args))
            return moments[-1]

        monkeypatch.setattr(beliefs, "_cap_canonical_correlations", cap)
        monkeypatch.setattr(bench, "forecast_moments", forecast)
        bench.interp_comparison(0)
        var_b = PriorSpec().to_state().variance
        assert len(moments) == len(uncapped) == 3
        for cross, m in zip(uncapped, moments):
            want, top = eigh_capped_cross(var_b, m.variance, cross)
            assert top > 1.0
            assert_close(m.cross, want, 1e-12)
            _, top_after = eigh_capped_cross(var_b, m.variance, m.cross)
            assert top_after <= 1.0 + 1e-12

    def test_uncapped_cross_comes_back_unchanged(self):
        prior = PriorSpec(size=8).to_state()
        m = forecast_moments(prior, [PeriodogramData.layout("a", 2, 30)], 600, 0)
        cross = 0.5 * m.cross
        _, top = eigh_capped_cross(prior.variance, m.variance, cross)
        assert top < 1.0
        assert beliefs._cap_canonical_correlations(prior.variance, m.factor, cross) is cross


class TestSpectrumSummary:
    def test_band_widths(self):
        state = BeliefState(np.array([1.0, 0.0]), np.diag([0.25, 0.0]))
        grid = np.array([0.1, 0.3])
        s = spectrum_summary(state, grid, levels=(0.9,))
        # sd is 0.5 everywhere (only the intercept is uncertain)
        assert np.allclose(s.sd, 0.5)
        lo, hi = s.bands[0.9]
        z = norm.ppf(0.95)
        assert np.allclose(hi - lo, 2 * z * 0.5)

    def test_default_bands_are_normal_quantiles(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        state = BeliefState(rng.standard_normal(4), a @ a.T)
        s = spectrum_summary(state, np.linspace(0.0, 0.5, 9))
        assert sorted(s.bands) == [0.5, 0.9]
        for level, (lo, hi) in s.bands.items():
            z = norm.ppf(0.5 + level / 2.0)
            assert np.array_equal(lo, s.mean - z * s.sd)
            assert np.array_equal(hi, s.mean + z * s.sd)

    def test_exponentiate(self):
        state = BeliefState(np.array([1.0]), np.array([[0.0]]))
        s = spectrum_summary(state, np.array([0.2]), exponentiate=True)
        assert s.mean[0] == pytest.approx(np.e)
        lo, hi = s.bands[0.5]
        assert lo[0] == pytest.approx(np.e) and hi[0] == pytest.approx(np.e)


class TestDifferenceGrid:
    def test_structure(self):
        s1 = BeliefState(np.array([1.0, 0.0]), np.eye(2))
        s2 = BeliefState(np.array([0.0, 1.0]), np.eye(2))
        grid = np.array([0.0, 0.25])
        out = difference_grid([s1, s2], grid)
        assert out.shape == (2, 2, 2)
        assert np.allclose(out[0, 0], [1.0, 1.0])
        assert np.allclose(out[0, 1], out[0, 0] - out[1, 1])
        assert np.allclose(out[1, 0], -out[0, 1])

    def test_rejects_mixed_sizes(self):
        s1 = BeliefState(np.zeros(2), np.eye(2))
        s2 = BeliefState(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError):
            difference_grid([s1, s2], np.array([0.1]))
