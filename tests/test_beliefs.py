"""Tests for Bayes linear adjustment of log-spectrum coefficients."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    difference_grid,
    forecast_moments,
    fourier_frequencies,
    log_periodogram,
    sequential_adjust,
    spectrum_summary,
)
from mrspec.models import (
    DesignError,
    SampledSeries,
    SpectralModel,
    basis_matrix,
    simulate,
    subsample,
)


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

    def test_steep_prior_reaches_zero_variance_without_warning(self):
        # (m / cutoff) ** 400 overflows from m = 3 on; its limit is a variance of 0
        v = PriorSpec(smoothness=200, cutoff=0.5).variances()
        assert v[0] == 1.0 and 0.0 < v[2] < v[1]
        assert np.all(v[3:] == 0.0)

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
        with pytest.raises(DesignError, match=r"series 'x' is too short .*N = 7, need N >= 8"):
            log_periodogram(SampledSeries(np.arange(7.0), 1), "x")

    @pytest.mark.parametrize("value,shown", [(np.inf, "inf"), (-np.inf, "-inf"),
                                             (np.nan, "nan")])
    def test_non_finite_value_is_error_naming_series_value_and_index(self, value, shown):
        # checked before centring, so numpy does not warn, and not reported as a
        # zero ordinate
        values = np.arange(32.0)
        values[[5, 9]] = value
        with pytest.raises(ValueError, match=r"series 'x' has a non-finite value %s at index 5$"
                                             % shown):
            log_periodogram(SampledSeries(values, 1), "x")

    def test_zero_ordinate_is_error_naming_series_and_frequency(self):
        # the log of a zero ordinate is -inf, and numpy would warn; the suite's
        # warning filter turns a warning into a test failure
        with pytest.raises(ValueError, match=r"series 'x' has a zero periodogram ordinate "
                                             r"at nu = 0\.03125"):
            log_periodogram(SampledSeries(np.full(32, 1.5), 1), "x")

    @pytest.mark.parametrize("values,largest", [
        # finite, but the squared ordinates overflow to +inf
        (np.random.default_rng(0).standard_normal(64) * 1e160, r"2\.32503e\+160"),
        # finite, but the mean overflows, and inf - inf makes every ordinate NaN
        (np.array([1.7e308, -1.7e308] * 8), r"1\.7e\+308"),
    ])
    def test_overflow_is_error_naming_series_and_largest_value(self, values, largest):
        # not a zero ordinate, not NaN or inf returned, and no numpy warning
        with pytest.raises(ValueError, match=r"series 'x' is too large for a periodogram "
                                             r"\(largest \|value\| %s\)" % largest):
            log_periodogram(SampledSeries(values, 1), "x")


class TestBatchedRowsMatchSingleRows:
    def test_log_periodogram_rows_match_log_periodogram(self):
        # strided views of a path matrix, as run_bench takes its segments
        paths = np.random.default_rng(0).standard_normal((7, 300))
        for view in (paths[:, :64], paths[:, 64::6], paths[:, 1:40:3]):
            rows = beliefs.log_periodogram_rows(view)
            for row, values in zip(rows, view):
                assert np.array_equal(row, log_periodogram(SampledSeries(values)).log_periodogram)

    def test_stacked_whitening_matches_single_rows(self):
        prior = PriorSpec(size=8).to_state()
        layouts = [PeriodogramData.layout("a", 1, 64), PeriodogramData.layout("b", 6, 64)]
        moments = forecast_moments(prior, layouts, 600, 0)
        observed = moments.mean + np.random.default_rng(1).standard_normal((9, len(moments.mean)))
        z = beliefs.whiten(moments, observed)
        linv = moments.inverse_factor
        assert np.array_equal(linv, np.tril(linv))
        for row, d_obs in zip(z, observed):
            assert np.array_equal(row, beliefs.whiten(moments, d_obs))
            assert_close(row, np.linalg.solve(np.linalg.cholesky(moments.variance),
                                              d_obs - moments.mean), 1e-12)


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

    @settings(max_examples=25, deadline=None)
    @given(even=st.booleans(), cells=st.lists(st.tuples(st.integers(1, 6), st.integers(8, 64)),
                                              min_size=1, max_size=5, unique=True),
           picks=st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True),
           size=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_select_is_the_forecast_of_its_blocks(self, even, cells, picks, size, seed):
        # the regression works column by column, so a forecast over more layouts
        # holds the moments of any of them as a sub-block; the draws agree when
        # both forecasts make the same reflection choice
        prior = PriorSpec(size=size).to_state()
        layouts = [PeriodogramData.layout("s%d" % i, 2 * stride if even else stride, n)
                   for i, (stride, n) in enumerate(cells)]
        chosen = [layouts[i] for i in picks if i < len(layouts)]
        assume(chosen and beliefs._reflection_symmetric(prior, chosen)
               == beliefs._reflection_symmetric(prior, layouts))
        got = forecast_moments(prior, layouts, mc_samples=600, seed=seed).select(
            [d.series_id for d in chosen])
        want = forecast_moments(prior, chosen, mc_samples=600, seed=seed)
        assert got.blocks == want.blocks
        for field in ("mean", "variance", "cross"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    @pytest.mark.parametrize("stride,n,size", [(1, 40, 8), (2, 33, 12), (3, 64, 32), (6, 16, 5)])
    def test_select_of_a_name_twice_is_two_datasets_of_its_layout(self, stride, n, size):
        # the two copies share the log-spectrum draw but not the periodogram
        # noise, so only their own blocks carry the (pi^2/6) I of the noise
        prior = PriorSpec(size=size).to_state()
        got = forecast_moments(prior, [PeriodogramData.layout("a", stride, n)], 600, 7).select(
            ["a", "a"])
        want = forecast_moments(prior, [PeriodogramData.layout(name, stride, n)
                                         for name in ("a", "b")], 600, 7)
        for field in ("mean", "variance", "cross"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

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
        s = spectrum_summary(post, grid)
        assert np.allclose(s.mean, s.mean[::-1], atol=1e-10)
        assert np.allclose(s.sd, s.sd[::-1], atol=1e-10)

    def test_odd_prior_mean_term_pairs_no_reflections(self):
        # even strides alone do not make the pairing valid: a prior mean with
        # beta_1 != 0 is not invariant under beta_m -> (-1)^m beta_m
        layouts = [PeriodogramData.layout("a", 2, 16), PeriodogramData.layout("b", 4, 16)]
        variance = np.diag(PriorSpec(size=4).variances())
        assert beliefs._reflection_symmetric(BeliefState(np.zeros(4), variance), layouts)
        assert not beliefs._reflection_symmetric(
            BeliefState(np.array([0.0, 0.3, 0.0, 0.0]), variance), layouts)

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

    @settings(max_examples=25, deadline=None)
    @given(cells=st.lists(st.tuples(st.sampled_from([2, 4, 6, 8]), st.integers(8, 64)),
                          min_size=1, max_size=3),
           size=st.integers(1, 16), intercept=st.floats(-3.0, 3.0), scale=st.floats(0.01, 10.0),
           smoothness=st.floats(0.5, 400.0), cutoff=st.floats(0.5, 20.0),
           seed=st.integers(0, 2**32 - 1))
    def test_even_stride_band_widths_symmetric_about_quarter(self, cells, size, intercept, scale,
                                                             smoothness, cutoff, seed):
        # criterion 11 over generated priors and layouts: every PriorSpec is
        # invariant under beta_m -> (-1)^m beta_m, so all-even-stride data leave
        # band widths mirror images about omega = 1/4.  Measured up to 5.2e-15 over
        # 200 examples; criterion 11 allows 0.05
        prior = PriorSpec(size=size, intercept_mean=intercept, scale=scale,
                          smoothness=smoothness, cutoff=cutoff).to_state()
        layouts = [PeriodogramData.layout("s%d" % i, stride, n)
                   for i, (stride, n) in enumerate(cells)]
        moments = forecast_moments(prior, layouts, mc_samples=500, seed=seed)
        sd = spectrum_summary(adjust(prior, moments, moments.mean),
                              np.linspace(0.01, 0.49, 49)).sd
        assert np.max(np.abs(sd - sd[::-1]) / np.maximum(sd, sd[::-1])) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(cells=st.lists(st.tuples(st.integers(1, 4), st.integers(16, 40)),
                          min_size=1, max_size=3),
           size=st.integers(1, 12), log_scale=st.floats(-6.0, 3.0),
           seed=st.integers(0, 2**32 - 1))
    def test_data_variance_eigenvalues_at_least_noise_floor(self, cells, size, log_scale, seed):
        # Var(D) is C^T C plus a residual covariance plus (pi^2/6) I; ForecastMoments.factor
        # has no fallback for a Var(D) that is not positive definite
        prior = PriorSpec(size=size, scale=10.0**log_scale).to_state()
        layouts = [PeriodogramData.layout("s%d" % i, stride, n)
                   for i, (stride, n) in enumerate(cells)]
        variance = forecast_moments(prior, layouts, mc_samples=500, seed=seed).variance
        assert np.linalg.eigvalsh(variance)[0] >= (1.0 - 1e-9) * LOG_PGRAM_VARIANCE

    def test_prior_too_wide_for_exp_names_the_cause_without_warning(self):
        prior = PriorSpec(size=8, scale=1e5).to_state()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AdjustmentError, match="prior too wide for exp.*largest sampled"):
                forecast_moments(prior, [PeriodogramData.layout("a", 1, 16)], mc_samples=500)

    def test_rejects_small_sample(self):
        prior = PriorSpec(size=4).to_state()
        with pytest.raises(ValueError):
            forecast_moments(prior, [PeriodogramData.layout("a", 1, 16)], mc_samples=10)

    def test_small_sample_is_design_error_naming_mc_samples(self):
        prior = PriorSpec(size=4).to_state()
        with pytest.raises(DesignError, match="mc_samples must be >= 500, got 3"):
            forecast_moments(prior, [PeriodogramData.layout("a", 1, 16)], mc_samples=3)

    @pytest.mark.parametrize("mc_samples,stride,drawn", [
        (500, 1, 500), (601, 1, 601), (599, 2, 600), (600, 2, 600)])
    def test_too_few_samples_for_prior_rank_is_design_error(self, mc_samples, stride, drawn):
        # the regression on the draws needs more of them (after the antithetic
        # rounding up to an even count) than the prior's rank + 1
        prior = PriorSpec(size=600).to_state()
        with pytest.raises(DesignError, match="got mc_samples %d for rank 600" % drawn):
            forecast_moments(prior, [PeriodogramData.layout("a", stride, 16)], mc_samples)

    @pytest.mark.parametrize("mc_samples,stride", [(602, 1), (601, 2)])
    def test_samples_just_above_prior_rank_run(self, mc_samples, stride):
        prior = PriorSpec(size=600).to_state()
        moments = forecast_moments(prior, [PeriodogramData.layout("a", stride, 16)], mc_samples)
        assert np.all(np.isfinite(moments.variance))

    def test_rank_counts_only_directions_above_rounding(self):
        # a rank-2 prior of size 600 regresses on two scores, so 500 draws do
        loadings = np.random.default_rng(0).standard_normal((600, 2))
        prior = BeliefState(np.zeros(600), loadings @ loadings.T)
        moments = forecast_moments(prior, [PeriodogramData.layout("a", 1, 16)], 500)
        assert np.all(np.isfinite(moments.cross))


def reshape_mean(branch, delta, out):
    """The fold step ``forecast_moments`` took before ``branch_mean``: numpy's
    mean over a branch axis with every branch held at once, the (..., n_freq,
    delta) reshape of the old (S, n_freq * delta) product."""
    values = np.empty(out.shape + (delta,))
    for k in range(delta):
        values[..., k] = branch(k)
    np.copyto(out, values.mean(axis=-1))
    return out


# how far the moments may move at strides >= 8, where numpy's mean sums pairwise
# and branch_mean in branch order; relative to the largest entry (or 1)
PAIRWISE_TOL = 256 * np.finfo(float).eps


class TestFoldStepMatchesReshapedMean:
    """forecast_moments against the same call with the old fold step put back."""

    @staticmethod
    def both(monkeypatch, cells, mc_samples=601, seed=3):
        prior = PriorSpec(size=12).to_state()
        layouts = [PeriodogramData.layout("s%d" % i, stride, n)
                   for i, (stride, n) in enumerate(cells)]
        got = forecast_moments(prior, layouts, mc_samples, seed)
        strides = []

        def reference(branch, delta, out):
            strides.append(delta)
            return reshape_mean(branch, delta, out)

        with monkeypatch.context() as patch:
            patch.setattr(beliefs, "branch_mean", reference)
            want = forecast_moments(prior, layouts, mc_samples, seed)
        # the reference folded every block with more than one branch, so the
        # comparison is not of the new fold step with itself
        assert strides == [stride for stride, _ in cells if stride > 1]
        return beliefs._reflection_symmetric(prior, layouts), got, want

    @pytest.mark.parametrize("cells,antithetic", [
        ([(1, 40), (2, 33), (3, 21), (4, 16), (5, 18), (6, 64), (7, 17)], False),
        ([(6, 128), (2, 128), (1, 128)], False),
        ([(2, 30), (4, 24), (6, 16)], True),
        ([(7, 9)], False),
    ])
    def test_bit_identical_at_strides_1_to_7(self, monkeypatch, cells, antithetic):
        reflected, got, want = self.both(monkeypatch, cells)
        assert reflected == antithetic
        for name in ("mean", "variance", "cross", "whitened"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("cells", [[(8, 20)], [(9, 16), (1, 30)], [(12, 16), (4, 20)]])
    def test_within_last_bits_at_strides_8_and_up(self, monkeypatch, cells):
        _, got, want = self.both(monkeypatch, cells)
        for name in ("mean", "variance", "cross", "whitened"):
            assert_close(getattr(got, name), getattr(want, name), PAIRWISE_TOL)


class TestFoldMemory:
    def test_peak_does_not_grow_with_the_stride(self, traced_peak):
        # one branch is held at a time, so a stride-6 fold needs one (S, n_freq)
        # buffer more than a stride-1 one, not six times the product
        prior = PriorSpec().to_state()

        def peak(stride):
            layout = PeriodogramData.layout("a", stride, 128)
            return traced_peak(lambda: forecast_moments(prior, [layout], 2000, 0))

        assert peak(6) <= 1.5 * peak(1)


# the default benchmark table's 24 (delta, N) layouts
TABLE_CELLS = [(delta, n) for delta in (1, 2, 3, 4, 5, 6) for n in (16, 32, 64, 128)]


class TestForecastMemory:
    # each bound is the (S, K) sample and the K x K Var(D) with a little room:
    # a regression that also holds a copy of the sample exceeds either bound,
    # and one that holds a second K x K matrix beside the sample the second
    @pytest.mark.parametrize("layouts,bound_mb", [
        # compare-interp's dense layout: a 4.8 MB sample (S = 2000, K = 299)
        ([PeriodogramData.layout("a", 1, 600)], 6.5),
        # every table layout under two names: a 22.3 MB sample (K = 1392) and a
        # 15.5 MB Var(D)
        ([PeriodogramData.layout((role, delta, n), delta, n)
          for role in ("d1", "d2") for delta, n in TABLE_CELLS], 45.0),
    ])
    def test_peak_holds_one_sample(self, traced_peak, layouts, bound_mb):
        prior = PriorSpec().to_state()
        forecast_moments(prior, layouts, 2000, 0)
        peak = traced_peak(lambda: forecast_moments(prior, layouts, 2000, 0))
        assert peak <= bound_mb * 1e6


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

    def test_one_coefficient_prior_adjusts_to_closed_form(self):
        # two stride-1 layouts of 29 points give 28 ordinates, each the intercept
        # plus noise of variance pi^2/6, so the adjusted variance is 1/(1 + 28 * 6/pi^2)
        prior = PriorSpec(size=1).to_state()
        layouts = [PeriodogramData.layout("a", 1, 29), PeriodogramData.layout("b", 1, 29)]
        m = forecast_moments(prior, layouts, mc_samples=500, seed=13)
        post = adjust(prior, m, m.mean)
        assert post.variance[0, 0] == pytest.approx(1.0 / (1.0 + 28 * 6 / np.pi**2), rel=1e-10)
        assert post.mean[0] == pytest.approx(prior.mean[0], abs=1e-12)

    def test_singular_data_variance_raises(self):
        prior = BeliefState(np.zeros(2), np.eye(2))
        moments = ForecastMoments(
            mean=np.zeros(2),
            variance=np.zeros((2, 2)),
            cross=np.zeros((2, 2)),
            blocks=(("bad", 2),),
        )
        with pytest.raises(AdjustmentError, match="data variance is not positive definite"):
            adjust(prior, moments, np.zeros(2))

    def test_non_finite_data_variance_raises(self):
        # what forecast_moments gives when a wide prior overflows exp()
        prior = BeliefState(np.zeros(2), np.eye(2))
        moments = ForecastMoments(mean=np.zeros(2), variance=np.array([[np.nan, 0.0], [0.0, 1.0]]),
                                  cross=np.zeros((2, 2)), blocks=(("d", 2),))
        with pytest.raises(AdjustmentError, match="data variance is not finite"):
            adjust(prior, moments, np.zeros(2))


class TestSequentialAdjust:
    def test_matches_single_shot(self):
        prior = PriorSpec(size=8).to_state()
        a = PeriodogramData.layout("a", 2, 20)
        b = PeriodogramData.layout("b", 1, 16)
        rng = np.random.default_rng(7)
        obs_a = rng.standard_normal(len(a.frequencies)) - EULER_GAMMA
        obs_b = rng.standard_normal(len(b.frequencies)) - EULER_GAMMA
        final, stages = sequential_adjust(
            prior, [replace(a, log_periodogram=obs_a), replace(b, log_periodogram=obs_b)],
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
        _, stages = sequential_adjust(
            prior, [replace(a, log_periodogram=obs_a), replace(b, log_periodogram=obs_b)],
            mc_samples=1000, seed=4)
        traces = [np.trace(prior.variance)] + [np.trace(s.variance) for s in stages]
        assert np.all(np.diff(traces) <= 1e-12)


def assert_close(got, want, rel):
    """Agreement to ``rel`` relative to the largest entry of ``want`` (or 1)."""
    np.testing.assert_allclose(got, want, rtol=0, atol=rel * max(np.abs(want).max(), 1.0))


def leading_moments(moments, count):
    """The moments of the first ``count`` blocks, sliced by hand; their Var(D)
    factor and whitened cross-covariance are made afresh on first use."""
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
        final, stages = sequential_adjust(
            prior, [replace(l, log_periodogram=o) for l, o in zip(layouts, observed)],
            mc_samples=500, seed=seed)
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
    def test_zero_variance_block_raises(self, cells, pick):
        # zeroing one block's variance, but not its covariance with the other
        # blocks, leaves a Var(D) that is not positive definite
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
            with pytest.raises(AdjustmentError, match="data variance is not positive definite"):
                sequential_adjust(
                    PriorSpec(size=6).to_state(),
                    [replace(l, log_periodogram=o) for l, o in zip(layouts, observed)],
                    mc_samples=500, seed=0)


class TestOneFactorisation:
    def test_var_d_factored_once_and_no_data_sized_eigh(self, monkeypatch):
        prior = PriorSpec(size=8).to_state()
        layouts = [PeriodogramData.layout("a", 2, 20), PeriodogramData.layout("b", 1, 16),
                   PeriodogramData.layout("c", 3, 24)]
        observed = [np.zeros(len(l.frequencies)) for l in layouts]
        factored, eigh_shapes, lu_shapes = [], [], []
        real_cholesky, real_eigh = np.linalg.cholesky, np.linalg.eigh
        real_inv, real_solve = np.linalg.inv, np.linalg.solve

        def cholesky(a, *args, **kwargs):
            factored.append(a.shape)
            return real_cholesky(a, *args, **kwargs)

        def eigh(a, *args, **kwargs):
            eigh_shapes.append(np.shape(a))
            return real_eigh(a, *args, **kwargs)

        def inv(a, *args, **kwargs):
            lu_shapes.append(np.shape(a))
            return real_inv(a, *args, **kwargs)

        def solve(a, *args, **kwargs):
            lu_shapes.append(np.shape(a))
            return real_solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        monkeypatch.setattr(np.linalg, "inv", inv)
        monkeypatch.setattr(np.linalg, "solve", solve)
        k = sum(len(l.frequencies) for l in layouts)
        sequential_adjust(prior, [replace(l, log_periodogram=o) for l, o in zip(layouts, observed)],
                          mc_samples=600, seed=0)
        assert factored == [(k, k)]
        moments = forecast_moments(prior, layouts, 600, 1)
        adjust(prior, moments, np.concatenate(observed))
        adjust(prior, moments, np.concatenate(observed))
        assert factored == [(k, k)] * 2
        assert set(eigh_shapes) == {(8, 8)}
        # the only LU is the regression's, on the prior's rank: L^-1 and W come by
        # triangular arithmetic from the one factor
        assert set(lu_shapes) == {(8, 8)}

    def test_adjust_and_each_stage_project_the_variance_once(self, monkeypatch):
        # Var(beta) - W^T W is made positive semi-definite by its BeliefState alone
        prior = PriorSpec(size=8).to_state()
        layouts = [PeriodogramData.layout("a", 2, 20), PeriodogramData.layout("b", 1, 16),
                   PeriodogramData.layout("c", 3, 24)]
        observed = [np.zeros(len(l.frequencies)) for l in layouts]
        moments = forecast_moments(prior, layouts, 600, 0)
        eigh_shapes, real_eigh = [], np.linalg.eigh

        def eigh(a, *args, **kwargs):
            eigh_shapes.append(np.shape(a))
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        adjust(prior, moments, np.concatenate(observed))
        assert eigh_shapes == [(8, 8)]
        # the forecast's own eigh of the prior is not a projection
        monkeypatch.setattr(beliefs, "forecast_moments", lambda *args: moments)
        eigh_shapes.clear()
        sequential_adjust(prior, [replace(l, log_periodogram=o) for l, o in zip(layouts, observed)],
                          mc_samples=600, seed=0)
        assert eigh_shapes == [(8, 8)] * len(layouts)


class TestLowerInverse:
    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_inverse_by_halves(self, size, seed):
        # a Var(D) as forecast_moments makes it: C^T C + pi^2/6 I
        rng = np.random.default_rng(seed)
        coef = rng.standard_normal((rng.integers(1, 40), size))
        cross = rng.standard_normal((rng.integers(1, 40), size))
        moments = ForecastMoments(np.zeros(size), coef.T @ coef + LOG_PGRAM_VARIANCE * np.eye(size),
                                  cross, (("d", size),))
        factor, inverse = np.linalg.cholesky(moments.variance), moments.inverse_factor
        assert np.all(inverse[np.triu_indices(size, 1)] == 0.0)
        assert_close(inverse @ factor, np.eye(size), 1e-13)
        assert_close(moments.whitened, np.linalg.solve(factor, cross.T), 1e-12)


def assert_textbook_update(prior, moments, observed, state):
    """``state`` is E(beta) + C Var(D)^-1 (d - E(D)) and Var(beta) - C Var(D)^-1 C^T,
    C = Cov(beta, D), solved densely on the same moments; so is the moments'
    Var(beta) - W^T W."""
    cross, var_d = moments.cross, moments.variance
    mean = prior.mean + cross @ np.linalg.solve(var_d, observed - moments.mean)
    variance = prior.variance - cross @ np.linalg.solve(var_d, cross.T)
    assert_close(state.mean, mean, 1e-10)
    assert_close(state.variance, variance, 1e-10)
    assert_close(prior.variance - moments.whitened.T @ moments.whitened, variance, 1e-10)


class TestAdjustIsTextbookUpdate:
    @settings(max_examples=25, deadline=None)
    @given(cells=STACKINGS, size=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_generated_stackings(self, cells, size, seed):
        prior = PriorSpec(size=size).to_state()
        layouts = stacked_layouts(cells)
        moments = forecast_moments(prior, layouts, 500, seed)
        rng = np.random.default_rng(seed)
        observed = moments.mean + 2.0 * rng.standard_normal(moments.mean.shape)
        assert_textbook_update(prior, moments, observed, adjust(prior, moments, observed))

    def test_interp_comparison_correlations_below_one(self, monkeypatch):
        # the regression estimator's Var(D) is at least C^T C + (pi^2/6) I, so no
        # canonical correlation of beta and D reaches 1 on interp_comparison(0)'s
        # three layouts, where the sample covariances went above 1
        calls = []

        def spy(prior, moments, observed):
            calls.append((prior, moments, observed, beliefs.adjust(prior, moments, observed)))
            return calls[-1][-1]

        monkeypatch.setattr(bench, "adjust", spy)
        bench.interp_comparison(0)
        assert len(calls) == 3
        for prior, moments, observed, state in calls:
            assert top_canonical_correlation(prior.variance, moments.variance, moments.cross) < 1.0
            assert_textbook_update(prior, moments, observed, state)


def top_canonical_correlation(var_b, var_d, cross):
    """Largest singular value of Var(beta)^-1/2 Cov(beta, D) Var(D)^-1/2, with
    the symmetric square roots."""
    inv_roots = []
    for var in (var_b, var_d):
        vals, vecs = np.linalg.eigh(var)
        inv_roots.append(vecs / np.sqrt(vals) @ vecs.T)
    return np.linalg.svd(inv_roots[0] @ cross @ inv_roots[1], compute_uv=False)[0]


# relative to the largest entry of the closed form; fixed before the property first ran
STRIDE_ONE_TOL = 1e-10


class TestStrideOneIsExact:
    """At stride 1 the log-periodogram means are linear in beta, D = Psi beta -
    EULER_GAMMA + noise, so the adjustment has the closed form
    E(beta) + V Psi^T S^-1 (d - E(D)) and V - V Psi^T S^-1 Psi V, with
    S = Psi V Psi^T + (pi^2/6) I; the regression on the draws reproduces it."""

    @settings(max_examples=25, deadline=None)
    @given(lengths=st.lists(st.integers(8, 200), min_size=1, max_size=3),
           size=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_adjustment_matches_closed_form(self, lengths, size, seed):
        prior = PriorSpec(size=size).to_state()
        layouts = [PeriodogramData.layout("s%d" % i, 1, n) for i, n in enumerate(lengths)]
        moments = forecast_moments(prior, layouts, 500, seed)
        observed = moments.mean + 2.0 * np.random.default_rng(seed).standard_normal(
            moments.mean.shape)
        state = adjust(prior, moments, observed)

        psi = basis_matrix(np.concatenate([l.frequencies for l in layouts]), size)
        var_b = prior.variance
        var_d = psi @ var_b @ psi.T + LOG_PGRAM_VARIANCE * np.eye(len(psi))
        gain = np.linalg.solve(var_d, psi @ var_b).T
        mean = prior.mean + gain @ (observed - (psi @ prior.mean - EULER_GAMMA))
        variance = var_b - gain @ psi @ var_b
        for got, want in ((state.mean, mean), (state.variance, variance)):
            assert np.abs(got - want).max() <= STRIDE_ONE_TOL * np.abs(want).max()


class TestSpectrumSummary:
    def test_band_widths(self):
        state = BeliefState(np.array([1.0, 0.0]), np.diag([0.25, 0.0]))
        grid = np.array([0.1, 0.3])
        s = spectrum_summary(state, grid)
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
