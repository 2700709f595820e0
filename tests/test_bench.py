"""Tests for the estimator benchmark and the interpolation comparison."""

import numpy as np
import pytest

from mrspec import beliefs, bench
from mrspec.beliefs import ForecastMoments, PeriodogramData, PriorSpec, spectrum_summary
from mrspec.bench import (
    BenchDesign,
    BenchResult,
    InterpComparison,
    baseline_spectra,
    discrepancy,
    interp_comparison,
    random_process,
    run_bench,
    spline_interpolate,
    standard_grid,
    table_sweep,
)
from mrspec.models import (DesignError, SampledSeries, SpectralModel, ar2_from_omega, simulate,
                           subsample)


class TestStandardGrid:
    def test_endpoints_and_spacing(self):
        grid = standard_grid(128)
        assert grid[0] == 0.0
        assert grid[-1] == 0.5
        assert len(grid) == 128
        assert np.allclose(np.diff(grid), 0.5 / 127)

    @pytest.mark.parametrize("n_omega", [1, 0, -3])
    def test_needs_both_endpoints(self, n_omega):
        # one point used to divide 0/0 and give [nan]
        with pytest.raises(ValueError, match="n_omega must be >= 2"):
            standard_grid(n_omega)


class TestDiscrepancy:
    def test_identical_curves(self):
        x = np.linspace(-1, 1, 50)
        assert discrepancy(x, x) == 0.0

    def test_constant_offset(self):
        x = np.zeros(10)
        assert discrepancy(x, x + 3.0) == pytest.approx(9.0, abs=1e-15)

    def test_alternating(self):
        # half the points off by 2, half exact: mean square is 2
        a = np.zeros(10)
        b = np.tile([2.0, 0.0], 5)
        assert discrepancy(a, b) == pytest.approx(2.0, abs=1e-15)

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            discrepancy(np.zeros(3), np.zeros(4))


class TestRandomProcess:
    def test_deterministic_and_prior_scaled(self):
        p1 = random_process(3)
        p2 = random_process(3)
        assert np.array_equal(p1.coefficients, p2.coefficients)
        assert len(p1.coefficients) == PriorSpec().size

    def test_coefficient_spread_matches_prior(self):
        prior = PriorSpec(size=16)
        draws = np.array([random_process(s, prior).coefficients for s in range(500)])
        sd = draws.std(axis=0)
        want = np.sqrt(prior.variances())
        assert np.allclose(sd, want, rtol=0.25)


def reference_run_bench(design, prior=None):
    """The per-replicate loop that ``run_bench`` batches: simulate, take the
    log-periodograms and adjust each replicate on its own, counting one that
    raises as failed.  Calls go through ``bench`` so patches reach both."""
    prior = prior or PriorSpec()
    (delta1, n1), (delta2, n2) = design.d1, design.d2
    layouts = [PeriodogramData.layout("d1", delta1, n1), PeriodogramData.layout("d2", delta2, n2)]
    moment_seed, *rep_seeds = np.random.SeedSequence(design.seed).spawn(design.replicates + 1)
    moments = bench.forecast_moments(prior.to_state(), layouts, design.mc_samples, moment_seed)
    grid = standard_grid()
    scores, failures = [], 0
    for rep_seed in rep_seeds:
        sim_seed, proc_seed = rep_seed.spawn(2)
        try:
            truth = random_process(proc_seed, prior)
            path = bench.simulate(truth, delta1 * n1 + delta2 * n2, sim_seed)
            first, second = bench._segment_series(path, design)
            observed = np.concatenate([bench.log_periodogram(first).log_periodogram,
                                       bench.log_periodogram(second).log_periodogram])
            state = bench.adjust(prior.to_state(), moments, observed)
            scores.append(discrepancy(truth.evaluate(grid),
                                      state.mean_logspectrum().evaluate(grid)))
        except (np.linalg.LinAlgError, ArithmeticError, ValueError):
            failures += 1
    scores = np.asarray(scores)
    if len(scores) == 0:
        return BenchResult(np.nan, np.nan, scores, failures)
    stderr = scores.std(ddof=1) / np.sqrt(len(scores)) if len(scores) > 1 else np.nan
    return BenchResult(float(scores.mean()), float(stderr), scores, failures)


def assert_same_result(got, want):
    assert np.array_equal(got.scores, want.scores)
    assert got.failures == want.failures
    for a, b in ((got.mean, want.mean), (got.stderr, want.stderr)):
        assert a == b or (np.isnan(a) and np.isnan(b))


# a wide-prior design: under PriorSpec(scale=60) a Durbin-Levinson simulation
# lost 9 of its 20 replicates at round-off pivots; circulant embedding loses none
WIDE_PRIOR_DESIGN = BenchDesign(d1=(1, 32), d2=(2, 32), replicates=20, seed=3, mc_samples=600)


class TestRunBenchMatchesReplicateLoop:
    @pytest.mark.parametrize("prior,failures", [(None, 0), (PriorSpec(scale=60), 0)])
    def test_bit_identical(self, prior, failures):
        got = run_bench(WIDE_PRIOR_DESIGN, prior)
        assert_same_result(got, reference_run_bench(WIDE_PRIOR_DESIGN, prior))
        assert got.failures == failures

    def test_non_finite_adjusted_mean_fails_its_replicate(self, monkeypatch):
        # a zero periodogram ordinate makes the adjusted mean -inf; the calls
        # come in replicate order, so the same replicate is hit in both runs
        calls = []

        def log_periodogram(series, series_id="series"):
            data = beliefs.log_periodogram(series, series_id)
            calls.append(None)
            if len(calls) == 5:
                data.log_periodogram[0] = -np.inf
            return data

        monkeypatch.setattr(bench, "log_periodogram", log_periodogram)
        got = run_bench(WIDE_PRIOR_DESIGN)
        calls.clear()
        assert_same_result(got, reference_run_bench(WIDE_PRIOR_DESIGN))
        assert got.failures == 1

    @pytest.mark.parametrize("broken", ["raises", "not_psd"])
    def test_shared_gain_failure_fails_every_replicate(self, monkeypatch, broken):
        # the moments are shared, so a singular Var(D) (its factor raises
        # AdjustmentError) or a cross-covariance too strong for the prior (the
        # adjusted variance is not PSD) fails every replicate
        real = beliefs.forecast_moments

        def forecast_moments(*args):
            m = real(*args)
            if broken == "raises":
                return ForecastMoments(m.mean, np.zeros_like(m.variance), m.cross, m.blocks)
            return ForecastMoments(m.mean, m.variance, 10.0 * m.cross, m.blocks)

        monkeypatch.setattr(bench, "forecast_moments", forecast_moments)
        design = BenchDesign(d1=(1, 32), d2=(2, 32), replicates=4, seed=3, mc_samples=600)
        got = run_bench(design)
        assert_same_result(got, reference_run_bench(design))
        assert np.isnan(got.mean) and np.isnan(got.stderr)
        assert len(got.scores) == 0 and got.failures == 4


class TestRunBench:
    @pytest.mark.parametrize("scale", [1, 30, 60, 100])
    def test_wide_priors_lose_no_replicate(self, scale):
        # a Durbin-Levinson simulation lost 0, 2, 9 and 13 of these 20
        # replicates at round-off pivots, although every density is positive
        result = run_bench(WIDE_PRIOR_DESIGN, PriorSpec(scale=scale))
        assert result.failures == 0
        assert np.all(np.isfinite(result.scores))

    def test_deterministic(self):
        design = BenchDesign(d1=(1, 32), d2=(1, 32), replicates=4,
                             seed=9, mc_samples=600)
        r1 = run_bench(design)
        r2 = run_bench(design)
        assert r1.mean == r2.mean
        assert np.array_equal(r1.scores, r2.scores)

    def test_scores_shape_and_positive(self):
        design = BenchDesign(d1=(2, 24), d2=(1, 24), replicates=4,
                             seed=1, mc_samples=600)
        r = run_bench(design)
        assert len(r.scores) + r.failures == 4
        assert np.all(r.scores >= 0)
        assert np.isfinite(r.stderr)

    def test_rejects_bad_design(self):
        with pytest.raises(ValueError):
            BenchDesign(d1=(0, 32), d2=(1, 32), replicates=4)
        with pytest.raises(ValueError):
            BenchDesign(d1=(1, 32), d2=(1, 32), replicates=0)

    @pytest.mark.parametrize("d1,d2,message", [
        ((1, 4), (1, 32), r"segment d1=\(1, 4\) needs N >= 8"),
        ((1, 32), (2, 7), r"segment d2=\(2, 7\) needs N >= 8"),
        ((1,), (1, 32), "segment d1=.* integer pair"),
        ((1, 32), (1, "x"), "segment d2=.* integer pair"),
        ((1, 16.5), (1, 32), "segment d1=.* integer pair"),
        ((1, 32), 5, "segment d2=5 must be an integer pair"),
    ])
    def test_rejects_malformed_or_short_segment(self, d1, d2, message):
        with pytest.raises(DesignError, match=message):
            BenchDesign(d1=d1, d2=d2, replicates=4)

    def test_accepts_shortest_periodogram_segment(self):
        BenchDesign(d1=(1, 8), d2=[np.int64(2), np.int64(8)], replicates=4)


class TestTableSweep:
    def test_shape_and_determinism(self):
        d1, d2, means, errs = table_sweep(
            [1, 2], [16], replicates=3, seed=5,
            d1_cells=[(1, 16)], d2_cells=[(1, 16), (2, 16)],
        )
        assert means.shape == (1, 2)
        assert errs.shape == (1, 2)
        _, _, means2, _ = table_sweep(
            [1, 2], [16], replicates=3, seed=5,
            d1_cells=[(1, 16)], d2_cells=[(1, 16), (2, 16)],
        )
        assert np.array_equal(means, means2)

    def test_short_cell_fails_before_any_cell_runs(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("run_bench called before every design was checked")

        monkeypatch.setattr(bench, "run_bench", fail)
        with pytest.raises(DesignError, match=r"segment d2=\(2, 4\)"):
            table_sweep([1], [16], replicates=2, seed=0,
                        d1_cells=[(1, 16)], d2_cells=[(1, 16), (2, 4)])

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            table_sweep([], [16], replicates=2, seed=0)


class TestSplineInterpolate:
    def test_reproduces_observed_points(self):
        base = simulate(SpectralModel(ar=(0.5,)), 41, seed=2)
        coarse = subsample(base, 4)
        dense = spline_interpolate(coarse)
        idx = coarse.base_indices()
        assert np.allclose(dense.values[idx], coarse.values, atol=1e-10)
        assert dense.stride == 1
        assert len(dense.values) == idx[-1] + 1

    def test_stride_one_passthrough(self):
        series = SampledSeries(np.arange(5.0), 1)
        out = spline_interpolate(series)
        assert np.array_equal(out.values, series.values)

    def test_linear_data_exact(self):
        # natural cubic spline through collinear points is the line itself
        series = SampledSeries(np.arange(0.0, 20.0, 3.0), stride=3)
        out = spline_interpolate(series)
        assert np.allclose(out.values, np.arange(19.0), atol=1e-10)

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            spline_interpolate(SampledSeries(np.zeros(3), stride=2))


class TestBaselineSpectra:
    def test_ar1_fit_recovers_shape(self):
        truth = SpectralModel(ar=(0.7,))
        series = simulate(truth, 2000, seed=4)
        ar_log, smooth_log = baseline_spectra(series)
        grid = standard_grid()
        true_log = np.log(truth.density(grid))
        assert discrepancy(true_log, ar_log) < 0.05
        assert discrepancy(true_log, smooth_log) < 0.5

    def test_white_noise_near_flat(self):
        series = simulate(SpectralModel(), 2000, seed=6)
        ar_log, smooth_log = baseline_spectra(series)
        assert np.max(np.abs(ar_log)) < 0.3
        assert np.max(np.abs(smooth_log)) < 1.0

    def test_rejects_coarse_series(self):
        series = SampledSeries(np.random.default_rng(0).standard_normal(64), stride=2)
        with pytest.raises(ValueError):
            baseline_spectra(series)

    def test_rejects_constant_series(self):
        with pytest.raises(ValueError):
            baseline_spectra(SampledSeries(np.ones(64), 1))


@pytest.fixture(scope="module")
def comparison():
    return interp_comparison(seed=0, mc_samples=600, n_total=300)


class TestInterpComparison:
    def test_curve_shapes(self, comparison):
        assert isinstance(comparison, InterpComparison)
        n = len(comparison.grid)
        for curve in (comparison.truth, comparison.blm_raw, comparison.blm_interp,
                      comparison.ar_fit, comparison.smoothed_pgram):
            assert curve.shape == (n,)

    def test_truth_peak_at_omega0(self, comparison):
        peak = comparison.grid[np.argmax(comparison.truth)]
        assert abs(peak - 0.35) < 0.02

    def test_interpolation_inflates_low_frequencies(self, comparison):
        # cubic interpolation of stride-2 history acts as a low-pass filter,
        # shifting apparent power below the fold point omega = 1/4
        low = comparison.grid < 0.25
        def low_share(curve):
            power = np.exp(curve)
            return power[low].sum() / power.sum()
        assert low_share(comparison.truth) < 0.25
        assert low_share(comparison.blm_interp) > 2 * low_share(comparison.blm_raw)

    def test_raw_estimate_closest_to_truth(self, comparison):
        raw = discrepancy(comparison.truth, comparison.blm_raw)
        assert raw < discrepancy(comparison.truth, comparison.blm_interp)
        assert raw < discrepancy(comparison.truth, comparison.ar_fit)
        assert raw < discrepancy(comparison.truth, comparison.smoothed_pgram)

    def test_history_summary_symmetric(self, comparison):
        # stride-2 history alone cannot break the omega <-> 1/2 - omega tie
        s = spectrum_summary(comparison.history_state, comparison.grid)
        assert np.allclose(s.mean, s.mean[::-1], atol=1e-8)
        assert np.allclose(s.sd, s.sd[::-1], atol=1e-8)

    @pytest.mark.parametrize("kwargs,name", [
        (dict(omega0=0.7), "omega0"), (dict(omega0=0.0), "omega0"),
        (dict(modulus=1.5), "modulus"), (dict(delta=0), "delta"),
        (dict(n_total=5), "history"), (dict(n_total=40), "recent"),
        (dict(n_total=600, delta=100), "history"),
    ])
    def test_unrunnable_design_raises_before_simulating(self, monkeypatch, kwargs, name):
        monkeypatch.setattr(bench, "simulate", None)
        with pytest.raises(DesignError, match=name):
            interp_comparison(seed=0, **kwargs)

    @pytest.mark.parametrize("n_total,delta", [(43, 1), (43, 2), (44, 5), (51, 6)])
    def test_smallest_runnable_designs(self, n_total, delta):
        # the least n_total whose history and recent segment both reach MIN_PERIODOGRAM_N;
        # the spline-filled series is then long enough for baseline_spectra
        with pytest.raises(DesignError):
            interp_comparison(seed=0, n_total=n_total - 1, delta=delta)
        result = interp_comparison(seed=0, n_total=n_total, delta=delta, mc_samples=500)
        assert np.all(np.isfinite(result.blm_raw)) and np.all(np.isfinite(result.ar_fit))

    @pytest.mark.parametrize("delta", range(1, 7))
    def test_interpolated_series_is_flush(self, monkeypatch, delta):
        # the history ends on a kept point right before the dense tail, so the
        # spline-filled series has every base index once and keeps the observed points
        paths, series = [], {}
        def simulate_spy(*args):
            paths.append(simulate(*args))
            return paths[-1]
        def log_periodogram_spy(s, series_id):
            series[series_id] = s
            return beliefs.log_periodogram(s, series_id)
        monkeypatch.setattr(bench, "simulate", simulate_spy)
        monkeypatch.setattr(bench, "log_periodogram", log_periodogram_spy)
        interp_comparison(seed=0, n_total=600, delta=delta, mc_samples=500)
        values = series["interpolated"].values
        assert len(values) == 600
        n_recent = len(series["recent"])
        assert np.array_equal(values[-n_recent:], paths[0].values[-n_recent:])
        kept = delta * np.arange(len(series["history"]))
        assert kept[-1] == 599 - n_recent
        assert np.allclose(values[kept], paths[0].values[kept], rtol=0, atol=1e-12)
