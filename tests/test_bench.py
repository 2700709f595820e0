"""Tests for the estimator benchmark and the interpolation comparison."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from mrspec.models import (DesignError, LogSpectrum, ModelInvariantError, SampledSeries,
                           SpectralModel, ar2_from_omega, simulate, subsample)


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

    @settings(max_examples=25, deadline=None)
    @given(size=st.integers(1, 40), intercept_mean=st.floats(-5.0, 5.0),
           scale=st.floats(0.01, 100.0), smoothness=st.floats(0.1, 400.0),
           cutoff=st.floats(0.1, 50.0), replicates=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_run_bench_truths_are_its_draws(self, size, intercept_mean, scale, smoothness,
                                            cutoff, replicates, seed):
        # run_bench draws all its truths at once; row r must be random_process's
        # draw from the seed that replicate r spawns, bit for bit
        prior = PriorSpec(size=size, intercept_mean=intercept_mean, scale=scale,
                          smoothness=smoothness, cutoff=cutoff)
        truths = []

        def capture(coefficients, n, seeds):
            truths.append(coefficients)
            raise StopIteration

        with pytest.MonkeyPatch.context() as patch, pytest.raises(StopIteration):
            patch.setattr(bench, "simulate_log_spectra", capture)
            run_bench(BenchDesign(d1=(1, 8), d2=(2, 8), replicates=replicates, seed=seed,
                                  mc_samples=500), prior)
        _, *rep_seeds = np.random.SeedSequence(seed).spawn(replicates + 1)
        [coefficients] = truths
        assert coefficients.shape == (replicates, size)
        for row, rep_seed in zip(coefficients, rep_seeds):
            want = random_process(rep_seed.spawn(2)[1], prior).coefficients
            assert row.tobytes() == want.tobytes()

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
            first = subsample(SampledSeries(path.values[:delta1 * n1]), delta1)
            second = subsample(SampledSeries(path.values[delta1 * n1:]), delta2)
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


def patch_replicate_path(monkeypatch, replicate, edit):
    """Apply ``edit`` in place to the simulated path of one replicate, both in
    ``run_bench``'s path matrix and in the loop's ``simulate`` calls."""
    real_rows, real_one = bench.simulate_log_spectra, bench.simulate
    calls = []

    def simulate_log_spectra(*args):
        paths = real_rows(*args)
        edit(paths[replicate])
        return paths

    def simulate(*args):
        path = real_one(*args)
        calls.append(None)
        if len(calls) == replicate + 1:
            values = path.values.copy()
            edit(values)
            path = SampledSeries(values)
        return path

    monkeypatch.setattr(bench, "simulate_log_spectra", simulate_log_spectra)
    monkeypatch.setattr(bench, "simulate", simulate)


def spy_on(monkeypatch, name):
    """Record the arguments and the result of each call to ``bench.<name>``."""
    real, calls = getattr(bench, name), []

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(bench, name, spy)
    return calls


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
        # a -inf in replicate 5's simulated path makes its periodogram NaN:
        # the loop's log_periodogram raises on the -inf before centring it,
        # run_bench's adjusted mean for it is not finite
        def corrupt(path):
            path[0] = -np.inf

        patch_replicate_path(monkeypatch, 5, corrupt)
        got = run_bench(WIDE_PRIOR_DESIGN)
        assert_same_result(got, reference_run_bench(WIDE_PRIOR_DESIGN))
        assert got.failures == 1

    def test_zero_periodogram_ordinate_fails_its_replicate(self, monkeypatch):
        # a constant second segment has zero periodogram ordinates: the loop's
        # log_periodogram raises on it, and run_bench counts the replicate as
        # failed without a warning instead of raising
        split = WIDE_PRIOR_DESIGN.d1[0] * WIDE_PRIOR_DESIGN.d1[1]

        def flatten(path):
            path[split:] = 1.5

        patch_replicate_path(monkeypatch, 4, flatten)
        got = run_bench(WIDE_PRIOR_DESIGN)
        assert_same_result(got, reference_run_bench(WIDE_PRIOR_DESIGN))
        assert got.failures == 1 and len(got.scores) == WIDE_PRIOR_DESIGN.replicates - 1

    def test_unsimulated_replicate_fails(self, monkeypatch):
        # simulate_log_spectra leaves the row of a path it could not simulate
        # NaN, where simulate raises
        real_rows, real_one = bench.simulate_log_spectra, bench.simulate
        calls = []

        def simulate_log_spectra(*args):
            paths = real_rows(*args)
            paths[7] = np.nan
            return paths

        def simulate(*args):
            calls.append(None)
            if len(calls) == 8:
                raise ModelInvariantError("spectral density must be finite and positive")
            return real_one(*args)

        monkeypatch.setattr(bench, "simulate_log_spectra", simulate_log_spectra)
        monkeypatch.setattr(bench, "simulate", simulate)
        got = run_bench(WIDE_PRIOR_DESIGN)
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
        BenchDesign(d1=(1, 8), d2=[np.int64(2), np.int64(8)], replicates=np.int64(4))

    @pytest.mark.parametrize("field,value", [
        ("replicates", 2.5), ("replicates", True), ("mc_samples", 2000.5), ("mc_samples", 600.0),
    ], ids=["replicates", "replicates-bool", "mc_samples", "mc_samples-float"])
    def test_rejects_non_integer_count(self, field, value):
        # a fraction ended in numpy's TypeError, and True ran as 1 replicate
        with pytest.raises(DesignError, match="%s must be an integer, got %r" % (field, value)):
            BenchDesign(d1=(1, 32), d2=(1, 32), **{field: value})


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
        # the joint forecast is the first work a table does
        def fail(*args, **kwargs):
            raise AssertionError("forecast_moments called before every design was checked")

        monkeypatch.setattr(bench, "forecast_moments", fail)
        with pytest.raises(DesignError, match=r"segment d2=\(2, 4\)"):
            table_sweep([1], [16], replicates=2, seed=0,
                        d1_cells=[(1, 16)], d2_cells=[(1, 16), (2, 4)])

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            table_sweep([], [16], replicates=2, seed=0)

    @pytest.mark.parametrize("side", ["d1_cells", "d2_cells"])
    def test_rejects_empty_cell_list(self, side):
        # the table's one path is as long as its longest segments, and an empty
        # list has none
        with pytest.raises(DesignError, match="both lists of cells, must be nonempty"):
            table_sweep([1], [16], replicates=2, seed=0, **{side: []})

    @pytest.mark.parametrize("d1,d2", [((1, 16), (1, 16)), ((1, 32), (2, 32)), ((6, 16), (3, 8))])
    def test_one_cell_table_is_run_bench(self, d1, d2):
        _, _, means, stderrs = table_sweep([1], [16], replicates=12, seed=4,
                                           d1_cells=[d1], d2_cells=[d2])
        want = run_bench(BenchDesign(d1=d1, d2=d2, replicates=12, seed=4))
        assert means.tobytes() == np.array([[want.mean]]).tobytes()
        assert stderrs.tobytes() == np.array([[want.stderr]]).tobytes()

    def test_cells_read_their_own_path_segments(self, monkeypatch):
        # one path per replicate serves every cell: cell (d1, d2) reads
        # path[:d1N1:d1] and path[d1N1 : d1N1 + d2N2 : d2], so every cell is
        # the moments of its own sub-block applied to its own segments
        d1_cells, d2_cells = [(1, 16), (2, 8)], [(1, 8), (3, 16)]
        sampled = spy_on(monkeypatch, "simulate_log_spectra")
        forecast = spy_on(monkeypatch, "forecast_moments")
        results = bench._sweep(d1_cells, d2_cells, 6, 8, 600, None)
        [((truths, length, _), path)], [(_, moments)] = sampled, forecast
        assert length == 16 + 48 and path.shape == (6, length)
        prior = PriorSpec().to_state()
        grid = standard_grid()
        for row, (delta1, n1) in zip(results, d1_cells):
            for result, (delta2, n2) in zip(row, d2_cells):
                cell = moments.select([("d1", delta1, n1), ("d2", delta2, n2)])
                split = delta1 * n1
                want = []
                for values, truth in zip(path, truths):
                    first = subsample(SampledSeries(values[:split]), delta1)
                    second = subsample(SampledSeries(values[split:split + delta2 * n2]), delta2)
                    observed = np.concatenate([bench.log_periodogram(s).log_periodogram
                                               for s in (first, second)])
                    state = bench.adjust(prior, cell, observed)
                    want.append(discrepancy(LogSpectrum(truth).evaluate(grid),
                                            state.mean_logspectrum().evaluate(grid)))
                np.testing.assert_allclose(result.scores, want, rtol=1e-12)
                assert result.failures == 0

    def test_nan_path_row_fails_its_replicate_in_every_cell(self, monkeypatch):
        patch_replicate_path(monkeypatch, 3, lambda path: path.fill(np.nan))
        results = bench._sweep([(1, 16), (2, 8)], [(1, 8), (3, 16)], 6, 2, 600, None)
        for result in (r for row in results for r in row):
            assert result.failures == 1 and len(result.scores) == 5
            assert np.isfinite(result.mean)

    def test_flat_second_segment_fails_only_the_cells_that_read_it(self, monkeypatch):
        # path[32:40] is the whole second segment of the (2, 16)/(1, 8) cell; the
        # (1, 16) row reads its second segments from path[16:], the (2, 16)/(3, 16)
        # cell three flat points of path[32:80:3]
        def flatten(path):
            path[32:40] = 1.5

        patch_replicate_path(monkeypatch, 2, flatten)
        results = bench._sweep([(1, 16), (2, 16)], [(1, 8), (3, 16)], 6, 2, 600, None)
        assert [[r.failures for r in row] for row in results] == [[0, 0], [1, 0]]


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

    @settings(max_examples=200, deadline=None)
    @given(stride=st.integers(2, 8), n=st.integers(4, 300),
           log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_scipy_natural_cubic_spline(self, stride, n, log_scale, seed):
        # scipy is the test-only oracle; the bound, 1e-12 of the largest |value|
        # (about 4500 float64 epsilons), leaves room for the two solvers' rounding
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        values = scale * (rng.standard_normal(n) + rng.uniform(-5.0, 5.0))
        series = SampledSeries(values, stride=stride)
        dense = spline_interpolate(series)
        idx = series.base_indices()
        oracle = CubicSpline(idx, values, bc_type="natural")(np.arange(idx[-1] + 1))
        assert np.array_equal(dense.base_indices(), np.arange(idx[-1] + 1))
        assert np.max(np.abs(dense.values - oracle)) <= 1e-12 * np.max(np.abs(oracle))
        assert np.array_equal(dense.values[idx], values)

    @pytest.mark.parametrize("stride,offset", [(2, 1), (3, 2), (8, 5)])
    def test_rejects_nonzero_offset(self, stride, offset):
        # a stride-1 result starts at base index 0, so it cannot hold values that
        # start at base index ``offset``; that is an error, not a shifted series
        series = SampledSeries(np.arange(6.0), stride=stride, offset=offset)
        with pytest.raises(ValueError, match="offset %d" % offset):
            spline_interpolate(series)

    @pytest.mark.parametrize("value,message", [
        (np.nan, r"non-finite value nan at index 5"),
        (np.inf, r"non-finite value inf at index 5"),
        # finite, but the second differences overflow: an error, not NaN and a warning
        (1e308, r"too large for cubic spline interpolation \(largest \|value\| 1e\+308\)"),
    ])
    def test_rejects_non_finite_or_overflowing_value(self, value, message):
        values = np.arange(8.0)
        values[5] = value
        with pytest.raises(ValueError, match=message):
            spline_interpolate(SampledSeries(values, stride=2))


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
