"""Acceptance suite: one test per required behavior, each printing a single
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The Monte Carlo criteria work at desk scale (hundreds of replicates) and
check trends and invariants at the stated tolerances rather than exact
historical values.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from mrspec.beliefs import (
    EULER_GAMMA,
    LOG_PGRAM_VARIANCE,
    ForecastMoments,
    PeriodogramData,
    PriorSpec,
    adjust,
    forecast_moments,
    log_periodogram,
    sequential_adjust,
    spectrum_summary,
)
from mrspec.bench import discrepancy, interp_comparison, standard_grid, table_sweep
from mrspec.cli import main
from mrspec.likelihood import ExperimentDesign, default_omega_grid, exact_loglik, mc_average_surface
from mrspec.models import SampledSeries, SpectralModel, ar2_from_omega
from mrspec.beliefs import BeliefState
from mrspec.serialize import write_json
from mrspec.uncertainty import kolmogorov_variance, pc_decomposition, propagate, sparse_grid


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print("criterion %02d %s - %s%s" % (num, status, label, " (%s)" % detail if detail else ""))
    assert ok, "criterion %02d failed: %s %s" % (num, label, detail)


def test_criterion_01_even_stride_likelihood_symmetry():
    # stride-2 observations cannot distinguish a peak at omega0 from one at
    # 1/2 - omega0: the exact log-likelihoods agree to 1e-8
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    datasets = []
    for _ in range(20):
        indices = 2 * np.sort(rng.choice(60, size=10, replace=False))
        datasets.append((indices, rng.standard_normal(10)))
    omegas = default_omega_grid(50)
    worst = 0.0
    for omega in omegas:
        model_a = SpectralModel(ar=ar2_from_omega(omega, 0.9))
        model_b = SpectralModel(ar=ar2_from_omega(0.5 - omega, 0.9))
        for indices, values in datasets:
            obs = list(zip(indices, values))
            diff = abs(exact_loglik(model_a, obs) - exact_loglik(model_b, obs))
            worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    _report(1, "delta=2 likelihood symmetry",
            worst < 1e-8 and elapsed < 10.0,
            "max diff %.3g, %.1f s" % (worst, elapsed))


def _surface_stats(n_low, n_high, region, replicates=200, seed=0):
    """Aligned average surface plus a per-replicate statistic for the height
    of the region maximum relative to the global maximum."""
    design = ExperimentDesign(
        n_low=n_low, n_high=n_high, replicates=replicates,
        omega_true=1.0 / 12.0, modulus=0.9, delta_low=2,
        grid=default_omega_grid(201), seed=seed,
    )
    surface, per_rep = mc_average_surface(design, keep_replicates=True)
    grid = surface.omegas
    in_region = (grid >= region[0]) & (grid <= region[1])
    avg = per_rep.mean(axis=0)
    i_peak = int(np.argmax(avg))
    j_region = int(np.flatnonzero(in_region)[np.argmax(avg[in_region])])
    stats = per_rep[:, j_region] - per_rep[:, i_peak]
    return surface, stats


def test_criterion_02_spurious_mode_suppression():
    # adding a few consecutive fine-rate observations to 128 coarse ones
    # drives the aliased mode near 5/12 down, strictly at every step
    start = time.perf_counter()
    n_high_values = [0, 4, 8, 12, 16, 20]
    heights, stats = [], []
    for n_high in n_high_values:
        _, s = _surface_stats(128, n_high, region=(0.39, 0.44))
        heights.append(s.mean())
        stats.append(s)
    heights = np.asarray(heights)
    strictly_down = bool(np.all(np.diff(heights) < 0))
    paired = stats[0] - stats[-1]
    se = paired.std(ddof=1) / np.sqrt(len(paired))
    separated = heights[0] - heights[-1] >= 2 * se
    elapsed = time.perf_counter() - start
    _report(2, "spurious-mode height decreases in n_high",
            strictly_down and separated and elapsed < 600.0,
            "heights %s, drop %.3g vs 2se %.3g, %.0f s"
            % (np.round(heights, 3).tolist(), heights[0] - heights[-1], 2 * se, elapsed))


def test_criterion_03_valley_deepens_with_more_coarse_data():
    start = time.perf_counter()
    n_low_values = [60, 140, 260]
    depths, stats = [], []
    for n_low in n_low_values:
        design = ExperimentDesign(
            n_low=n_low, n_high=20, replicates=200,
            omega_true=1.0 / 12.0, modulus=0.9, delta_low=2,
            grid=default_omega_grid(201), seed=0,
        )
        surface, per_rep = mc_average_surface(design, keep_replicates=True)
        grid = surface.omegas
        in_region = (grid >= 0.2) & (grid <= 0.3)
        avg = per_rep.mean(axis=0)
        i_peak = int(np.argmax(avg))
        j_valley = int(np.flatnonzero(in_region)[np.argmin(avg[in_region])])
        stats.append(per_rep[:, i_peak] - per_rep[:, j_valley])
        depths.append(stats[-1].mean())
    ok = True
    details = []
    for a, b in zip(range(len(depths) - 1), range(1, len(depths))):
        paired = stats[b] - stats[a]
        se = paired.std(ddof=1) / np.sqrt(len(paired))
        ok = ok and depths[b] >= depths[a] - 2 * se
        details.append("%.2f->%.2f (2se %.2g)" % (depths[a], depths[b], 2 * se))
    elapsed = time.perf_counter() - start
    _report(3, "between-mode valley deepens in n_low",
            ok and elapsed < 600.0, "; ".join(details) + ", %.0f s" % elapsed)


def test_criterion_04_discrepancy_hand_cases():
    x = np.linspace(-2.0, 3.0, 17)
    zero = discrepancy(x, x)
    c = 1.7
    offset = discrepancy(x, x + c)
    three_point = discrepancy(np.array([1.0, 0.0, 2.0]), np.array([0.0, 2.0, 2.0]))
    ok = (abs(zero) < 1e-12 and abs(offset - c**2) < 1e-12
          and abs(three_point - 5.0 / 3.0) < 1e-12)
    _report(4, "discrepancy statistic exact on hand cases", ok,
            "0 -> %.2g, c^2 err %.2g, 5/3 err %.2g"
            % (zero, offset - c**2, three_point - 5.0 / 3.0))


def test_criterion_05_benchmark_table_trends():
    start = time.perf_counter()
    rows = [(1, 16), (1, 128)]
    cols = [(d, n) for d in (1, 6) for n in (16, 64, 128)]
    means, errs = table_sweep(rows, cols, replicates=100, seed=0)
    ok = np.all(np.isfinite(means))
    details = []
    # mean discrepancy falls as the second segment grows, at fixed stride
    for i in range(len(rows)):
        for delta in (1, 6):
            idx = [cols.index((delta, n)) for n in (16, 64, 128)]
            for a, b in zip(idx, idx[1:]):
                slack = 2 * np.hypot(errs[i, a], errs[i, b])
                if not means[i, b] <= means[i, a] + slack:
                    ok = False
                    details.append("N trend broken at row %d delta %d" % (i, delta))
    # and rises as the second segment gets coarser, at fixed length
    for i in range(len(rows)):
        for n in (16, 64, 128):
            a, b = cols.index((1, n)), cols.index((6, n))
            slack = 2 * np.hypot(errs[i, a], errs[i, b])
            if not means[i, b] >= means[i, a] - slack:
                ok = False
                details.append("delta trend broken at row %d N %d" % (i, n))
    small = means[rows.index((1, 16)), cols.index((1, 16))]
    large = means[rows.index((1, 128)), cols.index((1, 128))]
    corner = small >= 1.5 * large
    elapsed = time.perf_counter() - start
    _report(5, "benchmark table trends at desk scale",
            ok and corner and elapsed < 1800.0,
            "corner %.3f vs %.3f, %s%.0f s"
            % (small, large, ("; ".join(details) + ", ") if details else "", elapsed))


def test_criterion_06_interpolation_bias_and_honest_bands():
    start = time.perf_counter()
    n_biased = 0
    honest = True
    for seed in range(50):
        result = interp_comparison(seed)
        low = result.grid < 0.25
        shares = []
        for curve in (result.ar_fit, result.smoothed_pgram):
            power = np.exp(curve)
            shares.append(power[low].sum() / power.sum())
        if all(s > 0.5 for s in shares):
            n_biased += 1
        # with only the stride-2 history, beliefs must not favor the true
        # peak over its alias: mean gap bounded by the band width
        s = spectrum_summary(result.history_state, np.array([0.15, 0.35]))
        if abs(s.mean[1] - s.mean[0]) >= 2 * s.sd.max():
            honest = False
    elapsed = time.perf_counter() - start
    _report(6, "interpolation shifts power below the fold point",
            n_biased >= 45 and honest and elapsed < 600.0,
            "%d/50 seeds biased, honesty %s, %.0f s" % (n_biased, honest, elapsed))


def test_criterion_07_prediction_variance_oracles():
    start = time.perf_counter()
    flat = kolmogorov_variance(SpectralModel(innovation_variance=2.5))
    ok = abs(flat - 2.5) < 1e-9
    worst = 0.0
    models = [SpectralModel(ar=(phi,)) for phi in (0.3, 0.6, 0.9)]
    models.append(SpectralModel(ar=ar2_from_omega(1.0 / 12.0, 0.9)))
    for model in models:
        worst = max(worst, abs(kolmogorov_variance(model) - 1.0))
    elapsed = time.perf_counter() - start
    _report(7, "one-step prediction variance recovers sigma2",
            ok and worst < 1e-6 and elapsed < 1.0,
            "flat err %.2g, AR worst err %.2g, %.2f s" % (flat - 2.5, worst, elapsed))


def test_criterion_08_sparse_quadrature():
    start = time.perf_counter()
    grid = sparse_grid(4, 3)
    ok = abs(grid.weights.sum() - 1.0) < 1e-12
    worst = 0.0
    double_fact = {0: 1.0, 2: 1.0, 4: 3.0}
    for exps in itertools.product(range(6), repeat=4):
        if sum(exps) > 5:
            continue
        want = 0.0 if any(e % 2 for e in exps) else np.prod([double_fact[e] for e in exps])
        got = (grid.weights * np.prod(grid.nodes**np.asarray(exps), axis=1)).sum()
        worst = max(worst, abs(got - want))
    ok = ok and worst < 1e-9

    # propagation of the prediction-variance functional vs plain Monte Carlo
    prior = PriorSpec(size=8, intercept_mean=0.3, scale=0.05)
    state = prior.to_state()
    value = propagate(state, 4, 5, kolmogorov_variance)
    decomp = pc_decomposition(state)
    loadings = decomp.eigenvectors[:, :4] * np.sqrt(decomp.eigenvalues[:4])
    rng = np.random.default_rng(1)
    betas = state.mean + rng.standard_normal((100_000, 4)) @ loadings.T
    from mrspec.models import basis_matrix, simpson_grid

    omegas, weights = simpson_grid(4096)
    a = 2.0 * (weights @ basis_matrix(omegas, state.size))
    mc = np.exp(betas @ a).mean()
    rel = abs(value - mc) / mc
    elapsed = time.perf_counter() - start
    _report(8, "sparse quadrature exact to degree 5 and matches MC",
            ok and rel < 0.01 and elapsed < 60.0,
            "moment err %.2g, MC rel err %.3g, %.0f s" % (worst, rel, elapsed))


def test_criterion_09_adjustment_identities():
    rng = np.random.default_rng(2)
    worst = 0.0
    monotone = True
    for trial in range(20):
        size = int(rng.integers(4, 12))
        scale = float(rng.uniform(0.3, 2.0))
        prior = PriorSpec(size=size, intercept_mean=float(rng.normal()), scale=scale)
        state = prior.to_state()
        layouts = [
            PeriodogramData.layout("a", int(rng.integers(1, 4)), int(rng.integers(16, 33))),
            PeriodogramData.layout("b", int(rng.integers(1, 4)), int(rng.integers(16, 33))),
        ]
        observed = [rng.standard_normal(len(l.frequencies)) - EULER_GAMMA for l in layouts]
        final, stages = sequential_adjust(
            state, [replace(l, log_periodogram=o) for l, o in zip(layouts, observed)],
            mc_samples=800, seed=trial)
        moments = forecast_moments(state, layouts, 800, trial)
        joint = adjust(state, moments, np.concatenate(observed))
        scale_m = max(np.linalg.norm(joint.mean), 1.0)
        scale_v = max(np.linalg.norm(joint.variance), 1.0)
        worst = max(worst,
                    np.linalg.norm(final.mean - joint.mean) / scale_m,
                    np.linalg.norm(final.variance - joint.variance) / scale_v)
        traces = [np.trace(state.variance)] + [np.trace(s.variance) for s in stages]
        monotone = monotone and bool(np.all(np.diff(traces) <= 1e-10))

    # scalar conjugate case: prior beta ~ (0, 1), D = beta + noise of
    # variance w, observe d: adjusted expectation is d / (1 + w)
    conj_err = 0.0
    for w, d in ((0.5, 1.7), (2.0, -0.4), (0.1, 3.2)):
        prior = BeliefState(np.zeros(1), np.ones((1, 1)))
        moments = ForecastMoments(np.zeros(1), np.array([[1.0 + w]]),
                                  np.ones((1, 1)), (("d", 1),))
        post = adjust(prior, moments, np.array([d]))
        conj_err = max(conj_err, abs(post.mean[0] - d / (1.0 + w)))
    _report(9, "sequential adjustment matches joint adjustment",
            worst < 1e-8 and monotone and conj_err < 1e-12,
            "worst rel %.2g, traces monotone %s, conjugate err %.2g"
            % (worst, monotone, conj_err))


def test_criterion_10_log_periodogram_noise_moments():
    rng = np.random.default_rng(3)
    logs = []
    for _ in range(10_000):
        series = SampledSeries(rng.standard_normal(64), 1)
        logs.append(log_periodogram(series).log_periodogram)
    logs = np.asarray(logs)
    mean_err = abs(logs.mean() + EULER_GAMMA)
    var_err = abs(logs.var(ddof=1) - LOG_PGRAM_VARIANCE)
    _report(10, "log-periodogram noise moments",
            mean_err < 0.02 and var_err < 0.05,
            "mean %.4f (want %.4f), var %.4f (want %.4f)"
            % (logs.mean(), -EULER_GAMMA, logs.var(ddof=1), LOG_PGRAM_VARIANCE))


def test_criterion_11_symmetric_bands_from_even_stride_data():
    prior = PriorSpec().to_state()
    layout = PeriodogramData.layout("history", 2, 120)
    moments = forecast_moments(prior, [layout], mc_samples=2000, seed=0)
    rng = np.random.default_rng(4)
    observed = moments.mean + rng.standard_normal(len(moments.mean))
    state = adjust(prior, moments, observed)
    grid = np.linspace(0.01, 0.49, 97)
    summary = spectrum_summary(state, grid)
    sd = summary.sd
    rel = np.max(np.abs(sd - sd[::-1]) / np.maximum(sd, sd[::-1]))
    _report(11, "band width symmetric about omega = 1/4 under delta=2 data",
            rel < 0.05, "max relative asymmetry %.3g" % rel)


def test_criterion_12_cli_reruns_byte_identical(tmp_path):
    series_cfg = {"model": {"ar": [0.4], "sigma2": 1.0}, "n": 64, "seed": 3}
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()

    def run(command, cfg, out):
        path = cfg_dir / ("%s.json" % out)
        write_json(path, cfg)
        out_dir = tmp_path / out
        code = main([command, "--config", str(path), "--out", str(out_dir)])
        assert code == 0, "%s exited %d" % (command, code)
        return out_dir

    seed_out = run("simulate", series_cfg, "seed_series")
    belief_path = tmp_path / "belief.json"
    write_json(belief_path, {"mean": [0.2, 0.1, -0.05, 0.0],
                             "variance": np.diag([0.4, 0.2, 0.1, 0.05]).tolist()})
    commands = [
        ("simulate", series_cfg),
        ("spectrum", {"model": {"ar": [0.5], "sigma2": 1.0}, "delta": 2,
                      "grid_points": 33}),
        ("loglik-surface", {"n_low": 12, "n_high": 2, "replicates": 2,
                            "omega_true": 0.3, "grid_points": 9, "seed": 0}),
        ("estimate", {"series": [str(seed_out / "series.csv")],
                      "prior": {"size": 8}, "mc_samples": 600, "seed": 0}),
        ("bench", {"d1_cells": [[1, 16]], "d2_cells": [[1, 16]],
                   "deltas": [1], "ns": [16], "replicates": 2, "seed": 0}),
        ("compare-interp", {"seed": 0, "n_total": 300, "mc_samples": 600}),
        ("pc-fan", {"belief": str(belief_path), "components": 2, "grid_points": 16}),
        ("quadrature", {"d": 2, "level": 3}),
        ("kolmogorov", {"model": {"ar": [0.6], "sigma2": 1.0}}),
        ("diff-grid", {"beliefs": [str(belief_path), str(belief_path)],
                       "grid_points": 8}),
    ]
    ok = True
    details = []
    for command, cfg in commands:
        out1 = run(command, cfg, "%s_r1" % command.replace("-", "_"))
        out2 = run(command, cfg, "%s_r2" % command.replace("-", "_"))
        for csv in sorted(p.name for p in out1.glob("*.csv")):
            if (out1 / csv).read_bytes() != (out2 / csv).read_bytes():
                ok = False
                details.append("%s/%s differs" % (command, csv))
    _report(12, "CLI reruns are byte-identical", ok, "; ".join(details))
