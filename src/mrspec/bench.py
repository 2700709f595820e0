"""Monte Carlo benchmarking of log-spectrum estimators via the mean squared
log-spectrum discrepancy, plus the interpolation-based comparison baselines."""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .beliefs import (
    MIN_PERIODOGRAM_N,
    PeriodogramData,
    PriorSpec,
    adjust,
    forecast_moments,
    log_periodogram,
)
from .models import (DesignError, LogSpectrum, SampledSeries, SpectralModel, ar2_from_omega,
                     basis_matrix, levinson, simulate, simulate_log_spectra, subsample)

__all__ = [
    "standard_grid",
    "discrepancy",
    "random_process",
    "BenchDesign",
    "BenchResult",
    "run_bench",
    "table_sweep",
    "spline_interpolate",
    "baseline_spectra",
    "InterpComparison",
    "interp_comparison",
]


def standard_grid(n_omega=128):
    """The scoring grid omega_j = j / (2 * (n_omega - 1)), j = 0..n_omega-1;
    it has both endpoints, so ``n_omega`` must be >= 2."""
    if n_omega < 2:
        raise ValueError("n_omega must be >= 2, got %r" % (n_omega,))
    return np.arange(n_omega) / (2.0 * (n_omega - 1))


def discrepancy(true_log_curve, est_log_curve):
    """Mean squared difference of two log-spectrum curves on a shared grid."""
    a = np.asarray(true_log_curve, dtype=float)
    b = np.asarray(est_log_curve, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("curves must be 1-d and on the same grid")
    return float(np.mean((a - b) ** 2))


def random_process(seed, prior=None):
    """Draw a LogSpectrum whose coefficients follow the smoothness prior."""
    prior = prior or PriorSpec()
    rng = np.random.default_rng(seed)
    mean = np.zeros(prior.size)
    mean[0] = prior.intercept_mean
    beta = mean + rng.standard_normal(prior.size) * np.sqrt(prior.variances())
    return LogSpectrum(beta)


@dataclass(frozen=True)
class BenchDesign:
    """Two chronological data segments (stride, length after subsampling)
    scored against the generating log-spectrum."""

    d1: tuple  # (delta1, n1)
    d2: tuple  # (delta2, n2)
    replicates: int = 100
    seed: int = 0
    mc_samples: int = 2000

    def __post_init__(self):
        if self.replicates < 1:
            raise DesignError("replicates must be >= 1")
        for name, segment in (("d1", self.d1), ("d2", self.d2)):
            if np.shape(segment) != (2,) or not all(
                    isinstance(v, Integral) and not isinstance(v, bool) for v in segment):
                raise DesignError("segment %s=%r must be an integer pair (delta, N)"
                                  % (name, segment))
            delta, n = segment
            if delta < 1:
                raise DesignError("segment %s=%r needs delta >= 1" % (name, segment))
            if n < MIN_PERIODOGRAM_N:
                raise DesignError("segment %s=%r needs N >= %d for a log-periodogram"
                                  % (name, segment, MIN_PERIODOGRAM_N))


@dataclass(frozen=True)
class BenchResult:
    mean: float
    stderr: float
    scores: np.ndarray
    failures: int


def _segment_series(path, design):
    (delta1, n1), (delta2, n2) = design.d1, design.d2
    split = delta1 * n1
    first = subsample(SampledSeries(path.values[:split]), delta1)
    second = subsample(SampledSeries(path.values[split : split + delta2 * n2]), delta2)
    return first, second


def run_bench(design, prior=None):
    """One Table-style cell: mean discrepancy of the Bayes linear estimate
    over replicated draws from the prior.

    All replicates go through one batched pass.  Shared by the replicates and
    computed once: the forecast moments (they depend only on the prior and
    the data layout), the prior belief state, the whitened cross-covariance W
    with the check that the adjusted variance is positive semi-definite, and
    the cosine bases on the embedding nodes and on the scoring grid; the
    truths are simulated by circulant embedding, one batched FFT per chunk of
    replicates (``simulate_log_spectra``).  Per replicate there remain the
    log-periodograms, ``adjust``'s whitening of the data and update of the
    mean, and the score.  The result equals, bit for bit, a loop that runs
    ``simulate``, ``log_periodogram`` and ``adjust`` on each replicate and
    counts a replicate as failed when any of them raises.  Deterministic
    given the design seed; replicate reduction is in index order.
    """
    prior = prior or PriorSpec()
    (delta1, n1), (delta2, n2) = design.d1, design.d2
    layouts = [
        PeriodogramData.layout("d1", delta1, n1),
        PeriodogramData.layout("d2", delta2, n2),
    ]
    root = np.random.SeedSequence(design.seed)
    moment_seed, *rep_seeds = root.spawn(design.replicates + 1)
    prior_state = prior.to_state()
    moments = forecast_moments(prior_state, layouts, design.mc_samples, moment_seed)
    sim_seeds, proc_seeds = zip(*(rep_seed.spawn(2) for rep_seed in rep_seeds))
    try:
        # a truth is rejected only when the prior itself yields non-finite
        # coefficients, and then every replicate's truth is
        truths = [random_process(seed, prior) for seed in proc_seeds]
        paths, simulated = simulate_log_spectra(truths, delta1 * n1 + delta2 * n2, sim_seeds)
        white = moments.whitened
        # every replicate has the same adjusted variance; adjust rejects it
        # here, once, when it is not positive semi-definite
        adjust(prior_state, moments, moments.mean)
    except (np.linalg.LinAlgError, ArithmeticError, ValueError):
        return BenchResult(np.nan, np.nan, np.asarray([]), design.replicates)
    grid_basis = basis_matrix(standard_grid(), prior.size)
    scores = []
    for truth, path, ok in zip(truths, paths, simulated):
        if not ok:
            continue
        try:
            observed = np.concatenate([
                log_periodogram(segment).log_periodogram
                for segment in _segment_series(SampledSeries(path), design)
            ])
        except ValueError:  # a segment too short for a periodogram
            continue
        z = np.linalg.solve(moments.factor, observed - moments.mean)
        estimate = prior_state.mean + white.T @ z
        if np.all(np.isfinite(estimate)):
            scores.append(discrepancy(grid_basis @ truth.coefficients, grid_basis @ estimate))
    scores = np.asarray(scores)
    failures = design.replicates - len(scores)
    if len(scores) == 0:
        return BenchResult(np.nan, np.nan, scores, failures)
    stderr = scores.std(ddof=1) / np.sqrt(len(scores)) if len(scores) > 1 else np.nan
    return BenchResult(float(scores.mean()), float(stderr), scores, failures)


def table_sweep(deltas, ns, replicates, seed, prior=None, d1_cells=None, d2_cells=None):
    """Mean discrepancy over the Cartesian product of (delta, N) cells for the
    first and second segments.  Returns (d1_cells, d2_cells, means, stderrs)
    with one row per D1 cell and one column per D2 cell."""
    deltas, ns = list(deltas), list(ns)
    if not deltas or not ns:
        raise DesignError("delta and N grids must be nonempty")
    if d1_cells is None:
        d1_cells = [(d, n) for d in deltas for n in ns]
    if d2_cells is None:
        d2_cells = [(d, n) for d in deltas for n in ns]
    means = np.full((len(d1_cells), len(d2_cells)), np.nan)
    stderrs = np.full_like(means, np.nan)
    # every cell's design is built before any cell runs, so a bad cell fails at once
    designs = {
        (i, j): BenchDesign(d1=d1, d2=d2, replicates=replicates, seed=np.random.SeedSequence(
            entropy=seed, spawn_key=(i, j)).generate_state(1)[0])
        for i, d1 in enumerate(d1_cells) for j, d2 in enumerate(d2_cells)
    }
    for (i, j), design in designs.items():
        result = run_bench(design, prior)
        means[i, j] = result.mean
        stderrs[i, j] = result.stderr
    return d1_cells, d2_cells, means, stderrs


def spline_interpolate(series):
    """Natural cubic spline through the observed points, evaluated at every
    base index they span; observed points are reproduced exactly."""
    if series.stride < 2:
        return SampledSeries(series.values.copy(), stride=1, offset=0, base_step=series.base_step)
    if len(series) < 4:
        raise ValueError("need at least 4 points for cubic spline interpolation")
    # imported here, its one caller, so that `import mrspec` skips scipy.interpolate
    from scipy.interpolate import CubicSpline

    idx = series.base_indices()
    spline = CubicSpline(idx, series.values, bc_type="natural")
    dense = spline(np.arange(idx[0], idx[-1] + 1))
    return SampledSeries(dense, stride=1, offset=0, base_step=series.base_step)


def _sample_autocov(x, max_lag):
    n = len(x)
    xc = x - x.mean()
    return np.array([xc[: n - h] @ xc[h:] / n for h in range(max_lag + 1)])


def _modified_daniell(span):
    # half weights at the ends, as in R's modified Daniell kernel
    m = (span - 1) // 2
    w = np.ones(2 * m + 1)
    if m:
        w[0] = w[-1] = 0.5
    return w / w.sum()


def baseline_spectra(series):
    """Conventional dense-data log-spectrum estimates on the standard grid.

    (a) Yule-Walker AR fit with AIC order selection (AIC = N log sigma2 + 2p,
    ties to the smaller order); (b) periodogram smoothed by a modified
    Daniell window of odd span ~ sqrt(N).  Returns (ar_log, smoothed_log).
    The AR order is at most min(20, N // 4).
    """
    if series.stride != 1:
        raise ValueError("baseline spectra need a dense (stride 1) series")
    n = len(series)
    if n < 32:
        raise ValueError("series too short (need N >= 32)")
    x = series.values
    if np.ptp(x) == 0:
        raise ValueError("degenerate (constant) series")
    grid = standard_grid()

    p_max = min(20, n // 4)
    gamma_hat = _sample_autocov(x, p_max)
    fits = [(phi.copy(), v) for phi, v in levinson(gamma_hat)]
    aic = n * np.log([v for _, v in fits]) + 2.0 * np.arange(p_max + 1)
    order = int(np.argmin(aic))
    phi, sigma2 = fits[order]
    z = np.exp(-2j * np.pi * grid)
    denom = np.abs(np.polyval(np.concatenate([[1.0], -phi])[::-1], z)) ** 2
    ar_log = np.log(sigma2 / denom)

    pgram = np.abs(np.fft.rfft(x - x.mean())) ** 2 / n
    freqs = np.arange(len(pgram)) / n
    span = int(np.ceil(np.sqrt(n)))
    if span % 2 == 0:
        span += 1
    kernel = _modified_daniell(span)
    m = (len(kernel) - 1) // 2
    # even reflection at both ends before smoothing
    padded = np.concatenate([pgram[m:0:-1], pgram, pgram[-2 : -2 - m : -1]])
    smoothed = np.convolve(padded, kernel, mode="valid")
    keep = slice(1, (n - 1) // 2 + 1)
    smooth_log = np.log(np.interp(grid, freqs[keep], smoothed[keep]))
    return ar_log, smooth_log


@dataclass(frozen=True)
class InterpComparison:
    """Curves (log scale, standard grid) for the interpolation comparison."""

    grid: np.ndarray
    truth: np.ndarray
    blm_raw: np.ndarray
    blm_interp: np.ndarray
    ar_fit: np.ndarray
    smoothed_pgram: np.ndarray
    history_state: object  # BeliefState adjusted by the subsampled history only


def interp_comparison(seed, omega0=0.35, modulus=0.9, n_total=600, delta=2,
                      prior=None, mc_samples=2000):
    """Interpolation-bias scenario: an AR(2) with a high-frequency spectral
    peak, five sixths of the series subsampled as history, the rest dense.

    Compares the Bayes linear estimate on the raw observed segments against
    estimates computed after cubic-spline interpolation of the history
    (Bayes linear, Yule-Walker AR fit and smoothed periodogram).  A design
    that cannot run raises DesignError before anything is simulated."""
    try:
        phi = ar2_from_omega(omega0, modulus)
    except ValueError as exc:  # omega0 or modulus outside its open interval
        raise DesignError(str(exc))
    if delta < 1:
        raise DesignError("delta must be >= 1, got %r" % (delta,))
    # the history ends on a kept point right before the dense tail, so the
    # spline-filled series has no gap; at delta 1 and 2 n_hist is just odd
    n_hist = 5 * n_total // 6
    n_hist += (1 - n_hist) % max(delta, 2)
    # each segment's periodogram needs MIN_PERIODOGRAM_N points (the spline only 4);
    # then the spline-filled series has n_total >= 43, more than baseline_spectra's 32
    for what, count in (("subsampled history", -(-n_hist // delta)),
                        ("recent segment", n_total - n_hist)):
        if count < MIN_PERIODOGRAM_N:
            raise DesignError("n_total %d and delta %d give a %s of %d points; need >= %d"
                              % (n_total, delta, what, count, MIN_PERIODOGRAM_N))

    prior = prior or PriorSpec()
    truth = SpectralModel(ar=phi)
    path = simulate(truth, n_total, seed)
    history = subsample(SampledSeries(path.values[:n_hist]), delta)
    recent = SampledSeries(path.values[n_hist:])
    combined = SampledSeries(np.concatenate([spline_interpolate(history).values, recent.values]))
    hist = log_periodogram(history, "history")
    rec = log_periodogram(recent, "recent")
    interp = log_periodogram(combined, "interpolated")

    # each estimate is forecast from the periodograms it is adjusted by
    prior_state = prior.to_state()
    seeds = np.random.SeedSequence(entropy=seed, spawn_key=(1,)).spawn(3)
    raw_state, history_state, interp_state = (
        adjust(prior_state, forecast_moments(prior_state, data, mc_samples, moment_seed),
               np.concatenate([d.log_periodogram for d in data]))
        for data, moment_seed in zip(([hist, rec], [hist], [interp]), seeds)
    )

    grid = standard_grid()
    ar_log, smooth_log = baseline_spectra(combined)
    return InterpComparison(
        grid=grid,
        truth=np.log(truth.density(grid)),
        blm_raw=raw_state.mean_logspectrum().evaluate(grid),
        blm_interp=interp_state.mean_logspectrum().evaluate(grid),
        ar_fit=ar_log,
        smoothed_pgram=smooth_log,
        history_state=history_state,
    )
