"""Monte Carlo benchmarking of log-spectrum estimators via the mean squared
log-spectrum discrepancy, plus the interpolation-based comparison baselines."""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .beliefs import (
    MIN_PERIODOGRAM_N,
    PeriodogramData,
    PriorSpec,
    _adjusted,
    _project_psd,
    adjust,
    forecast_moments,
    log_periodogram,
    log_periodogram_rows,
    matvecs,
    whiten,
)
from .models import (DesignError, LogSpectrum, SampledSeries, SpectralModel,
                     _check_integer_fields, _normals, ar2_from_omega, basis_matrix, levinson,
                     simulate, simulate_log_spectra, spectral_density, subsample)

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
    """Mean squared difference of two log-spectrum curves on a shared grid; for
    two (R, n) stacks of curves, the R row-wise means, each equal bit for bit
    to that of its pair of rows taken alone."""
    a = np.asarray(true_log_curve, dtype=float)
    b = np.asarray(est_log_curve, dtype=float)
    if a.shape != b.shape or a.ndim not in (1, 2):
        raise ValueError("curves must be 1-d or stacked in rows, and on the same grid")
    out = np.mean((a - b) ** 2, axis=-1)
    return float(out) if a.ndim == 1 else out


def _prior_draws(prior, seeds):
    """Coefficient vectors drawn from the smoothness prior, as the rows of a
    (len(seeds), K) matrix; row r depends only on seeds[r]."""
    draws = _normals(prior.size, seeds)
    draws *= np.sqrt(prior.variances())
    draws += prior.means()
    return draws


def random_process(seed, prior=None):
    """Draw a LogSpectrum whose coefficients follow the smoothness prior."""
    return LogSpectrum(_prior_draws(prior or PriorSpec(), [seed])[0])


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
        _check_integer_fields(self, ("replicates", "mc_samples"))
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


def run_bench(design, prior=None):
    """One Table-style cell: mean discrepancy of the Bayes linear estimate
    over replicated draws from the prior; the 1 x 1 table of ``table_sweep``.

    The result equals a loop that runs ``simulate``, ``log_periodogram`` and
    ``adjust`` on each replicate, over moments forecast for the two segments,
    and counts a replicate as failed when any of them raises; here such a
    replicate (a zero periodogram ordinate, a non-finite path) has a non-finite
    adjusted mean.  It equals the loop bit for bit when d1 != d2; when d1 = d2
    the forecast has the one layout, read twice (``ForecastMoments.select``),
    and the two agree up to rounding.  Deterministic given the design seed;
    replicate reduction is in index order."""
    return _sweep([design.d1], [design.d2], design.replicates, design.seed,
                  design.mc_samples, prior)[0][0]


def table_sweep(d1_cells, d2_cells, replicates, seed, prior=None):
    """Mean discrepancy over the Cartesian product of the (delta, N) cells for
    the first and second segments, all from one set of draws.  Returns (means,
    stderrs) with one row per D1 cell and one column per D2 cell."""
    if not (d1_cells and d2_cells):
        raise DesignError("d1_cells and d2_cells, both lists of cells, must be nonempty")
    # every cell's design is built before any draw is made, so a bad cell fails at once
    designs = [BenchDesign(d1=d1, d2=d2, replicates=replicates, seed=seed)
               for d1 in d1_cells for d2 in d2_cells]
    results = _sweep(d1_cells, d2_cells, replicates, seed, designs[0].mc_samples, prior)
    means, stderrs = np.moveaxis([[(r.mean, r.stderr) for r in row] for row in results], 2, 0)
    return means, stderrs


def _sweep(d1_cells, d2_cells, replicates, seed, mc_samples, prior):
    """Every cell's BenchResult, one list per D1 cell, from common random numbers
    (Glasserman 2004, sec. 4.2): one ``forecast_moments`` over every distinct layout,
    keyed by (delta, N), holding each cell's moments as a sub-block (a cell whose
    segments share a layout reads it twice), and one path per replicate, of which a
    cell reads path[:d1 N1:d1] and path[d1 N1 : d1 N1 + d2 N2 : d2].  Reflection
    pairing is chosen once: draws pair only when every stride is even.  Each cell's
    estimates and shared adjusted variance come from one ``_adjusted`` call."""
    prior = prior or PriorSpec()
    layouts = {(delta, n): PeriodogramData.layout((delta, n), delta, n)
               for delta, n in (*d1_cells, *d2_cells)}
    moment_seed, *rep_seeds = np.random.SeedSequence(seed).spawn(replicates + 1)
    prior_state = prior.to_state()
    moments = forecast_moments(prior_state, list(layouts.values()), mc_samples, moment_seed)
    sim_seeds, proc_seeds = zip(*(rep_seed.spawn(2) for rep_seed in rep_seeds))
    coefficients = _prior_draws(prior, proc_seeds)
    length = max(d * n for d, n in d1_cells) + max(d * n for d, n in d2_cells)
    paths = simulate_log_spectra(coefficients, length, sim_seeds)
    grid_basis = basis_matrix(standard_grid(), prior.size)
    true_curves = matvecs(grid_basis, coefficients)
    results = [[] for _ in d1_cells]
    # a zero ordinate logs to -inf and a path not simulated is NaN; the whitening
    # spreads either over the replicate's row, whose non-finite mean fails it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for row, (delta1, n1) in zip(results, d1_cells):
            split = delta1 * n1
            first = log_periodogram_rows(paths[:, :split:delta1])
            for delta2, n2 in d2_cells:
                cell = moments.select([(delta1, n1), (delta2, n2)])
                second = log_periodogram_rows(paths[:, split:split + delta2 * n2:delta2])
                observed = np.concatenate([first, second], axis=1)
                try:
                    estimates, var = _adjusted(prior_state, cell.whitened, whiten(cell, observed))
                    # one adjusted variance serves every replicate: rejected once if not PSD
                    _project_psd(var)
                except (np.linalg.LinAlgError, ArithmeticError, ValueError):
                    row.append(BenchResult(np.nan, np.nan, np.asarray([]), replicates))
                    continue
                usable = np.all(np.isfinite(estimates), axis=1)
                scores = discrepancy(true_curves[usable], matvecs(grid_basis, estimates[usable]))
                mean = float(scores.mean()) if len(scores) else np.nan
                stderr = scores.std(ddof=1) / np.sqrt(len(scores)) if len(scores) > 1 else np.nan
                row.append(BenchResult(mean, float(stderr), scores, replicates - len(scores)))
    return results


def spline_interpolate(series):
    """Natural cubic spline through the observed points, evaluated at every
    base index they span.

    The knots are evenly spaced, h = stride apart, so the second derivatives
    M_i solve the tridiagonal system M_0 = M_{n-1} = 0,
    M_{i-1} + 4 M_i + M_{i+1} = 6 (y_{i+1} - 2 y_i + y_{i-1}) / h^2
    (de Boor, A Practical Guide to Splines, ch. IV).  It is strictly
    diagonally dominant, so one Thomas sweep solves it without pivoting; here
    it is solved for N_i = h^2 M_i / 6.  At t = k / h between knots i and i+1,
    s = (1-t) y_i + t y_{i+1} + ((1-t)^3 - (1-t)) N_i + (t^3 - t) N_{i+1};
    at t = 0 both cubic terms are exactly zero, so every observed point is
    reproduced bit for bit.  A stride-1 result starts at base index 0, so the
    series must too."""
    if series.offset:
        raise ValueError("cannot interpolate a series with offset %d, only 0" % series.offset)
    if series.stride < 2:
        return SampledSeries(series.values.copy(), stride=1, offset=0, base_step=series.base_step)
    y = series.values
    n = len(y)
    if n < 4:
        raise ValueError("need at least 4 points for cubic spline interpolation")
    finite = np.isfinite(y)
    if not np.all(finite):
        k = int(np.argmin(finite))
        raise ValueError("cannot interpolate a non-finite value %s at index %d" % (y[k], k))
    # finite values near the float range can overflow the solve; that is an error below
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = (y[2:] - 2.0 * y[1:-1] + y[:-2]).tolist()
        # forward elimination on the interior unknowns N_1 .. N_{n-2}, then back substitution
        scale, elim = [0.25], [rhs[0] * 0.25]
        for r in rhs[1:]:
            pivot = 1.0 / (4.0 - scale[-1])
            scale.append(pivot)
            elim.append((r - elim[-1]) * pivot)
        second = [0.0] * n
        second[n - 2] = elim[-1]
        for i in range(n - 3, 0, -1):
            second[i] = elim[i - 1] - scale[i - 1] * second[i + 1]
        second = np.array(second)[:, None]
        t = np.arange(series.stride) / series.stride
        u = 1.0 - t
        dense = np.empty((n - 1) * series.stride + 1)
        dense[:-1] = (y[:-1, None] * u + y[1:, None] * t
                      + second[:-1] * (u ** 3 - u) + second[1:] * (t ** 3 - t)).ravel()
    dense[-1] = y[-1]
    if not np.all(np.isfinite(dense)):
        raise ValueError("series is too large for cubic spline interpolation "
                         "(largest |value| %.6g)" % np.max(np.abs(y)))
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
    ar_log = np.log(spectral_density(SpectralModel(ar=phi, innovation_variance=sigma2), grid))

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
