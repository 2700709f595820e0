"""Bayes linear adjustment of log-spectrum basis coefficients from
log-periodograms of series observed at mixed strides."""

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import ndtri

from .aliasing import fold_branches
from .models import DesignError, LogSpectrum, basis_matrix

__all__ = [
    "EULER_GAMMA",
    "LOG_PGRAM_VARIANCE",
    "MIN_PERIODOGRAM_N",
    "BeliefState",
    "PriorSpec",
    "PeriodogramData",
    "ForecastMoments",
    "AdjustmentError",
    "log_periodogram",
    "forecast_moments",
    "adjustment_gain",
    "adjust",
    "sequential_adjust",
    "SpectrumSummary",
    "spectrum_summary",
    "difference_grid",
]

EULER_GAMMA = float(np.euler_gamma)
# asymptotic variance of a log-periodogram ordinate at interior frequencies
LOG_PGRAM_VARIANCE = np.pi**2 / 6.0
# shortest series log_periodogram accepts
MIN_PERIODOGRAM_N = 8


class AdjustmentError(ArithmeticError):
    """Bayes linear solve failed (singular data variance)."""


def _project_psd(matrix, tol_scale=1e-10):
    """Symmetrize and clip small negative eigenvalues; reject large ones."""
    sym = 0.5 * (matrix + matrix.T)
    vals, vecs = np.linalg.eigh(sym)
    floor = -tol_scale * max(np.trace(sym), 0.0) - 1e-300
    if vals[0] < floor:
        raise ValueError(
            "variance matrix is not positive semi-definite (min eigenvalue %.6g)" % vals[0]
        )
    return (vecs * np.clip(vals, 0.0, None)) @ vecs.T


@dataclass(frozen=True)
class BeliefState:
    """Second-order beliefs (expectation and variance) for the basis
    coefficients of a log-spectrum."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        var = np.asarray(self.variance, dtype=float)
        if mean.ndim != 1 or var.shape != (len(mean), len(mean)):
            raise ValueError("mean must be length-M, variance M x M")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", _project_psd(var))

    @property
    def size(self):
        return len(self.mean)

    def mean_logspectrum(self):
        return LogSpectrum(self.mean)


@dataclass(frozen=True)
class PriorSpec:
    """Smoothness prior for the cosine coefficients: independent components
    with variance scale / (1 + (m / cutoff)**(2 * smoothness))."""

    size: int = 32
    intercept_mean: float = 0.0
    scale: float = 1.0
    smoothness: float = 2.0
    cutoff: float = 4.0

    def __post_init__(self):
        size = self.size
        if isinstance(size, bool) or not isinstance(size, Integral) or size < 1:
            raise DesignError("prior.size must be an integer >= 1, got %r" % (size,))
        for name in ("intercept_mean", "scale", "smoothness", "cutoff"):
            value = getattr(self, name)
            positive = name != "intercept_mean"
            if (isinstance(value, bool) or not isinstance(value, Real)
                    or not np.isfinite(value) or positive and value <= 0):
                raise DesignError("prior.%s must be a finite number%s, got %r"
                                  % (name, " > 0" if positive else "", value))

    def variances(self):
        m = np.arange(self.size)
        return self.scale / (1.0 + (m / self.cutoff) ** (2.0 * self.smoothness))

    def to_state(self):
        mean = np.zeros(self.size)
        mean[0] = self.intercept_mean
        return BeliefState(mean, np.diag(self.variances()))


@dataclass(frozen=True)
class PeriodogramData:
    """Log-periodogram ordinates of one series at its coarse Fourier
    frequencies (nu = j/N for j = 1..floor((N-1)/2))."""

    series_id: str
    stride: int
    frequencies: np.ndarray
    log_periodogram: np.ndarray

    def __post_init__(self):
        freq = np.asarray(self.frequencies, dtype=float)
        logp = np.asarray(self.log_periodogram, dtype=float)
        if freq.shape != logp.shape or freq.ndim != 1:
            raise ValueError("frequencies and log_periodogram must match in shape")
        if np.any(freq <= 0) or np.any(freq >= 0.5):
            raise ValueError("frequencies must lie strictly inside (0, 1/2)")
        object.__setattr__(self, "frequencies", freq)
        object.__setattr__(self, "log_periodogram", logp)

    @classmethod
    def layout(cls, series_id, stride, n_obs):
        """Frequency layout only (log values zeroed), for moment forecasting."""
        freq = fourier_frequencies(n_obs)
        return cls(series_id, stride, freq, np.zeros_like(freq))


def fourier_frequencies(n):
    """Interior Fourier frequencies j/n, excluding 0 and the Nyquist bin."""
    j = np.arange(1, (n - 1) // 2 + 1)
    return j / float(n)


def log_periodogram(series, series_id="series"):
    """Mean-centered log-periodogram of a SampledSeries at its coarse rate.

    I(nu_j) = (1/N) |sum_t (x_t - xbar) e^{-i 2 pi nu_j t}|^2, which has
    E[I] ~ f_delta under the 2*integral(f) = gamma(0) spectral convention.
    """
    n = len(series)
    if n < MIN_PERIODOGRAM_N:
        raise ValueError("series too short for a periodogram (need N >= %d)" % MIN_PERIODOGRAM_N)
    freq = fourier_frequencies(n)
    spec = np.fft.rfft(series.values - series.values.mean())
    pgram = np.abs(spec[1 : len(freq) + 1]) ** 2 / n
    return PeriodogramData(series_id, series.stride, freq, np.log(pgram))


@dataclass(frozen=True)
class ForecastMoments:
    """Prior moments of the stacked log-periodogram data vector D."""

    mean: np.ndarray
    variance: np.ndarray
    cross: np.ndarray  # Cov(beta, D), shape (M, K)
    blocks: tuple  # (series_id, length) per dataset, in stacking order

    def block_slices(self):
        out, start = [], 0
        for name, length in self.blocks:
            out.append((name, slice(start, start + length)))
            start += length
        return out

    @cached_property
    def factor(self):
        """Lower Cholesky factor of Var(D) in cho_factor's (c, lower) form, made
        on first use.  A ridge is added only as a fallback: the noise floor
        pi^2/6 on the diagonal keeps Var(D) well conditioned in normal use, and
        the exact factor preserves closed-form conjugate cases to machine precision."""
        var_d = self.variance
        try:
            return cho_factor(var_d, lower=True)
        except np.linalg.LinAlgError:
            pass
        k = var_d.shape[0]
        ridge = 1e-10 * np.trace(var_d) / k
        try:
            return cho_factor(var_d + ridge * np.eye(k), lower=True)
        except np.linalg.LinAlgError:
            names = _degenerate_blocks(var_d, self.blocks)
            raise AdjustmentError(
                "data variance singular after ridge (degenerate dataset(s): %s)" % names
            )


def _branch_basis(datasets, size):
    """Basis matrices at the folded branch frequencies of each dataset."""
    return [basis_matrix(fold_branches(data.frequencies, data.stride).ravel(), size)
            for data in datasets]


def forecast_moments(prior, datasets, mc_samples=2000, seed=0):
    """Monte Carlo prior moments of the stacked log-periodogram vector.

    Each prior draw beta maps to mu_j = log fold(exp(log-spectrum), delta)(nu_j)
    - EULER_GAMMA; the independent log-periodogram noise variance pi^2/6 is
    added analytically to the diagonal of Var(D).
    """
    if mc_samples < 500:
        raise DesignError("mc_samples must be >= 500, got %r" % (mc_samples,))
    size = prior.size
    vals, vecs = np.linalg.eigh(prior.variance)
    root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    rng = np.random.default_rng(seed)
    reflect = _reflection_signs(size) if _reflection_symmetric(prior, datasets) else None
    if reflect is None:
        betas = prior.mean + rng.standard_normal((mc_samples, size)) @ root.T
    else:
        # folding at an even stride is invariant under reflecting the source
        # spectrum about omega = 1/4, which maps beta_m -> (-1)^m beta_m;
        # pairing each draw with its reflection makes the sampled moments
        # exactly symmetric instead of symmetric only in the MC limit
        half = (mc_samples + 1) // 2
        drawn = prior.mean + rng.standard_normal((half, size)) @ root.T
        betas = np.concatenate([drawn, drawn * reflect])
        mc_samples = len(betas)

    mu_parts = []
    for data, psi in zip(datasets, _branch_basis(datasets, size)):
        logf = betas @ psi.T  # (S, n_freq * delta)
        folded = np.exp(logf).reshape(mc_samples, len(data.frequencies), data.stride)
        mu_parts.append(np.log(folded.mean(axis=2)) - EULER_GAMMA)
    mu = np.concatenate(mu_parts, axis=1)

    mean_d = mu.mean(axis=0)
    centered_d = mu - mean_d
    centered_b = betas - betas.mean(axis=0)
    denom = mc_samples - 1
    var_d = centered_d.T @ centered_d / denom + LOG_PGRAM_VARIANCE * np.eye(mu.shape[1])
    cross = centered_b.T @ centered_d / denom
    blocks = tuple((d.series_id, len(d.frequencies)) for d in datasets)
    moments = ForecastMoments(mean_d, var_d, cross, blocks)
    object.__setattr__(moments, "cross",
                       _cap_canonical_correlations(prior.variance, moments.factor, cross))
    return moments


def _reflection_signs(size):
    return np.where(np.arange(size) % 2 == 0, 1.0, -1.0)


def _reflection_symmetric(prior, datasets):
    """True when reflection antithetics are valid: every stride is even and
    the prior is invariant under beta_m -> (-1)^m beta_m."""
    if not datasets or any(d.stride % 2 for d in datasets):
        return False
    signs = _reflection_signs(prior.size)
    if not np.allclose(prior.mean * signs, prior.mean, atol=1e-12):
        return False
    reflected = (signs[:, None] * prior.variance) * signs
    return np.allclose(reflected, prior.variance, atol=1e-12 * max(np.trace(prior.variance), 1.0))


def _cap_canonical_correlations(var_b, factor_d, cross):
    """Shrink the sampled cross-covariance so its canonical correlations with
    the exact prior variance stay <= 1.

    Monte Carlo noise can make Cov(beta, D) slightly too strong relative to
    Var(beta), which would drive adjusted variances negative; capping the
    correlations restores a valid joint second-order specification.  D is
    whitened by the lower Cholesky factor L of Var(D) (``factor_d``, as
    cho_factor returns it): canonical correlations do not depend on which
    square root whitens.  Uncapped input comes back unchanged."""
    vals_b, vecs_b = np.linalg.eigh(var_b)
    vals_b = np.clip(vals_b, 0.0, None)
    root_b = np.sqrt(vals_b)
    inv_root_b = np.where(root_b > 0, 1.0 / np.where(root_b > 0, root_b, 1.0), 0.0)
    chol_d = np.tril(factor_d[0])
    # whitened Var(beta)^-1/2 Cov(beta, D) L^-T, transposed, by numpy: numpy and scipy each
    # bundle an OpenBLAS thread pool, and a threaded scipy solve here leaves its workers
    # spinning through the numpy-heavy simulation after it (~12% of a bench cell, 2 cores)
    white_t = np.linalg.solve(chol_d, (cross.T @ vecs_b) * inv_root_b)
    u, s, vt = np.linalg.svd(white_t.T, full_matrices=False)
    if s.size == 0 or s[0] <= 1.0:
        return cross
    capped = u * np.minimum(s, 1.0) @ vt
    return (vecs_b * root_b) @ capped @ chol_d.T


def _degenerate_blocks(var_d, blocks):
    bad, start = [], 0
    for name, length in blocks:
        sub = var_d[start : start + length, start : start + length]
        if np.linalg.matrix_rank(sub, tol=1e-12 * np.trace(var_d)) < length:
            bad.append(name)
        start += length
    return ", ".join(bad) if bad else "unknown"


def adjustment_gain(moments):
    """The Bayes linear gain Cov(beta, D) Var(D)^-1, shape (M, K); it does not
    depend on the observed data."""
    return cho_solve(moments.factor, moments.cross.T).T


def adjust(prior, moments, observed):
    """Bayes linear adjustment of the prior by the stacked observations.

    E_D(beta) = E(beta) + Cov(beta,D) Var(D)^-1 (d - E(D)) and the matching
    variance reduction, solved with the moments' carried factor of Var(D).
    """
    observed = np.asarray(observed, dtype=float)
    if observed.shape != moments.mean.shape:
        raise ValueError("observed vector does not match forecast moments")
    gain = adjustment_gain(moments)
    mean = prior.mean + gain @ (observed - moments.mean)
    var = prior.variance - gain @ moments.cross.T
    return BeliefState(mean, var)


def sequential_adjust(prior, datasets, observed_list, mc_samples=2000, seed=0):
    """Adjust one dataset at a time, exposing the intermediate belief states.

    Moments are forecast once from the prior over the stacked data.  Stage k
    is ``adjust`` on their leading k blocks, whose Var(D) factor is the
    leading block of the one factor of the whole Var(D), so no stage factors
    anything again and the final state is ``adjust`` on the stacked vector.
    Returns (final_state, [state_after_stage_1, ...]).
    """
    if len(datasets) != len(observed_list):
        raise ValueError("need one observed vector per dataset")
    moments = forecast_moments(prior, datasets, mc_samples, seed)
    observed = [np.asarray(d_obs, dtype=float) for d_obs in observed_list]
    for data, d_obs, (_, sl) in zip(datasets, observed, moments.block_slices()):
        if d_obs.shape != (sl.stop - sl.start,):
            raise ValueError("observed vector does not match dataset %r" % data.series_id)
    chol, lower = moments.factor
    snapshots = []
    for k, (_, sl) in enumerate(moments.block_slices(), start=1):
        e = sl.stop
        head = ForecastMoments(moments.mean[:e], moments.variance[:e, :e],
                               moments.cross[:, :e], moments.blocks[:k])
        object.__setattr__(head, "factor", (chol[:e, :e], lower))
        snapshots.append(adjust(prior, head, np.concatenate(observed[:k])))
    return snapshots[-1], snapshots


@dataclass(frozen=True)
class SpectrumSummary:
    """Pointwise mean and central credible bands for the (log-)spectrum."""

    omegas: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    bands: dict  # level -> (lo, hi)
    exponentiated: bool = False


def spectrum_summary(state, grid, levels=(0.5, 0.9), exponentiate=False):
    """Pointwise summary of the log-spectrum under a belief state.

    Bands are mean +/- z_level * sd in log space; ``exponentiate`` maps the
    mean curve and bounds through exp.
    """
    grid = np.asarray(grid, dtype=float)
    psi = basis_matrix(grid, state.size)
    mean = psi @ state.mean
    sd = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", psi, state.variance, psi), 0.0))
    bands = {}
    for level in levels:
        z = ndtri(0.5 + level / 2.0)
        lo, hi = mean - z * sd, mean + z * sd
        bands[level] = (np.exp(lo), np.exp(hi)) if exponentiate else (lo, hi)
    return SpectrumSummary(
        grid, np.exp(mean) if exponentiate else mean, sd, bands, exponentiate
    )


def difference_grid(states, grid):
    """Matrix of curves: diagonal entries are the mean log-spectra, entry
    (i, j) off the diagonal is mean_i - mean_j on the grid."""
    grid = np.asarray(grid, dtype=float)
    sizes = {s.size for s in states}
    if len(sizes) != 1:
        raise ValueError("all belief states must share one basis size")
    means = [basis_matrix(grid, s.size) @ s.mean for s in states]
    k = len(states)
    out = np.empty((k, k, len(grid)))
    for i in range(k):
        for j in range(k):
            out[i, j] = means[i] if i == j else means[i] - means[j]
    return out
