"""Bayes linear adjustment of log-spectrum basis coefficients from
log-periodograms of series observed at mixed strides."""

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from .aliasing import branch_mean, fold_branches
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
    """Bayes linear solve failed (data variance not finite or not positive definite)."""


def _project_psd(matrix, scale=None):
    """Symmetrize and clip small negative eigenvalues; reject large ones.  Small
    is within 1e-10 of ``scale``, by default the matrix's own trace."""
    sym = 0.5 * (matrix + matrix.T)
    vals, vecs = np.linalg.eigh(sym)
    floor = -1e-10 * max(np.trace(sym) if scale is None else scale, 0.0) - 1e-300
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
        with np.errstate(over="ignore"):  # a steep prior's power overflows to a variance of 0
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
        raise DesignError("series %r is too short for a periodogram (N = %d, need N >= %d)"
                          % (series_id, n, MIN_PERIODOGRAM_N))
    finite = np.isfinite(series.values)
    if not np.all(finite):
        k = int(np.argmin(finite))
        raise ValueError("series %r has a non-finite value %s at index %d"
                         % (series_id, series.values[k], k))
    freq = fourier_frequencies(n)
    # finite values near the float range overflow the mean or the square to
    # +inf, and inf - inf to NaN; that is reported below, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        log_pgram = log_periodogram_rows(series.values)
    if np.any(np.isnan(log_pgram) | (log_pgram == np.inf)):
        raise ValueError("series %r is too large for a periodogram (largest |value| %.6g)"
                         % (series_id, np.max(np.abs(series.values))))
    usable = log_pgram > -np.inf  # False at a zero ordinate
    if not np.all(usable):
        raise ValueError("series %r has a zero periodogram ordinate at nu = %.6g"
                         % (series_id, freq[np.argmin(usable)]))
    return PeriodogramData(series_id, series.stride, freq, log_pgram)


def log_periodogram_rows(rows):
    """Log-periodogram ordinates at the interior Fourier frequencies of each
    row of an (R, n) array (or of one length-n vector), as ``log_periodogram``
    takes them: mean-centre, one rfft over the rows, slice, square, log.  Each
    row equals, bit for bit, the same row taken alone.  A zero ordinate is
    -inf, without a warning."""
    n = rows.shape[-1]
    spec = np.fft.rfft(rows - rows.mean(axis=-1, keepdims=True), axis=-1)
    pgram = np.abs(spec[..., 1 : (n - 1) // 2 + 1]) ** 2 / n
    with np.errstate(divide="ignore"):
        return np.log(pgram)


@dataclass(frozen=True)
class ForecastMoments:
    """Prior moments of the stacked log-periodogram data vector D, with the factor
    L of Var(D), its inverse and the W = L^-1 Cov(D, beta) that every adjustment
    reads."""

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

    def select(self, names):
        """The named blocks' moments, in the order given: up to rounding those of
        their own forecast from the same draws and reflection choice, as the
        regression of ``forecast_moments`` works column by column."""
        slices = dict(self.block_slices())
        index = np.r_[tuple(slices[name] for name in names)]
        blocks = tuple((name, slices[name].stop - slices[name].start) for name in names)
        # C order, as the forecast makes it: W's last bits depend on the order BLAS reads
        return ForecastMoments(self.mean[index], self.variance[np.ix_(index, index)],
                               self.cross.take(index, axis=1), blocks)

    @cached_property
    def factor(self):
        """Lower Cholesky factor L of Var(D), made on first use.  The Var(D) of
        ``forecast_moments`` is C^T C plus a residual covariance plus pi^2/6 on
        the diagonal, so its eigenvalues are at least pi^2/6 up to round-off."""
        var_d = self.variance
        if not np.all(np.isfinite(var_d)):
            raise AdjustmentError("data variance is not finite")
        try:
            return np.linalg.cholesky(var_d)
        except np.linalg.LinAlgError:
            raise AdjustmentError("data variance is not positive definite")

    @cached_property
    def inverse_factor(self):
        """L^-1, made once from ``factor`` by ``_invert_lower``; every data vector
        is whitened by it.  It is lower triangular, as L is, with exact zeros above
        the diagonal, so leading entries of z = L^-1 (d - E(D)) depend only on
        leading entries of d."""
        inverse = np.zeros_like(self.factor)
        _invert_lower(self.factor, inverse)
        return inverse

    @cached_property
    def whitened(self):
        """W = L^-1 Cov(D, beta), shape (K, M); its leading rows belong to the
        leading blocks of D, because L^-1 is lower triangular."""
        return self.inverse_factor @ self.cross.T


# rows up to which _invert_lower substitutes forward instead of halving
_SUBSTITUTION_ROWS = 64


def _invert_lower(lower, out):
    """Write the inverse of a nonsingular lower triangular matrix into the lower
    triangle of ``out``, by halves: [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B
    A^-1, C^-1]], down to blocks of at most ``_SUBSTITUTION_ROWS`` rows, which
    forward substitution inverts one row at a time.  No pivoting, and no entry
    above the diagonal is written."""
    n = len(lower)
    if n <= _SUBSTITUTION_ROWS:
        recip = 1.0 / np.diagonal(lower)
        np.fill_diagonal(out, recip)
        for i in range(1, n):
            out[i, :i] = (lower[i, :i] @ out[:i, :i]) * -recip[i]
        return
    h = n // 2
    _invert_lower(lower[:h, :h], out[:h, :h])
    _invert_lower(lower[h:, h:], out[h:, h:])
    np.matmul(out[h:, h:], lower[h:, :h] @ out[:h, :h], out=out[h:, :h])
    np.negative(out[h:, :h], out=out[h:, :h])


def _branch_basis(data, size, k):
    """Basis matrix at fold branch k of each of the dataset's frequencies."""
    return basis_matrix(fold_branches(data.frequencies, data.stride, k), size)


def _fold_draws(betas, data, out):
    """The fold of exp(log-spectrum) at the dataset's frequencies for each draw,
    into the (S, n_freq) ``out``: ``branch_mean`` over the branches, each the
    product of the draws with that branch's basis, made fresh and exponentiated
    in place.  At stride 1 the one branch is made in ``out`` itself."""
    def branch(k, into=None):
        into = np.matmul(betas, _branch_basis(data, betas.shape[1], k).T, out=into)
        return np.exp(into, out=into)

    if data.stride == 1:
        branch(0, out)
    else:
        branch_mean(branch, data.stride, out)


def forecast_moments(prior, datasets, mc_samples=2000, seed=0):
    """Monte Carlo prior moments of the stacked log-periodogram vector D.

    Each prior draw beta maps to mu_j = log fold(exp(log-spectrum), delta)(nu_j)
    - EULER_GAMMA.  The fold sums one branch at a time (``branch_mean``), each
    made fresh, into each dataset's columns of one (S, K) matrix, so besides it
    only one (S, n_freq) branch exists at a time, whatever the stride; at
    strides 1-7 the sampled means equal, bit for bit, numpy's mean of the same
    branches over a branch axis, and at a stride of 8 or more they can differ
    from it in the last bit.  The moments
    regress the centred mu on the centred standard scores x = (beta - E beta) U
    Lambda^-1/2, whose mean 0 and variance I are exact (the control-variate
    estimator; Glasserman, Monte Carlo Methods in Financial Engineering, 2004,
    sec. 4.1).  With P = x^T mu and C = (x^T x)^-1 P: Cov(beta, D) = U Lambda^1/2
    C, E(D) = mean(mu) - mean(x) C and Var(D) = C^T C + (mu^T mu - P^T C) / (S -
    1 - rank) + (pi^2/6) I, the last term the log-periodogram noise.  A stride-1
    block is linear in beta, so its moments are exact up to rounding, and every
    canonical correlation of beta and D is below 1.
    """
    if mc_samples < 500:
        raise DesignError("mc_samples must be >= 500, got %r" % (mc_samples,))
    size = prior.size
    vals, vecs = np.linalg.eigh(prior.variance)
    root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    # the prior's directions above rounding, relative to its largest variance
    kept = vals > max(vals[-1], 0.0) * size * np.finfo(float).eps
    rank = int(kept.sum())
    reflect = _reflection_signs(size) if _reflection_symmetric(prior, datasets) else None
    if reflect is not None:
        mc_samples = 2 * ((mc_samples + 1) // 2)
    if mc_samples <= rank + 1:
        raise DesignError("mc_samples must exceed the prior's rank + 1 to regress on the "
                          "draws, got mc_samples %d for rank %d" % (mc_samples, rank))
    # folding at an even stride is invariant under reflecting the source
    # spectrum about omega = 1/4, which maps beta_m -> (-1)^m beta_m; pairing
    # each of S/2 draws with its reflection makes the sampled moments exactly
    # symmetric instead of symmetric only in the MC limit
    drawn = mc_samples if reflect is None else mc_samples // 2
    betas = prior.mean + np.random.default_rng(seed).standard_normal((drawn, size)) @ root.T
    if reflect is not None:
        betas = np.concatenate([betas, betas * reflect])

    blocks = tuple((d.series_id, len(d.frequencies)) for d in datasets)
    mu = np.empty((mc_samples, sum(length for _, length in blocks)))
    start = 0
    # a prior too wide for exp overflows here; that is reported below, not warned about
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for data, (_, length) in zip(datasets, blocks):
            _fold_draws(betas, data, mu[:, start:start + length])
            start += length
        np.log(mu, out=mu)
        mu -= EULER_GAMMA
    if not np.all(np.isfinite(mu)):
        peak = max(float((betas @ _branch_basis(data, size, k).T).max())
                   for data in datasets for k in range(data.stride))
        raise AdjustmentError(
            "prior too wide for exp: the forecast log-periodogram means are not finite "
            "(largest sampled log-spectrum value %.6g)" % peak)

    scores = (betas - prior.mean) @ (root[:, kept] / vals[kept])
    del betas
    mean_x, mean_d = scores.mean(axis=0), mu.mean(axis=0)
    scores -= mean_x
    mu -= mean_d
    proj = scores.T @ mu
    coef = np.linalg.solve(scores.T @ scores, proj)
    del scores
    residual = (mu.T @ mu - proj.T @ coef) / (mc_samples - 1 - rank)
    var_d = coef.T @ coef + 0.5 * (residual + residual.T) + LOG_PGRAM_VARIANCE * np.eye(len(mean_d))
    return ForecastMoments(mean_d - mean_x @ coef, var_d, root[:, kept] @ coef, blocks)


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


def adjust(prior, moments, observed):
    """Bayes linear adjustment of the prior by the stacked observations.

    With Var(D) = L L^T, W = L^-1 Cov(D, beta) and the whitened data
    z = L^-1 (d - E(D)), the adjusted expectation is E(beta) + W^T z and the
    adjusted variance Var(beta) - W^T W.
    """
    observed = np.asarray(observed, dtype=float)
    if observed.shape != moments.mean.shape:
        raise ValueError("observed vector does not match forecast moments")
    return _adjusted(prior, moments.whitened, whiten(moments, observed))


def matvecs(matrix, vectors):
    """``matrix @ v`` for one vector or each row of a stack of them.  The stacked
    product runs one matrix-vector product per row, so each row equals, bit for
    bit, ``matrix @ row``; a single (R, K) @ (K, N) product changes the last bits."""
    return np.matmul(matrix, vectors[..., None])[..., 0]


def whiten(moments, observed):
    """z = L^-1 (d - E(D)) for one data vector or each row of a stack of them."""
    return matvecs(moments.inverse_factor, observed - moments.mean)


def _adjusted(prior, white, z):
    """E(beta) + W^T z and Var(beta) - W^T W.  Every canonical correlation of
    ``forecast_moments`` is below 1, so the variance is positive semi-definite
    up to round-off on the prior's scale, which is the scale of the check."""
    variance = _project_psd(prior.variance - white.T @ white, np.trace(prior.variance))
    return BeliefState(prior.mean + matvecs(white.T, z), variance)


def sequential_adjust(prior, datasets, observed_list, mc_samples=2000, seed=0):
    """Adjust one dataset at a time, exposing the intermediate belief states.

    Moments are forecast once from the prior over the stacked data, and the
    data are whitened once.  Stage k is ``adjust`` on the leading k blocks:
    because the factor of Var(D) is lower triangular, their W and z are the
    leading rows of the whole W and z, so the final state is ``adjust`` on
    the stacked vector.  Returns (final_state, [state_after_stage_1, ...]).
    """
    if len(datasets) != len(observed_list):
        raise ValueError("need one observed vector per dataset")
    moments = forecast_moments(prior, datasets, mc_samples, seed)
    observed = [np.asarray(d_obs, dtype=float) for d_obs in observed_list]
    for data, d_obs, (_, sl) in zip(datasets, observed, moments.block_slices()):
        if d_obs.shape != (sl.stop - sl.start,):
            raise ValueError("observed vector does not match dataset %r" % data.series_id)
    z = whiten(moments, np.concatenate(observed))
    stages = [_adjusted(prior, moments.whitened[:sl.stop], z[:sl.stop])
              for _, sl in moments.block_slices()]
    return stages[-1], stages


@dataclass(frozen=True)
class SpectrumSummary:
    """Pointwise mean and central credible bands for the log-spectrum."""

    mean: np.ndarray
    sd: np.ndarray
    bands: dict  # level -> (lo, hi)


# central band level -> its standard normal quantile ndtri(0.5 + level / 2)
_BAND_Z = {0.5: 0.6744897501960817, 0.9: 1.6448536269514722}


def spectrum_summary(state, grid):
    """Pointwise summary of the log-spectrum under a belief state: the mean
    and the central 50% and 90% bands mean +/- z_level * sd, in log space."""
    grid = np.asarray(grid, dtype=float)
    psi = basis_matrix(grid, state.size)
    mean = psi @ state.mean
    sd = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", psi, state.variance, psi), 0.0))
    bands = {level: (mean - z * sd, mean + z * sd) for level, z in _BAND_Z.items()}
    return SpectrumSummary(mean, sd, bands)


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
