"""Stationary process models: SARMA spectra, autocovariances, Gaussian simulation.

Spectral convention used throughout the package: the density f is defined on
[0, 1/2] and the process variance is gamma(0) = 2 * integral_0^{1/2} f(w) dw.
White noise with unit innovation variance therefore has f == 1.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dct

__all__ = [
    "SpectralModel",
    "LogSpectrum",
    "SampledSeries",
    "ModelInvariantError",
    "DesignError",
    "NotPositiveDefiniteError",
    "ar2_from_omega",
    "spectral_density",
    "basis_matrix",
    "autocovariance",
    "levinson",
    "simulate",
    "simulate_replicates",
    "simulate_log_spectra",
    "subsample",
]


class ModelInvariantError(ValueError):
    """A model violates causality, invertibility or positivity constraints."""


class DesignError(ValueError):
    """An experiment design is invalid (replicate count, segments or grid)."""


class NotPositiveDefiniteError(ArithmeticError):
    """A covariance matrix failed its Cholesky factorization."""

    def __init__(self, message, smallest_pivot=None):
        super().__init__(message)
        self.smallest_pivot = smallest_pivot


def _lag_poly(coeffs, sign, period=1):
    """Lag polynomial 1 + sign*c1*B^s + sign*c2*B^2s + ... as an ascending
    coefficient array."""
    coeffs = np.asarray(coeffs, dtype=float)
    out = np.zeros(1 + period * len(coeffs))
    out[0] = 1.0
    for k, c in enumerate(coeffs, start=1):
        out[k * period] = sign * c
    return out


@dataclass(frozen=True)
class SpectralModel:
    """SARMA coefficient sets defining a rational spectral density.

    ``ar`` and ``ma`` are the nonseasonal phi/theta vectors; ``seasonal_ar``
    and ``seasonal_ma`` act at multiples of ``season_period``.
    """

    ar: tuple = ()
    ma: tuple = ()
    seasonal_ar: tuple = ()
    seasonal_ma: tuple = ()
    season_period: int = 1
    innovation_variance: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "ar", tuple(float(c) for c in self.ar))
        object.__setattr__(self, "ma", tuple(float(c) for c in self.ma))
        object.__setattr__(self, "seasonal_ar", tuple(float(c) for c in self.seasonal_ar))
        object.__setattr__(self, "seasonal_ma", tuple(float(c) for c in self.seasonal_ma))
        if self.season_period < 1:
            raise ModelInvariantError("season_period must be a positive integer")
        if not self.innovation_variance > 0:
            raise ModelInvariantError("innovation variance must be positive")
        _check_roots(self.full_ar_poly(), "AR")
        _check_roots(self.full_ma_poly(), "MA")

    def full_ar_poly(self):
        """Expanded AR lag polynomial (seasonal factor multiplied through)."""
        return np.convolve(
            _lag_poly(self.ar, -1.0),
            _lag_poly(self.seasonal_ar, -1.0, self.season_period),
        )

    def full_ma_poly(self):
        """Expanded MA lag polynomial (seasonal factor multiplied through)."""
        return np.convolve(
            _lag_poly(self.ma, +1.0),
            _lag_poly(self.seasonal_ma, +1.0, self.season_period),
        )

    def density(self, omegas):
        return spectral_density(self, omegas)


def _check_roots(poly, name):
    # poly is ascending in the backshift operator; roots of the reversed
    # polynomial must lie strictly outside the unit circle
    if len(poly) <= 1:
        return
    roots = np.roots(poly[::-1])
    if len(roots) and np.min(np.abs(roots)) <= 1.0:
        raise ModelInvariantError(
            "%s polynomial has a root on or inside the unit circle "
            "(min modulus %.6g)" % (name, float(np.min(np.abs(roots))))
        )


def ar2_from_omega(omega0, modulus):
    """AR(2) coefficients for conjugate roots of given modulus whose argument
    places the spectral peak near ``omega0``.

    Returns (phi1, phi2) = (2*modulus*cos(2*pi*omega0), -modulus**2).
    """
    if not 0.0 < omega0 < 0.5:
        raise ValueError("omega0 must lie in the open interval (0, 1/2)")
    if not 0.0 < modulus < 1.0:
        raise ValueError("modulus must lie in the open interval (0, 1)")
    return 2.0 * modulus * np.cos(2.0 * np.pi * omega0), -modulus * modulus


def spectral_density(model, omegas):
    """Rational SARMA spectral density on [0, 1/2].

    f(w) = sigma2 * |theta_full(e^{-i2pi w})|^2 / |phi_full(e^{-i2pi w})|^2
    under the 2*integral(f) = gamma(0) convention.
    """
    omegas = np.asarray(omegas, dtype=float)
    z = np.exp(-2j * np.pi * omegas)
    num = np.polyval(model.full_ma_poly()[::-1], z)
    den = np.polyval(model.full_ar_poly()[::-1], z)
    return model.innovation_variance * np.abs(num) ** 2 / np.abs(den) ** 2


def basis_matrix(omegas, size):
    """Cosine basis matrix Psi with Psi[:, 0] = 1, Psi[:, m] = cos(2*pi*m*w)."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    m = np.arange(size)
    return np.cos(2.0 * np.pi * np.outer(omegas, m))


@dataclass(frozen=True)
class LogSpectrum:
    """log f on [0, 1/2] expanded in the cosine basis."""

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.ndim != 1 or len(coeffs) == 0:
            raise ValueError("coefficients must be a nonempty 1-d vector")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def size(self):
        return len(self.coefficients)

    def evaluate(self, omegas):
        """log f at the given frequencies."""
        return basis_matrix(omegas, self.size) @ self.coefficients

    def density(self, omegas):
        return np.exp(self.evaluate(omegas))


@dataclass(frozen=True)
class SampledSeries:
    """Real observations on a base time grid, kept every ``stride`` steps.

    Observation k sits at base-grid index offset + k*stride.
    """

    values: np.ndarray
    stride: int = 1
    offset: int = 0
    base_step: float = 1.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("values must be a 1-d vector")
        object.__setattr__(self, "values", values)
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if not 0 <= self.offset < self.stride:
            raise ValueError("offset must satisfy 0 <= offset < stride")
        if not self.base_step > 0:
            raise ValueError("base_step must be positive")

    def __len__(self):
        return len(self.values)

    def base_indices(self):
        return self.offset + self.stride * np.arange(len(self.values))


def density_of(source):
    """Coerce a SpectralModel, LogSpectrum or plain callable to a density
    evaluator on [0, 1/2]."""
    if isinstance(source, SpectralModel):
        return source.density
    if isinstance(source, LogSpectrum):
        return source.density
    if callable(source):
        return source
    raise TypeError("expected SpectralModel, LogSpectrum or callable, got %r" % (source,))


def simpson_grid(quad_points):
    """Composite-Simpson nodes and weights for integral_0^{1/2} (panel count is
    rounded up to even)."""
    n = int(quad_points)
    if n < 2:
        raise ValueError("need at least 2 quadrature panels")
    if n % 2:
        n += 1
    omegas = np.linspace(0.0, 0.5, n + 1)
    h = 0.5 / n
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return omegas, w * (h / 3.0)


def _autocovariance_nodes(max_lag, quad_points):
    """Simpson nodes and weights for the lags 0..max_lag.  The panel count is
    raised to at least 2*max_lag so the cosine factor at the largest lag stays
    resolved (fewer panels would alias it)."""
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    if quad_points < 256:
        raise ValueError("quad_points must be >= 256")
    return simpson_grid(max(quad_points, 2 * max_lag))


def _dct_autocovariance(f, weights, max_lag):
    """gamma(0..max_lag), lags on axis 0, from density values ``f`` at the
    Simpson nodes (nodes on axis 0, one column per process)."""
    c = weights[:, None] * f
    # sum_i c_i cos(pi i h / n_panels) for h = 0..n_panels via DCT-I
    series = dct(c, type=1, axis=0)
    signs = np.where(np.arange(len(c)) % 2 == 0, 1.0, -1.0)[:, None]
    return (series + c[0] + signs * c[-1])[: max_lag + 1]


def autocovariance(source, max_lag, quad_points=4096):
    """Autocovariances gamma(0..max_lag) of the process with density ``source``,
    by Simpson quadrature of 2 * integral f(w) cos(2 pi w h) dw.

    The panel count is raised to at least 2*max_lag, and the whole lag range
    is evaluated at once through a type-I DCT.
    """
    omegas, weights = _autocovariance_nodes(max_lag, quad_points)
    f = density_of(source)(omegas)
    if np.any(f <= 0) or not np.all(np.isfinite(f)):
        raise ModelInvariantError("spectral density must be finite and positive on [0, 1/2]")
    return _dct_autocovariance(f[:, None], weights, max_lag)[:, 0]


def levinson(gamma):
    """Durbin-Levinson recursion on autocovariances gamma(0..p).

    Lags run along axis 0; a 2-d ``gamma`` holds one process per column, and
    one recursion runs them all.  Yields (phi_t, v_t) for orders t = 0..p:
    phi_t holds the coefficients of the best linear predictor of x_t from
    x_{t-1}, ..., x_0 (most recent first, lags on axis 0) and v_t its
    innovation variance, the t-th pivot of the Cholesky factorisation of
    Toeplitz(gamma), so v_t <= 0 means that matrix is not positive definite.
    phi_t is a view the next step overwrites.  Each column equals the
    recursion on that column alone bit for bit: every inner product is summed
    in lag order.
    """
    gamma = np.asarray(gamma, dtype=float)
    phi = np.empty((len(gamma) - 1,) + gamma.shape[1:])
    v = gamma[0]
    yield phi[:0], v
    for t in range(1, len(gamma)):
        k = t - 1
        a = (gamma[t] - np.vecdot(phi[:k], gamma[k:0:-1], axis=0)) / v
        phi[:k] -= a * phi[:k][::-1]
        phi[k] = a
        v = v * (1.0 - a * a)
        yield phi[:t], v


def _gaussian_paths(gamma, z):
    """Colour standard normals ``z`` (time on axis 0, one column per path when
    2-d) into paths with covariance Toeplitz(gamma); ``gamma`` is shared by
    all paths when 1-d and has one column per path when 2-d.

    Returns the paths and the Levinson pivots (one row per step).  A column
    whose pivot drops to <= 0 runs on with meaningless values, so callers
    check the pivots; the floating-point warnings of such columns are muted.
    """
    x = np.empty_like(z)
    pivots = np.empty(gamma.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for t, (phi, v) in enumerate(levinson(gamma)):
            pivots[t] = v
            x[t] = np.vecdot(phi, x[t - 1 :: -1][:t], axis=0) + np.sqrt(v) * z[t]
    return x, pivots


def _one_process_paths(source, z, quad_points):
    """Paths with the autocovariance of ``source`` from standard normals ``z``
    (time on axis 0); raises NotPositiveDefiniteError at the first pivot <= 0."""
    n = len(z)
    if n < 1:
        raise ValueError("n must be >= 1")
    x, pivots = _gaussian_paths(autocovariance(source, n - 1, quad_points), z)
    bad = np.flatnonzero(pivots <= 0)
    if bad.size:
        t = int(bad[0])
        raise NotPositiveDefiniteError(
            "covariance not positive definite at step %d (smallest pivot %.6g)" % (t, pivots[t]),
            pivots[t],
        )
    return x


def _normals(n, seeds):
    """Standard normals, one column of length n per seed."""
    return np.stack([np.random.default_rng(s).standard_normal(n) for s in seeds], axis=1)


def simulate(source, n, seed, quad_points=4096):
    """Zero-mean Gaussian path of length n with Toeplitz(gamma) covariance.

    Uses the Durbin-Levinson innovation recursion (distributionally identical
    to a dense Toeplitz Cholesky, O(n^2) instead of O(n^3)).  Deterministic
    given the seed; a non-positive Cholesky pivot raises
    NotPositiveDefiniteError.
    """
    z = np.random.default_rng(seed).standard_normal(max(n, 0))
    return SampledSeries(_one_process_paths(source, z, quad_points), stride=1, offset=0)


def simulate_replicates(source, n, seeds, quad_points=4096):
    """Paths of ``simulate`` for many seeds of one process, as the rows of a
    (len(seeds), n) array.

    Row r equals ``simulate(source, n, seeds[r], quad_points).values`` bit for
    bit; the autocovariance and the recursion are computed once for all rows.
    """
    return _one_process_paths(source, _normals(max(n, 0), seeds), quad_points).T


def simulate_log_spectra(log_spectra, n, seeds, quad_points=4096):
    """Paths of ``simulate`` for many LogSpectrum processes of one basis size,
    one seed each.  Returns the paths as the rows of a (len(seeds), n) array
    and a boolean mask of the rows that were simulated.

    ``ok[r]`` is False exactly where ``simulate(log_spectra[r], n, seeds[r],
    quad_points)`` raises ModelInvariantError or NotPositiveDefiniteError,
    and row r holds no path then; elsewhere row r equals that call's path bit
    for bit.  The cosine basis on the quadrature nodes, one DCT and one
    Durbin-Levinson recursion serve all rows.  Each log-density stays its own
    matrix-vector product, because a stacked matrix product changes the last
    bits.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    omegas, weights = _autocovariance_nodes(n - 1, quad_points)
    basis = basis_matrix(omegas, log_spectra[0].size)
    f = np.empty((len(omegas), len(log_spectra)))
    for r, spectrum in enumerate(log_spectra):
        f[:, r] = np.exp(basis @ spectrum.coefficients)
    ok = np.all(f > 0, axis=0) & np.all(np.isfinite(f), axis=0)
    f[:, ~ok] = 1.0  # white noise keeps the recursion of rejected columns finite
    x, pivots = _gaussian_paths(_dct_autocovariance(f, weights, n - 1), _normals(n, seeds))
    ok &= ~np.any(pivots <= 0, axis=0)
    return np.ascontiguousarray(x.T), ok


def subsample(series, delta, offset=0):
    """Keep base-grid indices offset, offset+delta, ... of a dense series."""
    if series.stride != 1:
        raise ValueError("subsample expects a dense (stride 1) input series")
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if not 0 <= offset < delta:
        raise ValueError("offset must satisfy 0 <= offset < delta")
    return SampledSeries(
        series.values[offset::delta],
        stride=delta,
        offset=offset,
        base_step=series.base_step,
    )
