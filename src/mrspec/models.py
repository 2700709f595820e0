"""Stationary process models: SARMA spectra, autocovariances, Gaussian simulation.

Spectral convention used throughout the package: the density f is defined on
[0, 1/2] and the process variance is gamma(0) = 2 * integral_0^{1/2} f(w) dw.
White noise with unit innovation variance therefore has f == 1.
"""

from dataclasses import dataclass

import numpy as np

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
    "arma_autocovariance",
    "arma_state_space",
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
    """An experiment design is invalid (replicate count, segments, grid or
    prior specification)."""


class NotPositiveDefiniteError(ArithmeticError):
    """A covariance matrix is not positive definite: a Cholesky pivot, that is
    an innovation variance of a prediction recursion, is not positive."""

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
        for name in ("ar", "ma", "seasonal_ar", "seasonal_ma"):
            object.__setattr__(self, name, tuple(float(c) for c in getattr(self, name)))
        if self.season_period < 1:
            raise ModelInvariantError("season_period must be a positive integer")
        if not 0 < self.innovation_variance < np.inf:
            raise ModelInvariantError("innovation variance must be positive and finite")
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
    """Reject a lag polynomial 1 + c_1 B + ... (ascending ``poly``) with a root
    on or inside the unit circle: by the Schur-Cohn step-down, ``levinson`` run
    backwards, it has none exactly when every reflection coefficient has
    modulus below 1.  No root finding, so subnormal coefficients are harmless."""
    phi = -np.asarray(poly[1:], dtype=float)
    for order in range(len(phi), 0, -1):
        kappa = phi[order - 1]
        if not abs(kappa) < 1.0:
            raise ModelInvariantError(
                "%s polynomial %s has a root on or inside the unit circle "
                "(reflection coefficient %.6g at order %d)" % (name, poly.tolist(), kappa, order)
            )
        phi = (phi[: order - 1] + kappa * phi[: order - 1][::-1]) / (1.0 - kappa * kappa)


def ar2_from_omega(omega0, modulus):
    """AR(2) coefficients for conjugate roots of given modulus whose argument
    places the spectral peak near ``omega0``.

    Returns (phi1, phi2) = (2*modulus*cos(2*pi*omega0), -modulus**2); an
    array of ``omega0`` gives an array of phi1, each entry equal to the call
    on that entry alone.  The domain checks make every result causal.
    """
    omega0 = np.asarray(omega0, dtype=float)
    if not np.all((0.0 < omega0) & (omega0 < 0.5)):
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


def exp_log_spectrum(log_f):
    """exp(log_f), or ModelInvariantError naming the largest value where it
    overflows; numpy's overflow warning is not raised."""
    with np.errstate(over="ignore"):
        f = np.exp(log_f)
    if np.isinf(f).any():
        raise ModelInvariantError("log-spectrum too large for exp (largest value %.6g)"
                                  % np.max(log_f))
    return f


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
        return exp_log_spectrum(self.evaluate(omegas))


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
    if isinstance(source, (SpectralModel, LogSpectrum)):
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


QUAD_PANELS = 4096  # panels of every quadrature on [0, 1/2] and of the circulant embedding


def _autocovariance_nodes(max_lag):
    """The nodes j / (2m), j = 0..m, for the lags 0..max_lag: m is QUAD_PANELS
    raised to 2*max_lag where that is more, which resolves every lag."""
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    return np.linspace(0.0, 0.5, max(QUAD_PANELS, 2 * max_lag) + 1)


def _admissible(f):
    """Per row of density values: finite and positive at every node."""
    return np.all((f > 0) & np.isfinite(f), axis=-1)


def _node_density(source, max_lag):
    f = density_of(source)(_autocovariance_nodes(max_lag))
    if not _admissible(f):
        raise ModelInvariantError("spectral density must be finite and positive on [0, 1/2]")
    return f


def _psi_weights(phi, theta, count):
    """psi_0..psi_{count-1}, the leading coefficients of theta(B) / phi(B), as a
    list (entries broadcast over the batch axes of ``phi`` and ``theta``):
    psi_0 = 1 and psi_j = theta_j + sum_{k=1}^{min(j,p)} phi_k psi_{j-k}, with
    theta_j = 0 past q."""
    theta = [1.0] + list(theta)
    psi = [1.0]
    for j in range(1, count):
        head = theta[j] if j < len(theta) else 0.0
        psi.append(head + sum(phi[k - 1] * psi[j - k] for k in range(1, min(j, len(phi)) + 1)))
    return psi


def arma_autocovariance(phi, theta, sigma2, max_lag):
    """Exact autocovariances gamma(0..max_lag) of causal ARMA processes
    phi(B) X_t = theta(B) Z_t with Var(Z_t) = sigma2, by the linear-system
    method of Brockwell & Davis, Time Series: Theory and Methods, sec. 3.3.

    ``phi`` (p,) and ``theta`` (q,) hold the full coefficients, seasonal
    factors multiplied through: phi(B) = 1 - phi_1 B - ... - phi_p B^p and
    theta(B) = 1 + theta_1 B + ... + theta_q B^q.  A trailing axis of length
    G on either, or a (G,) ``sigma2``, describes G processes; lags then run
    along axis 0 of the (max_lag + 1, G) result, one column per process, and
    each column equals the call on that process alone bit for bit.

    With psi_0..psi_q the leading psi-weights and M = max(p, q) + 1, one
    M x M solve per process gives gamma(0..M-1) from
        gamma(k) - sum_j phi_j gamma(|k - j|) = sigma2 sum_{j>=k} theta_j psi_{j-k},
    and the AR recursion gamma(h) = sum_j phi_j gamma(h - j) gives the higher
    lags.  Causality is the caller's to ensure (SpectralModel and
    ar2_from_omega check it); lags beyond q of a pure MA process are exactly 0.
    """
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    if not np.all(np.asarray(sigma2) > 0):
        raise ModelInvariantError("innovation variance must be positive")
    batch = np.broadcast_shapes(phi.shape[1:], theta.shape[1:], np.shape(sigma2))
    p, q = len(phi), len(theta)
    m = max(p, q) + 1
    psi = _psi_weights(phi, theta, q + 1)
    theta = [1.0] + list(theta)
    system = np.zeros(batch + (m, m))
    rows = np.arange(m)
    system[..., rows, rows] = 1.0
    for j in range(1, p + 1):
        system[..., rows, np.abs(rows - j)] -= phi[j - 1][..., None]
    rhs = np.zeros(batch + (m, 1))
    for k in range(q + 1):
        rhs[..., k, 0] = sigma2 * sum(theta[j] * psi[j - k] for j in range(k, q + 1))
    head = np.moveaxis(np.linalg.solve(system, rhs)[..., 0], -1, 0)
    gamma = np.empty((max_lag + 1,) + batch)
    gamma[:m] = head[: max_lag + 1]
    for h in range(m, max_lag + 1):
        # one product per coefficient, summed in lag order, so columns stay independent
        gamma[h] = sum(phi[j - 1] * gamma[h - j] for j in range(1, p + 1))
    return gamma


def arma_state_space(phi, theta, sigma2):
    """State-space form of the causal ARMA processes of arma_autocovariance
    (same arguments and batch axes).  With r = max(p, q + 1), the state
    s_t = (x_t, x^_{t+1|t}, ..., x^_{t+r-1|t}) of x_t and its predictions from
    the infinite past is a Markov chain, s_{t+1} = T s_t + psi Z_{t+1}
    (Akaike 1974; Gardner, Harvey & Phillips 1980, AS 154).

    Returns (T, Q, P), each of shape batch + (r, r): T shifts the state up by
    one and its last row holds phi_r .. phi_1; Q = sigma2 psi psi^T, with
    psi_0..psi_{r-1} the psi-weights; P is the stationary state variance
        P_ij = gamma(|i - j|) - sigma2 sum_{k < min(i,j)} psi_k psi_{k+|i-j|},
    taken from the exact autocovariances rather than a Lyapunov solve, which
    loses digits near the unit circle."""
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    p, r = len(phi), max(len(phi), len(theta) + 1)
    batch = np.broadcast_shapes(phi.shape[1:], theta.shape[1:], np.shape(sigma2))
    psi = np.empty(batch + (r,))
    for j, weight in enumerate(_psi_weights(phi, theta, r)):
        psi[..., j] = weight
    transition = np.zeros(batch + (r, r))
    transition[..., np.arange(r - 1), np.arange(1, r)] = 1.0
    for j in range(1, p + 1):
        transition[..., r - 1, r - j] = phi[j - 1]
    rows, cols = np.indices((r, r))
    # x_{t+i} = s_i + sum_{k<i} psi_k Z_{t+i-k}: row i of ``ahead`` holds those psi_k
    ahead = np.where(rows > cols, psi[..., np.maximum(rows - cols - 1, 0)], 0.0)
    gamma = np.moveaxis(arma_autocovariance(phi, theta, sigma2, r - 1), 0, -1)
    scale = np.broadcast_to(sigma2, batch)[..., None, None]
    stationary = gamma[..., np.abs(rows - cols)] - scale * (ahead @ np.swapaxes(ahead, -1, -2))
    return transition, scale * psi[..., :, None] * psi[..., None, :], stationary


def autocovariance(source, max_lag):
    """Autocovariances gamma(0..max_lag) of the process with density ``source``.

    A SpectralModel gets them exactly, in closed form (arma_autocovariance).
    A LogSpectrum or plain callable density f gets gamma~, the m-panel
    trapezoid rule for 2 * integral f(w) cos(2 pi w h) dw, from one real FFT:
    exactly the autocovariance of the 2m-point circulant with eigenvalues
    f(j / 2m) that ``simulate`` realises, off from gamma by the aliased lags,
    gamma~(h) = sum_k gamma(h + 2mk); m is QUAD_PANELS, or 2 * max_lag where
    that is more.
    """
    if isinstance(source, SpectralModel):
        return arma_autocovariance(-source.full_ar_poly()[1:], source.full_ma_poly()[1:],
                                   source.innovation_variance, max_lag)
    f = _node_density(source, max_lag)
    return np.fft.irfft(f, 2 * (len(f) - 1))[: max_lag + 1]


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


def _levinson_paths(gamma, z):
    """Colour standard normals ``z`` (time on axis 0, one column per path when
    2-d) into paths with covariance Toeplitz(gamma) by the Durbin-Levinson
    innovation recursion; NotPositiveDefiniteError at the first pivot <= 0."""
    x = np.empty_like(z)
    for t, (phi, v) in enumerate(levinson(gamma)):
        if v <= 0:
            raise NotPositiveDefiniteError("covariance not positive definite at step %d "
                                           "(smallest pivot %.6g)" % (t, v), v)
        x[t] = np.vecdot(phi, x[t - 1 :: -1][:t], axis=0) + np.sqrt(v) * z[t]
    return x


def _normals(n, seeds):
    """Standard normals, one row of n per seed, drawn in place."""
    z = np.empty((len(seeds), n))
    for row, seed in zip(z, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    return z


def _circulant_paths(f, z, n):
    """Paths sqrt(2m) irfft(sqrt(f) xi, 2m)[:, :n] with covariance Toeplitz(gamma~),
    from densities ``f`` at j / (2m), j = 0..m (a row per path, or one for all)
    and (R, 2m) normals z: xi_0 = z_0, xi_m = z_1, xi_j = (z_{j+1} + i z_{m+j})
    / sqrt(2).  Circulant embedding: Davies & Harte 1987; Wood & Chan 1994."""
    m = f.shape[-1] - 1
    xi = np.zeros((len(z), m + 1), dtype=complex)
    xi.real[:, 0], xi.real[:, m] = z[:, 0], z[:, 1]
    xi.real[:, 1:m] = z[:, 2 : m + 1] * np.sqrt(0.5)
    xi.imag[:, 1:m] = z[:, m + 1 :] * np.sqrt(0.5)
    xi *= np.sqrt(f)
    return np.sqrt(2.0 * m) * np.fft.irfft(xi, 2 * m, axis=-1)[:, :n]


def _max_lag(n):
    if n < 1:
        raise ValueError("n must be >= 1")
    return n - 1


def simulate(source, n, seed):
    """Zero-mean Gaussian path of length n, deterministic given the seed: row 0
    of ``simulate_replicates(source, n, [seed])``."""
    return SampledSeries(simulate_replicates(source, n, [seed])[0])


def simulate_replicates(source, n, seeds):
    """Zero-mean Gaussian paths of length n of one process, one per seed, as
    the rows of a (len(seeds), n) array; row r depends only on seeds[r].

    A SpectralModel path has its exact Toeplitz(gamma) covariance, by the
    Durbin-Levinson recursion (NotPositiveDefiniteError at a pivot <= 0).  A
    LogSpectrum or callable path has exactly the Toeplitz(gamma~) of
    ``autocovariance``, by circulant embedding, which has no pivot to fail;
    a density that is not finite and positive raises ModelInvariantError.
    The autocovariance and recursion, or the density and FFT, are computed
    once for all rows."""
    if not isinstance(source, SpectralModel):
        f = _node_density(source, _max_lag(n))
        return _circulant_paths(f, _normals(2 * len(f) - 2, seeds), n)
    gamma = autocovariance(source, _max_lag(n))
    return _levinson_paths(gamma, np.ascontiguousarray(_normals(n, seeds).T)).T


_CHUNK = 25  # paths per FFT batch, which bounds the (chunk, 2m) transients


def simulate_log_spectra(log_spectra, n, seeds):
    """Paths of ``simulate`` for many LogSpectrum processes of one basis size,
    one seed each, as the rows of a (len(seeds), n) array, and a mask ``ok``.

    ``ok[r]`` is False, and row r NaN, exactly where ``simulate(log_spectra[r],
    n, seeds[r])`` raises ModelInvariantError; elsewhere row r
    equals that path bit for bit.  The cosine basis on the nodes is shared and
    one FFT colours each batch of ``_CHUNK`` rows; each log-density stays its
    own matrix-vector product, as a stacked product changes the last bits."""
    basis = basis_matrix(_autocovariance_nodes(_max_lag(n)), log_spectra[0].size)
    paths = np.full((len(seeds), n), np.nan)
    ok = np.zeros(len(seeds), dtype=bool)
    for start in range(0, len(seeds), _CHUNK):
        rows = np.arange(start, min(start + _CHUNK, len(seeds)))
        f = np.stack([np.exp(basis @ log_spectra[r].coefficients) for r in rows])
        ok[rows] = good = _admissible(f)
        if good.any():
            z = _normals(2 * len(basis) - 2, [seeds[r] for r in rows[good]])
            paths[rows[good]] = _circulant_paths(f[good], z, n)
    return paths, ok


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
