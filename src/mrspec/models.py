"""Stationary process models: SARMA spectra, autocovariances, Gaussian simulation.

Spectral convention used throughout the package: the density f is defined on
[0, 1/2] and the process variance is gamma(0) = 2 * integral_0^{1/2} f(w) dw.
White noise with unit innovation variance therefore has f == 1.
"""

import functools
from dataclasses import dataclass
from numbers import Integral

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


def _check_integer_fields(design, names):
    """DesignError naming the first of the fields ``names`` of ``design`` whose
    value is not an integer; a bool is not one."""
    for name in names:
        value = getattr(design, name)
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise DesignError("%s must be an integer, got %r" % (name, value))


class NotPositiveDefiniteError(ArithmeticError):
    """A covariance matrix is not positive (semi)definite: an innovation variance
    of a prediction recursion is not positive, or an eigenvalue is negative."""

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
        period = self.season_period
        if isinstance(period, bool) or not isinstance(period, Integral) or period < 1:
            raise ModelInvariantError("season_period must be an integer >= 1, got %r" % (period,))
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


# panels of every quadrature on [0, 1/2] and of gamma~, whose 2m bounds every circulant embedding
QUAD_PANELS = 4096


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
    the autocovariance of the 2m-point circulant with eigenvalues f(j / 2m),
    which ``simulate`` realises exactly, off from gamma by the aliased lags,
    gamma~(h) = sum_k gamma(h + 2mk); m is QUAD_PANELS, or 2 * max_lag where
    that is more.
    """
    if isinstance(source, SpectralModel):
        return arma_autocovariance(-source.full_ar_poly()[1:], source.full_ma_poly()[1:],
                                   source.innovation_variance, max_lag)
    f = _node_density(source, max_lag)
    return np.fft.irfft(f, 2 * (len(f) - 1))[: max_lag + 1]


def levinson(gamma):
    """Durbin-Levinson recursion on autocovariances gamma(0..p), a 1-d vector.

    Yields (phi_t, v_t) for orders t = 0..p: phi_t holds the coefficients of
    the best linear predictor of x_t from x_{t-1}, ..., x_0 (most recent
    first) and v_t its innovation variance, the t-th pivot of the Cholesky
    factorisation of Toeplitz(gamma), so v_t <= 0 means that matrix is not
    positive definite.  phi_t is a view the next step overwrites.
    """
    gamma = np.asarray(gamma, dtype=float)
    phi = np.empty(len(gamma) - 1)
    v = gamma[0]
    yield phi[:0], v
    for t in range(1, len(gamma)):
        k = t - 1
        a = (gamma[t] - np.vecdot(phi[:k], gamma[k:0:-1])) / v
        phi[:k] -= a * phi[:k][::-1]
        phi[k] = a
        v = v * (1.0 - a * a)
        yield phi[:t], v


# steps per block product of _state_paths, one length for every n, so that a
# shorter path is a bitwise prefix of a longer one
_BLOCK = 32


def _block_propagator(transition, gain):
    """The (B + r, r + B) matrix M, B = _BLOCK, that advances the chain
    s_{t+1} = T s_t + g z_{r+t} by a block of steps:
        [x_t .. x_{t+B-1}, s_{t+B}] = M [s_t, z_{r+t} .. z_{r+t+B-1}].
    Row b < B is e_0^T T^b beside the impulse responses e_0^T T^(b-1-i) g,
    i < b; the last r rows are T^B beside T^(B-1-i) g.  Built once per call
    of _state_paths, by repeated products with T."""
    r = len(transition)
    power, responses = np.eye(r), np.empty((_BLOCK, r))  # responses[j] = T^j g
    propagator = np.zeros((_BLOCK + r, r + _BLOCK))
    response = gain
    for b in range(_BLOCK):
        propagator[b, :r] = power[0]
        responses[b] = response
        power, response = transition @ power, transition @ response
    rows, cols = np.indices((_BLOCK, _BLOCK))
    propagator[:_BLOCK, r:] = np.where(rows > cols, responses[np.maximum(rows - cols - 1, 0), 0],
                                       0.0)
    propagator[_BLOCK:, :r] = power
    propagator[_BLOCK:, r:] = responses[::-1].T
    return propagator


def _state_paths(transition, noise, stationary, window):
    """Paths of the chain (T, Q, P) of arma_state_space, one per column of the
    (n + r - 1, R) normals z in ``window``, as the rows of an (R, n) array:
    s_0 = P^(1/2) z_{<r}, s_{t+1} = T s_t + sigma psi z_{r+t}, x_t = (s_t)_0.
    Rows t..t+r-1 of the window hold s_t, and rows t+r.. the normals still to
    come, so rows t..t+r+B-1 are the input of one ``_block_propagator``
    product, and its output [x_t..x_{t+B-1}, s_{t+B}] overwrites them: each
    normal is overwritten once used.  Every block, the last zero-padded, has
    the same B, and each path takes its own matrix-vector product, so a path
    depends on its own normals alone, and a shorter path is a prefix of a
    longer one, bit for bit.  An eigenvalue of P below -1e-12 times the
    largest, or NaN, raises NotPositiveDefiniteError; round-off ones below 0
    count as 0."""
    values, vectors = np.linalg.eigh(stationary)  # a singular P passes, unlike Cholesky
    if not values[0] >= -1e-12 * values[-1]:  # NaN fails too
        raise NotPositiveDefiniteError("stationary state variance not positive semidefinite "
                                       "(eigenvalue %.6g)" % values[0], values[0])
    root = vectors * np.sqrt(np.maximum(values, 0.0))
    r, gain = len(root), noise[:, 0] / np.sqrt(noise[0, 0])  # sigma psi, as psi_0 = 1
    window[:r] = sum(root[:, k, None] * window[k] for k in range(r))
    propagator = _block_propagator(transition, gain)
    # one contiguous row per path, so that its product does not depend on the batch
    block = np.zeros((window.shape[1], r + _BLOCK))
    n = len(window) - r + 1
    for t in range(0, n, _BLOCK):
        rows = window[t : t + r + _BLOCK]
        block[:, : len(rows)] = rows.T
        block[:, len(rows) :] = 0.0  # past the last normal, in the last block only
        rows[:] = np.matmul(propagator, block[..., None])[:, : len(rows), 0].T
    return window[:n].T


def _normals(n, seeds):
    """Standard normals, one row of n per seed, drawn in place."""
    z = np.empty((len(seeds), n))
    for row, seed in zip(z, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    return z


def _circulant_paths(f, z, n):
    """Paths sqrt(2m) irfft(sqrt(f) xi, 2m)[:, :n] of the 2m-point circulant with
    eigenvalues ``f`` at j / (2m), j = 0..m (a row per path, or one for all), from
    (R, 2m) normals z: xi_0 = z_0, xi_m = z_1, xi_j = (z_{j+1} + i z_{m+j}) / sqrt(2).
    Circulant embedding: Davies & Harte 1987; Wood & Chan 1994."""
    m = f.shape[-1] - 1
    xi = np.zeros((len(z), m + 1), dtype=complex)
    xi.real[:, 0], xi.real[:, m] = z[:, 0], z[:, 1]
    xi.real[:, 1:m] = z[:, 2 : m + 1] * np.sqrt(0.5)
    xi.imag[:, 1:m] = z[:, m + 1 :] * np.sqrt(0.5)
    xi *= np.sqrt(f)
    return np.sqrt(2.0 * m) * np.fft.irfft(xi, 2 * m, axis=-1)[:, :n]


def _min_embeddings(f, n):
    """Yield (rows, eigenvalues) for the rows of the densities ``f`` at j / (2m),
    j = 0..m: each row, once, with the eigenvalues at j / (2M), j = 0..M, of the
    smallest circulant of gamma~ = irfft(f, 2m) that holds Toeplitz(gamma~[0..n-1])
    and is non-negative definite (Wood & Chan 1994; Dietrich & Newsam 1997).

    2M starts at the least power of two >= 2(n - 1), and the eigenvalues are the
    rfft of the even extension gamma~[0..M], gamma~[M-1..1].  A row with one below 0
    as computed (no tolerance; NaN fails too) doubles on its own, up to 2m, where the
    eigenvalues are f itself, so every row ends.  The nodes have m >= 2(n - 1), so
    the first 2M is below 2m.  No group of rows is empty."""
    m = f.shape[-1] - 1
    gamma = np.fft.irfft(f, 2 * m)
    rows = np.arange(len(f))
    half = 1 << max(n - 2, 0).bit_length()
    while half < m and len(rows):
        even = np.concatenate([gamma[rows, : half + 1], gamma[rows, half - 1 : 0 : -1]], axis=-1)
        eigen = np.fft.rfft(even).real
        fits = np.all(eigen >= 0, axis=-1)
        if fits.any():
            yield rows[fits], eigen[fits]
        rows, half = rows[~fits], min(2 * half, m)
    if len(rows):
        yield rows, f[rows]


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

    A SpectralModel path has its exact Toeplitz(gamma) covariance, as the
    first component of the arma_state_space chain started from its stationary
    law (NotPositiveDefiniteError if that variance has a clearly negative
    eigenvalue), advanced _BLOCK steps per matrix-vector product of each path
    (``_state_paths``), so a shorter path is a prefix of a longer one.  A
    LogSpectrum or callable path has exactly the Toeplitz(gamma~) of
    ``autocovariance``, by circulant embedding, which has no pivot to fail: the
    smallest power-of-two circulant 2M >= 2(n - 1) of gamma~ whose eigenvalues are
    non-negative, up to the 2m nodes (``_min_embeddings``), colouring 2M normals;
    a density that is not finite and positive raises ModelInvariantError.
    The state-space form, or the density and its one embedding, is computed once
    for all rows; the normals, and the FFTs that colour them, go in ``_chunks``
    of rows."""
    if not isinstance(source, SpectralModel):
        f = _node_density(source, _max_lag(n))
        [(_, eigen)] = _min_embeddings(f[None], n)
        paths = np.empty((len(seeds), n))
        for rows in _chunks(len(seeds), 2 * len(f) - 2):
            paths[rows] = _circulant_paths(
                eigen, _normals(2 * eigen.shape[-1] - 2, [seeds[r] for r in rows]), n)
        return paths
    chain = arma_state_space(-source.full_ar_poly()[1:], source.full_ma_poly()[1:],
                             source.innovation_variance)
    window = np.empty((_max_lag(n) + len(chain[0]), len(seeds)))  # n + r - 1 normals per path
    for rows in _chunks(len(seeds), len(window)):
        window[:, rows] = _normals(len(window), [seeds[r] for r in rows]).T
    return _state_paths(*chain, window)


# bytes per chunk of paths: at most 10 rows at 2m = 8192, so each (chunk, 2m)
# transient (densities, gamma~, normals, FFTs) stays near 0.65 MB; a smaller
# embedding 2M keeps the same rows per chunk, and so less
_CHUNK_BYTES = 10 * 8192 * 8


def _chunks(count, width):
    """Row indices 0..count-1 in consecutive chunks of as many rows of ``width``
    floats as ``_CHUNK_BYTES`` holds, at least one."""
    step = max(1, _CHUNK_BYTES // (8 * width))
    return (np.arange(start, min(start + step, count)) for start in range(0, count, step))


@functools.lru_cache(maxsize=1)
def _node_basis(node_count, size):
    """``basis_matrix`` on the ``node_count`` nodes of ``_autocovariance_nodes``,
    read-only, as every caller shares it; the last one asked for is kept."""
    basis = basis_matrix(np.linspace(0.0, 0.5, node_count), size)
    basis.flags.writeable = False
    return basis


def simulate_log_spectra(coefficients, n, seeds):
    """Paths of ``simulate`` for many LogSpectrum processes, one per row of the
    (R, K) matrix ``coefficients`` and one seed each, as the rows of an (R, n)
    array; ValueError unless that matrix is finite, K >= 1 and R = len(seeds).

    Row r is NaN exactly where ``simulate(LogSpectrum(coefficients[r]), n, seeds[r])``
    raises ModelInvariantError; elsewhere it equals that path bit for bit, so each
    row gets the smallest circulant embedding that its own density allows
    (``_min_embeddings``).  The cosine basis on the nodes is built once per
    process, per node count and basis size (``_node_basis``); the densities, their
    embeddings and the FFTs go a chunk of rows at a time.  Each log-density stays
    its own matrix-vector product, as a stacked product changes the last bits."""
    coefficients = np.asarray(coefficients, dtype=float)  # a ragged list raises here
    if (coefficients.ndim != 2 or coefficients.shape[1] < 1 or len(coefficients) != len(seeds)
            or not np.all(np.isfinite(coefficients))):
        raise ValueError("coefficients must be a finite (R, K) matrix, K >= 1, R = len(seeds): "
                         "got shape %s for %d seeds" % (coefficients.shape, len(seeds)))
    node_count = len(_autocovariance_nodes(_max_lag(n)))
    basis = _node_basis(node_count, coefficients.shape[1])
    paths = np.empty((len(seeds), n))
    for rows in _chunks(len(seeds), 2 * node_count - 2):
        f = np.empty((len(rows), node_count))
        for row, log_f in zip(coefficients[rows], f):
            np.matmul(basis, row, out=log_f)
        with np.errstate(over="ignore"):  # a density past the float range fails its row
            np.exp(f, out=f)
        f[~_admissible(f)] = np.nan  # no embedding fits a NaN density, and the FFT spreads it
        for fits, eigen in _min_embeddings(f, n):
            paths[rows[fits]] = _circulant_paths(
                eigen, _normals(2 * eigen.shape[-1] - 2, [seeds[r] for r in rows[fits]]), n)
    return paths


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
