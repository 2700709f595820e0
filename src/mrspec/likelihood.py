"""Exact Gaussian log-likelihood for arbitrarily subsampled data and the
Monte Carlo likelihood-surface experiments for the AR(2) peak-frequency scan."""

from dataclasses import dataclass, field, replace

import numpy as np

from .models import (
    DesignError,
    NotPositiveDefiniteError,
    SpectralModel,
    ar2_from_omega,
    arma_autocovariance,
    autocovariance,
    simulate,  # noqa: F401  unused here, but perfbench/spans.py traces models.simulate by this name
    simulate_replicates,
)

__all__ = [
    "LikelihoodSurface",
    "ExperimentDesign",
    "default_omega_grid",
    "exact_loglik",
    "SurfaceScanner",
    "omega_surface",
    "mc_average_surface",
]

_LOG_2PI = np.log(2.0 * np.pi)


def default_omega_grid(n=201):
    """n equally spaced omega0 values strictly inside (0, 1/2)."""
    return 0.5 * np.arange(1, n + 1) / (n + 1)


@dataclass(frozen=True)
class LikelihoodSurface:
    """Log-likelihood values over a grid of candidate peak frequencies."""

    omegas: np.ndarray
    loglik: np.ndarray
    aligned: bool = False

    def __post_init__(self):
        omegas = np.asarray(self.omegas, dtype=float)
        loglik = np.asarray(self.loglik, dtype=float)
        if omegas.shape != loglik.shape or omegas.ndim != 1:
            raise ValueError("omegas and loglik must be 1-d vectors of equal length")
        if np.any(np.diff(omegas) <= 0) or omegas[0] <= 0 or omegas[-1] >= 0.5:
            raise ValueError("omegas must be strictly increasing within (0, 1/2)")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "loglik", loglik)
        if self.aligned and np.nanmax(loglik) != 0.0:
            raise ValueError("aligned surface must have maximum 0")

    def align(self):
        """Subtract the maximum (idempotent)."""
        if self.aligned:
            return self
        return LikelihoodSurface(self.omegas, self.loglik - np.nanmax(self.loglik), True)


@dataclass(frozen=True)
class ExperimentDesign:
    """Mixed-rate scan design: n_low coarse observations at stride delta_low
    followed chronologically (zero gap) by n_high consecutive observations."""

    n_low: int
    n_high: int
    replicates: int
    omega_true: float
    modulus: float = 0.9
    delta_low: int = 2
    grid: np.ndarray = field(default_factory=default_omega_grid)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))
        if self.replicates < 1:
            raise DesignError("replicates must be >= 1")
        if self.n_low < 0 or self.n_high < 0 or (self.n_low == 0 and self.n_high == 0):
            raise DesignError("need n_low >= 0, n_high >= 0 and not both zero")
        if self.delta_low < 1:
            raise DesignError("delta_low must be >= 1")
        if not 0 < self.omega_true < 0.5:
            raise DesignError("omega_true must lie in (0, 1/2)")
        if not 0 < self.modulus < 1:
            raise DesignError("modulus must lie in (0, 1)")

    def base_indices(self):
        """Union of the coarse and dense base-grid indices, in order."""
        low = self.delta_low * np.arange(self.n_low)
        start = (low[-1] + 1) if self.n_low else 0
        high = start + np.arange(self.n_high)
        return np.concatenate([low, high]).astype(int)


def _data_rows(values, n):
    """Datasets as the rows of an (R, n) matrix: ``values`` is one dataset of
    shape (n,) or R datasets as the rows of an (R, n) matrix."""
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] != n:
        raise ValueError("data must have shape (%d,) or (replicates, %d)" % (n, n))
    if not np.all(np.isfinite(values)):
        raise ValueError("data must not contain infs or NaNs")
    return np.atleast_2d(values)


def exact_loglik(model, observations):
    """Exact log-density of zero-mean Gaussian observations at arbitrary
    base-grid indices under a SpectralModel.

    ``observations`` is a sequence of (index, value) pairs; the covariance is
    Sigma_jk = gamma(|idx_j - idx_k|), factored densely, so any SARMA model
    works.
    """
    obs = list(observations)
    indices = np.asarray([i for i, _ in obs], dtype=int)
    values = np.asarray([v for _, v in obs], dtype=float)
    if len(indices) == 0:
        raise ValueError("observations must be nonempty")
    if np.any(indices < 0) or len(np.unique(indices)) != len(indices):
        raise ValueError("indices must be distinct and non-negative")
    gamma = autocovariance(model, int(np.max(indices) - np.min(indices)))
    cov = gamma[np.abs(np.subtract.outer(indices, indices))]
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pivot = float(np.min(np.linalg.eigvalsh(cov)))
        raise NotPositiveDefiniteError(
            "observation covariance not positive definite (smallest pivot %.6g)" % pivot,
            pivot,
        )
    w = np.linalg.solve(chol, _data_rows(values, len(values))[0])
    return -0.5 * (len(values) * _LOG_2PI + w @ w) - np.sum(np.log(np.diag(chol)))


def _gap_transition(phi, noise, gap):
    """(Phi^k, Q_k) for a gap of k >= 0 steps, stacked over the grid: the state
    moves as s' = Phi^k s + noise of covariance Q_k.  Binary powers of the
    one-step pair (Phi, Q_1), with (A_a, Q_a) after (A_b, Q_b) composing to
    (A_a A_b, Q_a + A_a Q_b A_a^T), build Q_k from positive semidefinite
    terms only, so no digits cancel near the unit circle as they do in
    Gamma - Phi^k Gamma Phi^kT."""
    def compose(first, second):
        (a, q), (b, r) = first, second
        return a @ b, q + a @ r @ np.swapaxes(a, -1, -2)

    power, step = (np.broadcast_to(np.eye(2), phi.shape), np.zeros_like(noise)), (phi, noise)
    while gap:
        if gap & 1:
            power = compose(step, power)
        gap >>= 1
        step = compose(step, step)
    return power


class SurfaceScanner:
    """Exact likelihood scan over an omega0 grid for one index pattern.

    The AR(2) process at each grid point is the Markov chain of the state
    s_t = (x_t, x_{t-1}), so its exact Gaussian likelihood at any index set is
    the prediction-error decomposition (Jones 1980, Technometrics 22:389;
    Brockwell & Davis, Time Series: Theory and Methods, sec. 12.3).  Over the
    sorted indices, with k the gap to the previous one and m the conditional
    mean of the x before it,

        e_j = y_j - (Phi^k)_00 y_{j-1} - (Phi^k)_01 m
        m  <- (Phi^k)_10 y_{j-1} + (Phi^k)_11 m + K_j e_j

    and the log-likelihood sums log v_j and e_j^2 / v_j: O(n) per grid point
    and dataset.  ``__init__`` does all that depends only on the design and
    the grid: gamma(0) and gamma(1) from one batched arma_autocovariance
    call, Phi^k and Q_k once per distinct gap, and the data-free variance
    recursion, keeping the gain K_j and innovation variance v_j of every step.
    """

    def __init__(self, indices, grid, modulus=0.9, sigma2=1.0):
        self.indices = np.asarray(indices, dtype=int)
        self.grid = np.asarray(grid, dtype=float)
        if self.indices.ndim != 1 or len(self.indices) == 0:
            raise ValueError("indices must be a nonempty 1-d sequence")
        self._order = np.argsort(self.indices, kind="stable")
        gaps, gap_of_step = np.unique(np.diff(self.indices[self._order]), return_inverse=True)
        phi1, phi2 = np.broadcast_arrays(*ar2_from_omega(self.grid, modulus))
        gamma0, gamma1 = arma_autocovariance(np.stack([phi1, phi2]), (), sigma2, 1)
        g = len(self.grid)
        phi, noise = np.zeros((g, 2, 2)), np.zeros((g, 2, 2))
        phi[:, 0, 0], phi[:, 0, 1], phi[:, 1, 0] = phi1, phi2, 1.0
        noise[:, 0, 0] = sigma2
        # the first step predicts from the stationary law: Phi^k = 0, Q = Gamma
        stationary = np.stack([np.stack([gamma0, gamma1], -1), np.stack([gamma1, gamma0], -1)], -1)
        moves = [(np.zeros_like(phi), stationary)]
        moves += [_gap_transition(phi, noise, int(k)) for k in gaps]
        # (transition, 2, 2, G): every coefficient is a contiguous (G,) row
        self._phis, noises = (np.ascontiguousarray(np.moveaxis(np.stack(x), 1, -1))
                              for x in zip(*moves))
        self._step = np.concatenate([[0], gap_of_step + 1])
        n = len(self._step)
        self._gain, self._var = np.empty((n, g)), np.empty((n, g))
        p = np.zeros(g)  # variance of x_{t-1} given the data up to x_t
        with np.errstate(all="ignore"):
            for j, s in enumerate(self._step):
                (_, a01), (_, a11) = self._phis[s]
                (q00, _), (q10, q11) = noises[s]
                v = p * a01 * a01 + q00
                c = p * a01 * a11 + q10
                self._gain[j], self._var[j] = c / v, v
                p = p * a11 * a11 + q11 - self._gain[j] * c
        # a grid point fails from the first step whose innovation variance is
        # not positive and finite (a repeated index gives v = 0); the steps
        # after it run on v = 1, K = 0, so that no arithmetic warns
        self._failed = np.logical_or.accumulate(~((0 < self._var) & (self._var < np.inf)), axis=0)
        self._var[self._failed], self._gain[self._failed] = 1.0, 0.0

    def loglik(self, values, lengths=None):
        """Log-likelihood over the grid: a (G,) vector for one dataset of shape
        (n,), or an (R, G) matrix for R datasets given as the rows of an (R, n)
        matrix.  With ``lengths``, a sequence of prefix lengths, the result
        gains a leading axis: entry i is the log-likelihood of the
        ``lengths[i]`` observations at the smallest indices, equal bit for bit
        to a scanner built on those indices alone.  Grid points whose
        innovation variance is not positive and finite come back NaN;
        non-finite data raises ValueError."""
        n = len(self._step)
        ends = [n] if lengths is None else [int(length) for length in lengths]
        if not all(1 <= end <= n for end in ends):
            raise ValueError("prefix lengths must lie in [1, %d], got %r" % (n, lengths))
        rows = _data_rows(values, n)
        r, g = len(rows), len(self.grid)
        # column j holds y_{j-1}; the first step's "previous value" is 0
        data = np.zeros((r, n + 1))
        data[:, 1:] = rows[:, self._order]
        w, m, q, term = np.empty((r, g)), np.zeros((r, g)), np.zeros((r, g)), np.empty((r, g))
        out, logdet = np.empty((len(ends), r, g)), np.zeros(g)
        slots = {}  # step -> the outputs that end there
        for i, end in enumerate(ends):
            slots.setdefault(end - 1, []).append(i)
        for j, (s, gain, var) in enumerate(zip(self._step, self._gain, self._var)):
            (a00, a01), (a10, a11) = self._phis[s]
            scale = 1.0 / np.sqrt(var)
            pair = data[:, j:j + 2]
            # w = e_j / sqrt(v_j) = (y_j - a00 y_{j-1} - a01 m) / sqrt(v_j)
            np.matmul(pair, np.stack([-a00 * scale, scale]), out=w)
            np.multiply(m, a01 * scale, out=term)
            w -= term
            # m <- a10 y_{j-1} + a11 m + K_j e_j, with e_j written out
            m *= a11 - gain * a01
            np.matmul(pair, np.stack([a10 - gain * a00, gain]), out=term)
            m += term
            np.square(w, out=w)
            q += w
            logdet += np.log(var)
            for i in slots.get(j, ()):
                np.add((j + 1) * _LOG_2PI + logdet, q, out=out[i])
                out[i] *= -0.5
                out[i][:, self._failed[j]] = np.nan
        if np.ndim(values) == 1:
            out = out[:, 0]
        return out if lengths is not None else out[0]


def omega_surface(indices, values, grid, modulus=0.9, sigma2=1.0):
    """Exact log-likelihood surface over candidate peak frequencies for one
    dataset of (base index, value) observations."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    if len(np.asarray(values)) == 0:
        raise ValueError("data must be nonempty")
    scanner = SurfaceScanner(indices, grid, modulus, sigma2)
    return LikelihoodSurface(grid, scanner.loglik(values), aligned=False)


def mc_average_surface(design, keep_replicates=False, n_highs=None):
    """Monte Carlo average of max-aligned likelihood surfaces.

    Replicate r simulates with seed design.seed ^ r; the reduction is in
    replicate order, so the result does not depend on scheduling.  With
    ``keep_replicates`` the per-replicate (unaligned) surfaces come back too,
    as a (replicates, grid) matrix, for standard-error estimates.

    ``n_highs``, a sequence of n_high values, asks for the nested designs that
    take every other field from ``design``: their base indices are prefixes
    of the longest one's, and so are the simulated paths, so one simulation
    of the longest path and one scan serve them all.  The result is then a
    list with one entry per value, in order, each equal bit for bit to the
    call on that design alone.
    """
    designs = [design] if n_highs is None else [replace(design, n_high=n) for n in n_highs]
    if not designs:
        raise DesignError("n_highs must be nonempty")
    indices = max(designs, key=lambda d: d.n_high).base_indices()
    truth = SpectralModel(ar=ar2_from_omega(design.omega_true, design.modulus))
    scanner = SurfaceScanner(indices, design.grid, design.modulus, 1.0)
    seeds = [design.seed ^ r for r in range(design.replicates)]
    paths = simulate_replicates(truth, int(indices[-1]) + 1, seeds)
    scans = scanner.loglik(paths[:, indices], [d.n_low + d.n_high for d in designs])
    results = []
    for per_rep in scans:
        # a failed grid point is NaN in every replicate, so a plain mean keeps it NaN
        avg = per_rep.mean(axis=0)
        surface = LikelihoodSurface(design.grid, avg - np.nanmax(avg), aligned=True)
        results.append((surface, per_rep) if keep_replicates else surface)
    return results if n_highs is not None else results[0]
