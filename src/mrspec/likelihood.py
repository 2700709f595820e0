"""Exact Gaussian log-likelihood for arbitrarily subsampled data and the
Monte Carlo likelihood-surface experiments for the AR(2) peak-frequency scan."""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, solve_triangular

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

    def base_indices(self):
        """Union of the coarse and dense base-grid indices, in order."""
        low = self.delta_low * np.arange(self.n_low)
        start = (low[-1] + 1) if self.n_low else 0
        high = start + np.arange(self.n_high)
        return np.concatenate([low, high]).astype(int)


def _gaussian_factor(cov):
    """(Cholesky factor, log-density constant) of a covariance matrix; raises
    LinAlgError when it is not positive definite."""
    chol, _ = cho_factor(cov, lower=True)
    return chol, -0.5 * (len(cov) * _LOG_2PI + 2.0 * np.sum(np.log(np.diag(chol))))


def _data_columns(values, n):
    """Datasets as the columns of an (n, R) matrix: ``values`` is one dataset
    of shape (n,) or R datasets as the rows of an (R, n) matrix."""
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] != n:
        raise ValueError("data must have shape (%d,) or (replicates, %d)" % (n, n))
    if not np.all(np.isfinite(values)):
        raise ValueError("data must not contain infs or NaNs")
    return np.atleast_2d(values).T


def _gaussian_loglik(factor, data):
    """Log-densities of the columns of ``data`` under the factored covariance:
    one triangular solve, then column sums of squares of L^-1 data."""
    chol, const = factor
    w = solve_triangular(chol, data, lower=True, check_finite=False)
    return const - 0.5 * np.einsum("ij,ij->j", w, w)


def exact_loglik(model, observations):
    """Exact log-density of zero-mean Gaussian observations at arbitrary
    base-grid indices under a SpectralModel.

    ``observations`` is a sequence of (index, value) pairs; the covariance is
    Sigma_jk = gamma(|idx_j - idx_k|).
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
        factor = _gaussian_factor(cov)
    except np.linalg.LinAlgError:
        pivot = float(np.min(np.linalg.eigvalsh(cov)))
        raise NotPositiveDefiniteError(
            "observation covariance not positive definite (smallest pivot %.6g)" % pivot,
            pivot,
        )
    return _gaussian_loglik(factor, _data_columns(values, len(values)))[0]


class SurfaceScanner:
    """Exact likelihood scan over an omega0 grid for one index pattern.

    The exact autocovariances of the whole grid come from one batched
    arma_autocovariance call and are kept as a (max_lag + 1, G) matrix;
    column i equals ``autocovariance`` of the AR(2) SpectralModel at grid[i]
    bit for bit.  ``loglik`` factors each grid point's covariance, solves for
    every dataset it is given at once, and drops the factor.
    """

    def __init__(self, indices, grid, modulus=0.9, sigma2=1.0):
        self.indices = np.asarray(indices, dtype=int)
        self.grid = np.asarray(grid, dtype=float)
        self._lags = np.abs(np.subtract.outer(self.indices, self.indices))
        phi = np.stack(np.broadcast_arrays(*ar2_from_omega(self.grid, modulus)))
        self._gammas = arma_autocovariance(phi, (), sigma2, int(self._lags.max()))

    def loglik(self, values):
        """Log-likelihood over the grid: a (G,) vector for one dataset of shape
        (n,), or an (R, G) matrix for R datasets given as the rows of an (R, n)
        matrix.  Grid points whose covariance fails to factor come back NaN;
        non-finite data raises ValueError."""
        data = _data_columns(values, len(self.indices))
        out = np.full((data.shape[1], len(self.grid)), np.nan)
        for i, gamma in enumerate(self._gammas.T):
            try:
                factor = _gaussian_factor(gamma[self._lags])
            except np.linalg.LinAlgError:
                continue
            out[:, i] = _gaussian_loglik(factor, data)
        return out if np.ndim(values) == 2 else out[0]


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


def mc_average_surface(design, keep_replicates=False):
    """Monte Carlo average of max-aligned likelihood surfaces.

    Replicate r simulates with seed design.seed ^ r; the reduction is in
    replicate order, so the result does not depend on scheduling.  With
    ``keep_replicates`` the per-replicate (unaligned) surfaces come back too,
    as a (replicates, grid) matrix, for standard-error estimates.
    """
    indices = design.base_indices()
    truth = SpectralModel(ar=ar2_from_omega(design.omega_true, design.modulus))
    scanner = SurfaceScanner(indices, design.grid, design.modulus, 1.0)
    seeds = [design.seed ^ r for r in range(design.replicates)]
    paths = simulate_replicates(truth, int(indices[-1]) + 1, seeds)
    per_rep = scanner.loglik(paths[:, indices])
    counts = np.isfinite(per_rep).sum(axis=0)
    avg = np.where(counts > 0, np.nansum(per_rep, axis=0) / np.maximum(counts, 1), np.nan)
    surface = LikelihoodSurface(design.grid, avg - np.nanmax(avg), aligned=True)
    return (surface, per_rep) if keep_replicates else surface
