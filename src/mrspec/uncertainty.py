"""Communicating and propagating adjusted-spectrum uncertainty: principal
component fans, sparse Gauss-Hermite quadrature and Kolmogorov's one-step
prediction variance."""

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .models import (QUAD_PANELS, LogSpectrum, SpectralModel, basis_matrix, exp_log_spectrum,
                     simpson_grid)

__all__ = [
    "PCDecomposition",
    "QuadratureGrid",
    "pc_decomposition",
    "pc_fan",
    "sparse_grid",
    "propagate",
    "kolmogorov_variance",
]

# the standard normal deciles ndtri(k / 10), k = 1..9, to the last bit
FAN_QUANTILES = np.array([
    -1.2815515655446004, -0.8416212335729142, -0.5244005127080409, -0.2533471031357997, 0.0,
    0.2533471031357997, 0.5244005127080407, 0.8416212335729143, 1.2815515655446004])


@dataclass(frozen=True)
class PCDecomposition:
    """Eigenstructure of an adjusted coefficient variance matrix, eigenvalues
    descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, orthonormal


def pc_decomposition(state):
    vals, vecs = np.linalg.eigh(state.variance)
    order = np.argsort(vals)[::-1]
    return PCDecomposition(np.clip(vals[order], 0.0, None), vecs[:, order])


def pc_fan(state, k, grid):
    """Nine spectrum curves fanning out along principal component k.

    Curve i is exp(Psi (mean + q_i * sqrt(lambda_k) * u_k)) with q_i the
    deciles of the standard normal; the middle curve is the exponentiated
    mean.  Returns an array of shape (9, len(grid))."""
    decomp = pc_decomposition(state)
    lam, vec = decomp.eigenvalues[k], decomp.eigenvectors[:, k]
    if lam < 1e-14 * max(decomp.eigenvalues[0], 1e-300):
        raise ValueError("component %d is numerically null" % k)
    grid = np.asarray(grid, dtype=float)
    psi = basis_matrix(grid, state.size)
    shifts = np.outer(FAN_QUANTILES * np.sqrt(lam), psi @ vec)
    return exp_log_spectrum(psi @ state.mean + shifts)


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights for the d-dimensional standard normal measure.
    Weights may be negative (Smolyak combination)."""

    nodes: np.ndarray  # (n, d)
    weights: np.ndarray

    def integrate(self, func):
        return float(self.weights @ np.array([func(x) for x in self.nodes], dtype=float))


def _gauss_hermite_prob(n):
    """n-point Gauss-Hermite rule normalized for the standard normal weight."""
    x, w = hermegauss(n)
    return x, w / w.sum()


def sparse_grid(d, level):
    """Smolyak sparse grid from 1-d Gauss-Hermite rules, exact for all
    polynomials of total degree <= 2*level - 1.

    Uses the combination formula over multi-indices i with
    q - d + 1 <= |i| <= q, q = level + d - 1, with the i-th 1-d rule having
    i points (degree-(2i-1) exact).  Coincident nodes are merged."""
    if not 1 <= d <= 10:
        raise ValueError("dimension must be in 1..10")
    if not 1 <= level <= 5:
        raise ValueError("level must be in 1..5")
    rules = {i: _gauss_hermite_prob(i) for i in range(1, level + 1)}
    q = level + d - 1
    merged = {}
    for total in range(max(d, q - d + 1), q + 1):
        coeff = (-1) ** (q - total) * comb(d - 1, q - total)
        # compositions of `total` into d parts, each in 1..total-d+1, within 1..level
        for cuts in combinations(range(1, total), d - 1):
            parts = np.diff((0,) + cuts + (total,))
            axes = [rules[p] for p in parts]
            grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
            node_block = np.stack([g.ravel() for g in grids], axis=1)
            w_block = coeff * np.prod(
                np.meshgrid(*[a[1] for a in axes], indexing="ij"), axis=0
            ).ravel()
            for node, w in zip(node_block, w_block):
                key = tuple(np.round(node, 12))
                merged[key] = merged.get(key, 0.0) + w
    keys = sorted(merged)
    nodes = np.array(keys, dtype=float).reshape(len(keys), d)
    weights = np.array([merged[k] for k in keys])
    return QuadratureGrid(nodes, weights)


def propagate(state, d, level, functional):
    """Quadrature expectation of a spectrum functional under the belief state,
    truncating the uncertainty to the top d principal components.

    ``functional`` receives a LogSpectrum per node."""
    decomp = pc_decomposition(state)
    if d > state.size:
        raise ValueError("d exceeds the coefficient dimension")
    grid = sparse_grid(d, level)
    loadings = decomp.eigenvectors[:, :d] * np.sqrt(decomp.eigenvalues[:d])
    values = np.empty(len(grid.weights))
    for i, x in enumerate(grid.nodes):
        try:
            values[i] = functional(LogSpectrum(state.mean + loadings @ x))
        except Exception as exc:
            raise ArithmeticError("functional failed at quadrature node %d: %s" % (i, exc))
    return float(grid.weights @ values)


def kolmogorov_variance(source):
    """One-step-ahead prediction error variance exp(2 * integral_0^{1/2} log f(w) dw)
    (Kolmogorov-Szego).  Closed forms where they exist: exp(beta_0) for a
    LogSpectrum, whose cosine terms integrate to 0, and the innovation
    variance of a SpectralModel, causal and invertible by construction, so
    its AR and MA factors integrate to 0 in the log.  Any other source is a
    density f called on the nodes of composite Simpson quadrature on QUAD_PANELS
    panels (TypeError if it is not callable)."""
    if isinstance(source, LogSpectrum):
        return float(exp_log_spectrum(source.coefficients[0]))
    if isinstance(source, SpectralModel):
        return float(source.innovation_variance)
    omegas, weights = simpson_grid(QUAD_PANELS)
    f = source(omegas)
    # checked before the log, which would warn on a zero or negative value
    if not np.all((f > 0) & np.isfinite(f)):
        raise ValueError("log spectral density must be finite on [0, 1/2]")
    return float(np.exp(2.0 * weights @ np.log(f)))
