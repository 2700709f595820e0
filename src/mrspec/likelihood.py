"""Exact Gaussian log-likelihoods for arbitrarily subsampled data, all by one
state-space recursion with no covariance matrix (``_filter``), and the Monte
Carlo likelihood-surface experiments for the AR(2) peak-frequency scan."""

from dataclasses import dataclass, field, replace

import numpy as np

from .models import (
    DesignError,
    NotPositiveDefiniteError,
    SpectralModel,
    ar2_from_omega,
    arma_state_space,
    autocovariance,  # noqa: F401  unused here, but kept for perfbench/spans.py, as simulate
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


def _as_indices(indices):
    """Base-grid indices as a nonempty 1-d int array, else ValueError, which
    names the first entry that a cast to int would truncate."""
    raw = np.asarray(indices)
    if raw.ndim != 1 or len(raw) == 0:
        raise ValueError("indices must be a nonempty 1-d sequence")
    with np.errstate(invalid="ignore"):
        ints = raw.astype(int)
    if np.any(raw != ints):
        raise ValueError("indices must be integers, got %r" % raw[raw != ints][0].item())
    return ints


def exact_loglik(model, observations):
    """Exact log-density of zero-mean Gaussian observations, a sequence of
    (index, value) pairs at distinct base-grid indices, under a SpectralModel:
    the scan of SurfaceScanner for the one model, whose cost grows with n and
    the log of the largest gap, not with the index span.  NotPositiveDefiniteError
    names the index whose innovation variance is not positive."""
    obs = list(observations)
    indices = _as_indices([i for i, _ in obs])
    values = np.asarray([v for _, v in obs], dtype=float)
    if np.any(indices < 0) or np.any(np.diff(np.sort(indices)) == 0):
        raise ValueError("indices must be distinct and non-negative")
    plan, var = _filter(indices, *arma_state_space(
        -model.full_ar_poly()[1:, None], model.full_ma_poly()[1:, None], model.innovation_variance))
    bad = np.flatnonzero(~((0 < var) & (var < np.inf)))
    if len(bad):
        j, pivot = plan[0][bad[0]], var[bad[0], 0]
        raise NotPositiveDefiniteError("observation covariance not positive definite at index "
                                       "%d (pivot %.6g)" % (indices[j], pivot), pivot)
    return _scan(plan, values, [len(values)])[0, 0, 0]


def _gap_transition(phi, noise, gaps):
    """(Phi^k, Q_k) for each gap k of ``gaps``, stacked on a new leading axis:
    over k steps the state moves as s' = Phi^k s + noise of covariance Q_k.
    Binary powers of (Phi, Q_1), shared by all gaps, with (A_a, Q_a) after
    (A_b, Q_b) composing to (A_a A_b, Q_a + A_a Q_b A_a^T): Q_k is a sum of
    positive semidefinite terms, so no digits cancel near the unit circle."""
    def compose(first, second):
        (a, q), (b, r) = first, second
        return a @ b, q + a @ r @ np.swapaxes(a, -1, -2)

    eye = np.broadcast_to(np.eye(phi.shape[-1]), (len(gaps),) + phi.shape)
    power, step = (eye.copy(), np.zeros(eye.shape)), (phi, noise)
    for bit in range(int(gaps.max(initial=0)).bit_length()):
        if bit:
            step = compose(step, step)
        on = (gaps >> bit) & 1 == 1
        power[0][on], power[1][on] = compose(step, (power[0][on], power[1][on]))
    return power


def _filter(indices, phi, noise, stationary):
    """The data-free half of the scan, for G processes given by (G, r, r)
    transitions, state noises and stationary state variances (arma_state_space).
    After y_j only the other state components are uncertain (x's row and column
    of their variance stay exactly 0), with mean m.  With A = Phi^k over the
    gap before y_j (A = 0 first, predicting from the stationary law), gain K_j
    and frame F = [A_.0, -e_0, A_..], u = (y_{j-1}, y_j, m) gives the innovation
    e_j = -F_0 u and the new mean m'_i = F_i u + K_i e_j.  Returns the v_j and
    the plan ``_scan`` runs: sort order, each step's frame, the frames,
    weights (-1 / sqrt(v_j), K_j), and the (n, G) j log 2pi + sum log v of each
    prefix, NaN from the first v_j not positive and finite."""
    if phi.shape[-1] == 1:  # a second state component, always 0, keeps m nonempty
        phi, noise, stationary = (np.pad(x, [(0, 0), (0, 1), (0, 1)])
                                  for x in (phi, noise, stationary))
    order = np.argsort(indices, kind="stable")
    gaps, gap_of_step = np.unique(np.diff(indices[order]), return_inverse=True)
    # (transition, r, r, G), with the first step's Phi^k = 0 and Q = P
    phis, noises = (np.ascontiguousarray(np.concatenate([first[None], rest]).transpose(0, 2, 3, 1))
                    for first, rest in zip((np.zeros_like(phi), stationary),
                                           _gap_transition(phi, noise, gaps)))
    steps = np.concatenate([[0], gap_of_step + 1])
    (r, g), n = phis.shape[2:], len(steps)
    # the state's variance before y_j is Q + sum_lm p_lm h_l h_m^T, with p the
    # variance of the unobserved components and h_l column l + 1 of A
    columns = np.ascontiguousarray(phis[:, :, 1:].swapaxes(1, 2))
    pairs = list(np.ndindex(r - 1, r - 1))
    var, weights, p = np.empty((n, g)), np.empty((n, r, g)), np.zeros((r - 1, r - 1, g))
    with np.errstate(all="ignore"):
        for j, s in enumerate(steps):
            h = columns[s]
            c = sum((h[l][:, None] * (p[l, m] * h[m]) for l, m in pairs), noises[s])
            var[j] = c[0, 0]
            np.divide(c[1:, 0], c[0, 0], out=weights[j, 1:])
            p = c[1:, 1:] - weights[j, 1:, None] * c[0, 1:]
    # the steps after a failure run on v = 1, K = 0, so that no arithmetic warns
    failed = np.logical_or.accumulate(~((0 < var) & (var < np.inf)), axis=0)
    safe = np.where(failed, 1.0, var)
    np.divide(-1.0, np.sqrt(safe, out=weights[:, 0]), out=weights[:, 0])
    np.copyto(weights[:, 1:], 0.0, where=failed[:, None])
    frames = np.concatenate([phis[:, :, :1], np.zeros_like(phis[:, :, :1]), phis[:, :, 1:]], 2)
    frames[:, 0, 1] = -1.0
    const = np.cumsum(np.log(safe, out=safe), axis=0, out=safe)
    const += np.arange(1, n + 1)[:, None] * _LOG_2PI
    const[failed] = np.nan
    return (order, steps, frames, weights, const), var


def _scan(plan, values, ends):
    """Log-likelihoods under the G processes of a ``_filter`` plan, one (R, G)
    matrix per prefix length in ``ends``, of ``values``: one dataset of shape
    (n,) or R datasets as the rows of an (R, n) matrix, finite."""
    order, steps, frames, weights, const = plan
    n, rows = len(order), np.asarray(values, dtype=float)
    if rows.ndim not in (1, 2) or rows.shape[-1] != n:
        raise ValueError("data must have shape (%d,) or (replicates, %d)" % (n, n))
    if not np.all(np.isfinite(rows)):
        raise ValueError("data must not contain infs or NaNs")
    rows = np.atleast_2d(rows)
    dim, shape = frames.shape[1], (len(rows), frames.shape[-1])
    # column j holds y_{j-1}; the first step's "previous value" is 0
    data = np.zeros((len(rows), n + 1))
    data[:, 1:] = rows[:, order]
    w, term, q = np.empty(shape), np.empty(shape), np.zeros(shape)
    # m'_0 overwrites m_0 once nothing else reads it; m'_1.. go to spares
    means, spares = list(np.zeros((dim - 1,) + shape)), list(np.empty((dim - 2,) + shape))
    coef = np.empty(frames.shape[1:])  # this step's map from u to (e_j / sqrt(v_j), m')
    out = np.empty((len(ends),) + shape)
    for j, s in enumerate(steps):
        np.multiply(weights[j, :, None], frames[s, 0], out=coef)
        np.subtract(frames[s, 1:], coef[1:], out=coef[1:])
        pair = data[:, j:j + 2]
        for value, c in zip([w, *spares, means[0]], [coef[0], *coef[2:], coef[1]]):
            np.multiply(means[0], c[2], out=value)
            for m, cm in zip(means[1:], c[3:]):
                np.multiply(m, cm, out=term)
                value += term
            np.matmul(pair, c[:2], out=term)
            value += term
        means[1:], spares = spares, means[1:]
        np.square(w, out=w)
        q += w
        for i in [i for i, end in enumerate(ends) if end == j + 1]:
            np.add(const[j], q, out=out[i])
            out[i] *= -0.5
    return out


class SurfaceScanner:
    """Exact likelihood scan over an omega0 grid for one index pattern: the
    prediction-error decomposition of the AR(2) model of each grid point, a
    Markov chain in its state of r = 2 (Jones 1980, Technometrics 22:389;
    Gardner, Harvey & Phillips 1980, AS 154), O(n) per grid point and dataset.
    ``__init__`` does all that depends only on the design and the grid: one
    batched arma_state_space call, Phi^k and Q_k per distinct gap, and the
    data-free variance recursion (``_filter``)."""

    def __init__(self, indices, grid, modulus=0.9, sigma2=1.0):
        self.indices = _as_indices(indices)
        self.grid = np.asarray(grid, dtype=float)
        phi = np.stack(np.broadcast_arrays(*ar2_from_omega(self.grid, modulus)))
        self._plan = _filter(self.indices, *arma_state_space(phi, (), sigma2))[0]

    def loglik(self, values, lengths=None):
        """Log-likelihood over the grid: a (G,) vector for one dataset of shape
        (n,), or an (R, G) matrix for R datasets given as the rows of an (R, n)
        matrix.  With ``lengths``, a sequence of prefix lengths, the result
        gains a leading axis: entry i is the log-likelihood of the
        ``lengths[i]`` observations at the smallest indices, equal bit for bit
        to a scanner built on those indices alone.  Grid points whose
        innovation variance is not positive and finite come back NaN;
        non-finite data raises ValueError."""
        n = len(self.indices)
        ends = [n] if lengths is None else [int(length) for length in lengths]
        if not all(1 <= end <= n for end in ends):
            raise ValueError("prefix lengths must lie in [1, %d], got %r" % (n, lengths))
        out = _scan(self._plan, values, ends)
        if np.ndim(values) == 1:
            out = out[:, 0]
        return out if lengths is not None else out[0]


def omega_surface(indices, values, grid, modulus=0.9, sigma2=1.0):
    """Exact log-likelihood surface over candidate peak frequencies for one
    dataset of (base index, value) observations."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
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
