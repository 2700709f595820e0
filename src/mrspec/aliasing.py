"""Folded (aliased) spectra of subsampled processes and fold-equivalence sets."""

import numpy as np

from .models import density_of

__all__ = ["principal_frequency", "fold_branches", "fold", "fold_evaluator", "aliased_partners"]

_TIE_TOL = 1e-12


def principal_frequency(omega):
    """Map arbitrary frequencies into [0, 1/2] by the even, period-1 extension."""
    u = np.mod(np.asarray(omega, dtype=float), 1.0)
    return np.where(u > 0.5, 1.0 - u, u)


def fold_branches(nus, delta):
    """The source frequencies principal_frequency((nu + k)/delta), k < delta, that
    stride-``delta`` sampling folds onto each coarse frequency nu, on a new last axis."""
    return principal_frequency((np.asarray(nus, dtype=float)[..., None] + np.arange(delta)) / delta)


def fold(source, delta, nus):
    """Aliased spectrum of the stride-``delta`` subsampled process.

    f_delta(nu) = (1/delta) * sum_k f_ext((nu + k)/delta) for nu in [0, 1/2]
    in units of the coarse sampling rate, so that the coarse autocovariance
    satisfies gamma_delta(h) = gamma(delta*h).
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    nus = np.asarray(nus, dtype=float)
    if np.any(nus < 0) or np.any(nus > 0.5):
        raise ValueError("frequencies must lie in [0, 1/2]")
    branches = fold_branches(nus, delta)
    vals = density_of(source)(branches.ravel()).reshape(branches.shape)
    return vals.mean(axis=-1)


def fold_evaluator(source, delta):
    """Closure form of :func:`fold` for use as a density evaluator."""
    return lambda nus: fold(source, delta, nus)


def aliased_partners(omega, delta):
    """All source frequencies in [0, 1/2] indistinguishable from ``omega``
    given stride-``delta`` data, sorted ascending with boundary duplicates
    removed."""
    if not 0.0 <= omega <= 0.5:
        raise ValueError("omega must lie in [0, 1/2]")
    if delta < 1:
        raise ValueError("delta must be >= 1")
    candidates = []
    for j in range(delta + 1):
        for cand in ((j + delta * omega) / delta, (j - delta * omega) / delta):
            if -_TIE_TOL <= cand <= 0.5 + _TIE_TOL:
                candidates.append(min(max(cand, 0.0), 0.5))
    out = []
    for cand in sorted(candidates):
        if not out or cand - out[-1] > _TIE_TOL:
            out.append(cand)
    return out
