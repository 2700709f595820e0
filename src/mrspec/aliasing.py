"""Folded (aliased) spectra of subsampled processes and fold-equivalence sets."""

from numbers import Integral

import numpy as np

from .models import ModelInvariantError, density_of

__all__ = ["principal_frequency", "fold_branches", "branch_mean", "fold", "aliased_partners"]

_TIE_TOL = 1e-12


def principal_frequency(omega):
    """Map arbitrary frequencies into [0, 1/2] by the even, period-1 extension."""
    u = np.mod(np.asarray(omega, dtype=float), 1.0)
    return np.where(u > 0.5, 1.0 - u, u)


def fold_branches(nus, delta, k=None):
    """The source frequencies principal_frequency((nu + k)/delta), k < delta, that
    stride-``delta`` sampling folds onto each coarse frequency nu, on a new last
    axis; given ``k``, that branch alone, in the shape of ``nus`` and equal to
    that slice of the whole bit for bit."""
    if not isinstance(delta, Integral) or delta < 1:
        raise ValueError("delta must be an integer >= 1, got %r" % (delta,))
    nus = np.asarray(nus, dtype=float)
    if k is None:
        nus, k = nus[..., None], np.arange(delta)
    return principal_frequency((nus + k) / delta)


def branch_mean(branch, delta, out):
    """Mean over the fold branches k = 0..delta-1 of the arrays ``branch(k)``,
    into ``out``: branch 0 copied, each later branch added in branch order, then
    divided by delta.  Only one branch need exist at a time, so no (..., delta)
    array is built.  Below 8 branches that is the order numpy's ``mean`` over a
    branch axis sums in, so the result equals it bit for bit; at delta >= 8
    numpy sums pairwise, and the two can differ in the last bit."""
    np.copyto(out, branch(0))
    for k in range(1, delta):
        out += branch(k)
    out /= delta
    return out


def fold(source, delta, nus):
    """Aliased spectrum of the stride-``delta`` subsampled process.

    f_delta(nu) = (1/delta) * sum_k f_ext((nu + k)/delta) for nu in [0, 1/2]
    in units of the coarse sampling rate, so that the coarse autocovariance
    satisfies gamma_delta(h) = gamma(delta*h).  The density is evaluated one
    branch at a time.
    """
    nus = np.asarray(nus, dtype=float)
    if np.any(nus < 0) or np.any(nus > 0.5):
        raise ValueError("frequencies must lie in [0, 1/2]")
    density = density_of(source)

    def branch(k):
        return density(fold_branches(nus, delta, k).ravel())

    with np.errstate(over="ignore"):  # finite branch values can sum past the float range
        folded = branch_mean(branch, delta, np.empty(nus.size)).reshape(nus.shape)
    if np.isinf(folded).any():
        raise ModelInvariantError("folded spectrum too large for a float (largest branch "
                                  "value %.6g)" % max(branch(k).max() for k in range(delta)))
    return folded


def aliased_partners(omega, delta):
    """All source frequencies in [0, 1/2] indistinguishable from ``omega``
    given stride-``delta`` data: the fold branches of the coarse frequency
    principal_frequency(delta * omega), sorted ascending, ties merged."""
    if not 0.0 <= omega <= 0.5:
        raise ValueError("omega must lie in [0, 1/2]")
    out = []
    for cand in np.sort(fold_branches(principal_frequency(delta * omega), delta)).tolist():
        if not out or cand - out[-1] > _TIE_TOL:
            out.append(cand)
    return out
