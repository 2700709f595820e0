from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrspec.aliasing import aliased_partners, fold, fold_branches
from mrspec.models import (
    LogSpectrum,
    SpectralModel,
    ar2_from_omega,
    autocovariance,
    density_of,
    simpson_grid,
    spectral_density,
)

AR2 = SpectralModel(ar=ar2_from_omega(1.0 / 12.0, 0.9))

# causal, invertible ARMA(2, 1) models whose autocovariances decay fast
# enough that 4096 trapezoid panels resolve every fold used below
COEFF = st.floats(-0.9, 0.9)
ARMA = st.builds(lambda u, phi2, theta, sigma2: SpectralModel(
    ar=(u * (1.0 - phi2), phi2), ma=(theta,), innovation_variance=sigma2),
    COEFF, COEFF, COEFF, st.floats(0.1, 10.0))


class TestFold:
    def test_delta_one_identity(self):
        nus = np.linspace(0, 0.5, 41)
        assert fold(AR2, 1, nus) == pytest.approx(spectral_density(AR2, nus), rel=1e-14)

    @pytest.mark.parametrize("delta", range(1, 8))
    def test_equals_mean_over_branch_axis(self, delta):
        # below 8 branches numpy's mean sums in branch order, as branch_mean does
        nus = np.linspace(0, 0.5, 60).reshape(3, 20)
        for source in (AR2, LogSpectrum(np.array([0.3, -1.2, 0.7, 0.25]))):
            branches = fold_branches(nus, delta)
            vals = density_of(source)(branches.ravel()).reshape(branches.shape)
            assert np.array_equal(fold(source, delta, nus), vals.mean(axis=-1))

    def test_flat_stays_flat(self):
        nus = np.linspace(0, 0.5, 17)
        for delta in (1, 2, 3, 5):
            assert fold(SpectralModel(innovation_variance=3.0), delta, nus) == pytest.approx(
                3.0 * np.ones(17)
            )

    def test_subsampled_autocovariance(self):
        # gamma_delta(h) = gamma(delta * h), checked through quadrature
        gamma = autocovariance(AR2, 20)
        gamma_folded = autocovariance(partial(fold, AR2, 2), 10)
        assert gamma_folded == pytest.approx(gamma[::2], abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(beta=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=16),
           delta=st.sampled_from([2, 4, 6]),
           nus=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=20))
    def test_reflection_invariance_property(self, beta, delta, nus):
        # beta_m -> (-1)^m beta_m reflects f about 1/4, which an even-stride fold cannot see
        beta = np.asarray(beta)
        reflected = beta * (-1.0) ** np.arange(len(beta))
        np.testing.assert_allclose(fold(LogSpectrum(reflected), delta, nus),
                                   fold(LogSpectrum(beta), delta, nus), rtol=1e-12)

    @pytest.mark.parametrize("delta", [1, 2, 3, 4, 6])
    def test_power_conservation(self, delta):
        omegas, weights = simpson_grid(2048)
        gamma0 = autocovariance(AR2, 0)[0]
        total = 2.0 * weights @ fold(AR2, delta, omegas)
        assert total == pytest.approx(gamma0, rel=1e-8)

    def test_composition(self):
        nus = np.linspace(0, 0.5, 33)
        double = fold(partial(fold, AR2, 2), 3, nus)
        assert double == pytest.approx(fold(AR2, 6, nus), abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(model=ARMA, delta=st.integers(1, 8))
    def test_power_conservation_property(self, model, delta):
        # 2 integral f_delta = gamma_delta(0) = gamma(0) = 2 integral f
        folded = autocovariance(partial(fold, model, delta), 0)[0]
        assert folded == pytest.approx(autocovariance(model, 0)[0], rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(model=ARMA, delta1=st.integers(1, 5), delta2=st.integers(1, 5),
           nus=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=20))
    def test_composition_property(self, model, delta1, delta2, nus):
        twice = fold(partial(fold, model, delta1), delta2, nus)
        once = fold(model, delta1 * delta2, nus)
        np.testing.assert_allclose(twice, once, rtol=1e-12)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            fold(AR2, 0, [0.1])
        with pytest.raises(ValueError):
            fold(AR2, 2, [0.6])
        # a fractional stride has no fold branches
        with pytest.raises(ValueError, match="integer"):
            fold(AR2, 2.5, [0.1])
        with pytest.raises(ValueError, match="integer"):
            aliased_partners(0.1, 2.5)


def brute_force_partners(omega, delta):
    """Every w in [0, 1/2] with delta * w = k +- delta * omega for an integer
    k, |k| <= delta: the frequencies whose lag-delta*h cosines equal omega's
    at every integer h.  Ties merged at 1e-12."""
    candidates = sorted(min(max((k + sign * delta * omega) / delta, 0.0), 0.5)
                        for k in range(-delta, delta + 1) for sign in (1, -1)
                        if -1e-12 <= (k + sign * delta * omega) / delta <= 0.5 + 1e-12)
    out = []
    for cand in candidates:
        if not out or cand - out[-1] > 1e-12:
            out.append(cand)
    return out


class TestAliasedPartners:
    def test_one_eighth(self):
        assert aliased_partners(0.125, 2) == pytest.approx([0.125, 0.375])

    def test_delta_one(self):
        assert aliased_partners(0.3, 1) == pytest.approx([0.3])

    def test_one_twelfth(self):
        assert aliased_partners(1.0 / 12.0, 2) == pytest.approx([1.0 / 12.0, 5.0 / 12.0])

    def test_set_size_bounded(self):
        for delta in range(1, 7):
            for omega in (0.0, 0.07, 0.25, 0.33, 0.5):
                partners = aliased_partners(omega, delta)
                assert 1 <= len(partners) <= delta + 1
                assert any(abs(p - omega) < 1e-12 for p in partners)
                assert partners == sorted(partners)

    def test_partners_share_folded_value(self):
        # fold is blind to which partner carries the power: moving the AR(2)
        # peak to any partner leaves gamma(delta h) lags reachable only
        # through the same folded bins
        nus = np.linspace(0, 0.5, 65)
        for omega in aliased_partners(1.0 / 12.0, 2):
            vals = fold(SpectralModel(ar=ar2_from_omega(omega, 0.9)), 2, nus)
            assert np.all(vals > 0)

    def test_matches_enumeration(self):
        # the partners (delta * omega - j) / delta exist whenever delta * omega > 1
        for delta in range(1, 9):
            for omega in np.linspace(0.0, 0.5, 297):
                assert aliased_partners(omega, delta) == pytest.approx(
                    brute_force_partners(omega, delta), abs=1e-12), (omega, delta)

    def test_partner_below_omega_over_delta(self):
        # 0.34375 * 3 = 1.03125, so 0.03125 / 3 folds onto the same coarse frequency
        assert aliased_partners(0.34375, 3) == pytest.approx([0.03125 / 3, 0.96875 / 3, 0.34375])
