import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrspec.aliasing import aliased_partners, fold, fold_evaluator
from mrspec.models import (
    SpectralModel,
    ar2_from_omega,
    autocovariance,
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

    def test_flat_stays_flat(self):
        nus = np.linspace(0, 0.5, 17)
        for delta in (1, 2, 3, 5):
            assert fold(SpectralModel(innovation_variance=3.0), delta, nus) == pytest.approx(
                3.0 * np.ones(17)
            )

    def test_subsampled_autocovariance(self):
        # gamma_delta(h) = gamma(delta * h), checked through quadrature
        gamma = autocovariance(AR2, 20, 4096)
        gamma_folded = autocovariance(fold_evaluator(AR2, 2), 10, 4096)
        assert gamma_folded == pytest.approx(gamma[::2], abs=1e-6)

    def test_reflection_invariance_delta2(self):
        # replacing f by its reflection about 1/4 leaves the delta=2 fold fixed
        reflected = lambda w: spectral_density(AR2, 0.5 - np.asarray(w))
        nus = np.linspace(0, 0.5, 101)
        assert fold(AR2, 2, nus) == pytest.approx(fold(reflected, 2, nus), abs=1e-12)

    @pytest.mark.parametrize("delta", [1, 2, 3, 4, 6])
    def test_power_conservation(self, delta):
        omegas, weights = simpson_grid(2048)
        gamma0 = autocovariance(AR2, 0, 2048)[0]
        total = 2.0 * weights @ fold(AR2, delta, omegas)
        assert total == pytest.approx(gamma0, rel=1e-8)

    def test_composition(self):
        nus = np.linspace(0, 0.5, 33)
        double = fold(fold_evaluator(AR2, 2), 3, nus)
        assert double == pytest.approx(fold(AR2, 6, nus), abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(model=ARMA, delta=st.integers(1, 8))
    def test_power_conservation_property(self, model, delta):
        # 2 integral f_delta = gamma_delta(0) = gamma(0) = 2 integral f
        folded = autocovariance(fold_evaluator(model, delta), 0, 4096)[0]
        assert folded == pytest.approx(autocovariance(model, 0)[0], rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(model=ARMA, delta1=st.integers(1, 5), delta2=st.integers(1, 5),
           nus=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=20))
    def test_composition_property(self, model, delta1, delta2, nus):
        twice = fold(fold_evaluator(model, delta1), delta2, nus)
        once = fold(model, delta1 * delta2, nus)
        np.testing.assert_allclose(twice, once, rtol=1e-12)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            fold(AR2, 0, [0.1])
        with pytest.raises(ValueError):
            fold(AR2, 2, [0.6])


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
