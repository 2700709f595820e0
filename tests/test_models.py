import numpy as np
import pytest
from scipy.linalg import toeplitz

from mrspec import models
from mrspec.models import (
    LogSpectrum,
    ModelInvariantError,
    NotPositiveDefiniteError,
    SampledSeries,
    SpectralModel,
    ar2_from_omega,
    autocovariance,
    levinson,
    simpson_grid,
    simulate,
    simulate_log_spectra,
    simulate_replicates,
    spectral_density,
    subsample,
)


def yule_walker_gamma(phi, sigma2, max_lag):
    """Closed-form AR autocovariance oracle: solve the Yule-Walker system
    for gamma(0..p), then extend by the AR recursion."""
    p = len(phi)
    a = np.zeros((p + 1, p + 1))
    b = np.zeros(p + 1)
    b[0] = sigma2
    for row in range(p + 1):
        a[row, row] += 1.0
        for j, c in enumerate(phi, start=1):
            a[row, abs(row - j)] -= c
    gamma = list(np.linalg.solve(a, b))
    for h in range(p + 1, max_lag + 1):
        gamma.append(sum(c * gamma[h - j] for j, c in enumerate(phi, start=1)))
    return np.array(gamma[: max_lag + 1])


class TestAr2FromOmega:
    def test_low_frequency_limit(self):
        phi1, phi2 = ar2_from_omega(1e-9, 0.9)
        assert phi1 == pytest.approx(1.8, abs=1e-12)
        assert phi2 == pytest.approx(-0.81)

    def test_quarter(self):
        phi1, phi2 = ar2_from_omega(0.25, 0.9)
        assert phi1 == pytest.approx(0.0, abs=1e-15)
        assert phi2 == pytest.approx(-0.81)

    def test_one_twelfth(self):
        phi1, phi2 = ar2_from_omega(1.0 / 12.0, 0.9)
        assert phi1 == pytest.approx(1.8 * np.sqrt(3) / 2, abs=1e-12)
        assert phi2 == pytest.approx(-0.81)

    @pytest.mark.parametrize("omega,mod", [(0.0, 0.9), (0.5, 0.9), (0.1, 0.0), (0.1, 1.0)])
    def test_domain(self, omega, mod):
        with pytest.raises(ValueError):
            ar2_from_omega(omega, mod)

    def test_resulting_model_is_causal(self):
        for omega in (0.01, 0.1, 0.25, 0.49):
            SpectralModel(ar=ar2_from_omega(omega, 0.95))


class TestSpectralModel:
    def test_noncausal_rejected(self):
        with pytest.raises(ModelInvariantError):
            SpectralModel(ar=(1.2,))

    def test_noninvertible_rejected(self):
        with pytest.raises(ModelInvariantError):
            SpectralModel(ma=(-1.0,))

    def test_bad_variance(self):
        with pytest.raises(ModelInvariantError):
            SpectralModel(innovation_variance=0.0)

    def test_seasonal_expansion(self):
        # (1 - 0.5 B^12) expanded through the plain polynomial
        model = SpectralModel(seasonal_ar=(0.5,), season_period=12)
        poly = model.full_ar_poly()
        assert len(poly) == 13
        assert poly[0] == 1.0 and poly[12] == -0.5
        assert np.all(poly[1:12] == 0)


class TestSpectralDensity:
    def test_white_noise_flat(self):
        grid = np.linspace(0, 0.5, 33)
        assert spectral_density(SpectralModel(), grid) == pytest.approx(np.ones(33))

    def test_ar2_peak_location(self):
        model = SpectralModel(ar=ar2_from_omega(1.0 / 12.0, 0.9))
        grid = np.linspace(0, 0.5, 4096)
        peak = grid[np.argmax(spectral_density(model, grid))]
        assert abs(peak - 1.0 / 12.0) < 0.01

    def test_ma1_at_zero(self):
        model = SpectralModel(ma=(0.5,), innovation_variance=2.0)
        assert spectral_density(model, [0.0])[0] == pytest.approx(2.0 * 2.25)

    @pytest.mark.parametrize("model", [
        SpectralModel(),
        SpectralModel(ar=(0.5,)),
        SpectralModel(ar=ar2_from_omega(1.0 / 12.0, 0.9)),
        SpectralModel(ma=(0.4, 0.1), seasonal_ar=(0.6,), seasonal_ma=(0.3,), season_period=12),
    ])
    def test_positive_and_power_consistent(self, model):
        omegas, weights = simpson_grid(1024)
        f = spectral_density(model, omegas)
        assert np.all(f > 0)
        gamma0 = autocovariance(model, 0, 1024)[0]
        assert 2.0 * weights @ f == pytest.approx(gamma0, rel=1e-8)


class TestAutocovariance:
    def test_white_noise(self):
        gamma = autocovariance(SpectralModel(innovation_variance=2.5), 4)
        assert gamma[0] == pytest.approx(2.5, rel=1e-10)
        assert np.abs(gamma[1:]).max() < 1e-10

    def test_ar1_closed_form(self):
        gamma = autocovariance(SpectralModel(ar=(0.5,)), 8, 4096)
        expected = (0.5 ** np.arange(9)) / (1 - 0.25)
        assert gamma == pytest.approx(expected, abs=1e-6)

    def test_ar2_yule_walker_oracle(self):
        phi = ar2_from_omega(1.0 / 12.0, 0.9)
        gamma = autocovariance(SpectralModel(ar=phi), 10, 4096)
        assert gamma == pytest.approx(yule_walker_gamma(phi, 1.0, 10), abs=1e-6)

    def test_bounded_by_gamma0(self):
        gamma = autocovariance(SpectralModel(ar=(0.7, -0.2), ma=(0.3,)), 50)
        assert gamma[0] > 0
        assert np.all(np.abs(gamma[1:]) <= gamma[0])

    def test_rejects_negative_density(self):
        with pytest.raises(ModelInvariantError):
            autocovariance(lambda w: np.cos(4 * np.pi * w), 2)

    def test_logspectrum_input(self):
        flat = LogSpectrum(np.array([np.log(3.0)]))
        gamma = autocovariance(flat, 3)
        assert gamma[0] == pytest.approx(3.0, rel=1e-10)


class TestSimulate:
    def test_single_draw(self):
        s = simulate(SpectralModel(innovation_variance=4.0), 1, 7)
        z = np.random.default_rng(7).standard_normal(1)[0]
        assert s.values[0] == pytest.approx(2.0 * z, rel=1e-9)

    def test_seed_reproducible(self):
        a = simulate(SpectralModel(ar=(0.5,)), 256, 42)
        b = simulate(SpectralModel(ar=(0.5,)), 256, 42)
        assert np.array_equal(a.values, b.values)

    def test_white_noise_variance(self):
        s = simulate(SpectralModel(innovation_variance=2.0), 10_000, 3)
        assert s.values.var() == pytest.approx(2.0, rel=0.05)

    def test_ar2_lag1_autocorrelation(self):
        phi = ar2_from_omega(1.0 / 12.0, 0.9)
        gamma = yule_walker_gamma(phi, 1.0, 1)
        s = simulate(SpectralModel(ar=phi), 10_000, 5)
        x = s.values - s.values.mean()
        rho1 = (x[:-1] @ x[1:] / len(x)) / x.var()
        assert abs(rho1 - gamma[1] / gamma[0]) < 0.02


class TestLevinson:
    def test_variances_are_toeplitz_cholesky_pivots(self):
        gamma = autocovariance(SpectralModel(ar=(0.7, -0.2), ma=(0.3,)), 12)
        pivots = np.diag(np.linalg.cholesky(toeplitz(gamma))) ** 2
        variances = np.array([v for _, v in levinson(gamma)])
        assert variances == pytest.approx(pivots, rel=1e-12)

    def test_recovers_ar_coefficients(self):
        phi = ar2_from_omega(1.0 / 12.0, 0.9)
        fits = [(c.copy(), v) for c, v in levinson(yule_walker_gamma(phi, 1.3, 5))]
        assert [len(c) for c, _ in fits] == list(range(6))
        for coeffs, v in fits[2:]:
            assert coeffs[:2] == pytest.approx(phi, abs=1e-10)
            assert np.abs(coeffs[2:]).max(initial=0.0) < 1e-10
            assert v == pytest.approx(1.3, rel=1e-10)


    def test_stacked_columns_equal_1d_recursion(self):
        sources = [SpectralModel(ar=(0.7, -0.2), ma=(0.3,)),
                   SpectralModel(ar=ar2_from_omega(0.3, 0.95)),
                   LogSpectrum(np.array([0.2, -0.5, 0.3]))]
        gammas = np.stack([autocovariance(s, 80) for s in sources], axis=1)
        stacked = [(phi.copy(), v.copy()) for phi, v in levinson(gammas)]
        assert stacked[-1][0].shape == (80, 3)
        for j in range(len(sources)):
            single = levinson(gammas[:, j].copy())
            for (phi, v), (phi1, v1) in zip(stacked, single, strict=True):
                assert np.array_equal(phi[:, j], phi1)
                assert v[j] == v1


class TestSimulateLogSpectra:
    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_rows_equal_simulate_or_fail_where_it_raises(self):
        rng = np.random.default_rng(1)
        spectra = [LogSpectrum(rng.standard_normal(8) * s) for s in (0.3, 1.0, 6.0, 6.0)]
        # densities that underflow to 0 and overflow to inf
        spectra += [LogSpectrum(np.r_[c, np.zeros(7)]) for c in (-800.0, 800.0)]
        seeds = list(range(len(spectra)))
        paths, ok = simulate_log_spectra(spectra, 300, seeds, 1024)
        assert paths.shape == (6, 300)
        raised = []
        for spectrum, seed, path, row_ok in zip(spectra, seeds, paths, ok):
            try:
                want = simulate(spectrum, 300, seed, 1024).values
            except (ModelInvariantError, NotPositiveDefiniteError) as exc:
                raised.append(type(exc))
                assert not row_ok
            else:
                assert row_ok
                assert np.array_equal(path, want)
        assert raised == [NotPositiveDefiniteError, ModelInvariantError, ModelInvariantError]


class TestSimulateReplicates:
    def test_rows_equal_simulate(self):
        model = SpectralModel(ar=ar2_from_omega(1.0 / 12.0, 0.9))
        seeds = [7 ^ r for r in range(6)]
        paths = simulate_replicates(model, 40, seeds)
        assert paths.shape == (6, 40)
        for row, seed in zip(paths, seeds):
            assert np.array_equal(row, simulate(model, 40, seed).values)

    def test_non_positive_pivot_raises(self, monkeypatch):
        # Toeplitz([1, 0.9, 0]) has eigenvalue 1 - 0.9 * sqrt(2) < 0; the
        # pivots of steps 2 and 3 are both negative, and step 2 is reported
        gamma = np.array([1.0, 0.9, 0.0, -0.9, 0.0])
        monkeypatch.setattr(models, "autocovariance", lambda *args: gamma)
        with pytest.raises(NotPositiveDefiniteError, match="at step 2 ") as err:
            simulate(SpectralModel(), 5, 0)
        assert err.value.smallest_pivot == pytest.approx(-3.2631578947368434, rel=1e-12)
        with pytest.raises(NotPositiveDefiniteError, match="at step 2 "):
            simulate_replicates(SpectralModel(), 5, [0, 1])


class TestSubsample:
    def test_identity(self):
        s = SampledSeries(np.arange(6.0))
        out = subsample(s, 1, 0)
        assert np.array_equal(out.values, s.values)

    def test_every_other(self):
        out = subsample(SampledSeries(np.arange(6.0)), 2, 0)
        assert np.array_equal(out.values, [0.0, 2.0, 4.0])
        assert out.stride == 2

    def test_stride_six_offset_five(self):
        out = subsample(SampledSeries(np.arange(128.0)), 6, 5)
        assert len(out) == 21
        assert out.base_indices()[-1] == 125

    def test_bad_offset(self):
        with pytest.raises(ValueError):
            subsample(SampledSeries(np.arange(8.0)), 2, 2)

    def test_offsets_agree_on_shared_indices(self):
        path = simulate(SpectralModel(ar=(0.6,)), 120, 11)
        a = subsample(path, 3, 0)
        b = subsample(path, 2, 0)
        # base index 6 is seen by both
        assert a.values[2] == b.values[3]
