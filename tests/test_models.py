import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import irfft
from scipy.linalg import toeplitz

from mrspec import models
from mrspec.models import (
    LogSpectrum,
    ModelInvariantError,
    NotPositiveDefiniteError,
    SampledSeries,
    SpectralModel,
    ar2_from_omega,
    arma_autocovariance,
    arma_state_space,
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

    def test_array_equals_scalar_calls(self):
        grid = 0.5 * np.arange(1, 202) / 202
        phi1, phi2 = ar2_from_omega(grid, 0.9)
        assert phi1.shape == grid.shape
        assert np.array_equal(phi1, [ar2_from_omega(w, 0.9)[0] for w in grid])
        assert phi2 == ar2_from_omega(0.1, 0.9)[1]

    @pytest.mark.parametrize("bad", [0.0, 0.5, -0.1, np.nan])
    def test_array_rejects_one_bad_entry(self, bad):
        with pytest.raises(ValueError, match="omega0"):
            ar2_from_omega(np.array([0.1, 0.2, bad, 0.3]), 0.9)


class TestSpectralModel:
    def test_noncausal_rejected(self):
        with pytest.raises(ModelInvariantError):
            SpectralModel(ar=(1.2,))

    def test_noninvertible_rejected(self):
        with pytest.raises(ModelInvariantError):
            SpectralModel(ma=(-1.0,))

    def test_rejection_names_polynomial_and_coefficient(self):
        with pytest.raises(ModelInvariantError,
                           match=r"AR polynomial \[1.0, -1.2\] .*reflection coefficient 1.2 "):
            SpectralModel(ar=(1.2,))
        with pytest.raises(ModelInvariantError, match=r"MA polynomial \[1.0, 0.0, 1.0\] "):
            SpectralModel(ma=(0.0, 1.0))

    def test_subnormal_coefficient_accepted(self):
        assert SpectralModel(ar=(1e-310,), ma=(-5e-324,)).ar == (1e-310,)

    @settings(max_examples=100, deadline=None)
    @given(roots=st.lists(st.tuples(st.floats(0.0, 1.5).filter(lambda r: abs(r - 1.0) > 0.05),
                                    st.floats(0.0, np.pi)), min_size=1, max_size=3))
    def test_causal_exactly_when_roots_inside(self, roots):
        # reciprocal roots r e^{+-i theta}: a factor 1 - 2 r cos(theta) B + r^2 B^2
        # each, real (theta = 0) or a conjugate pair, so the model is causal
        # exactly when every r < 1.  The margin about r = 1 covers a root of
        # multiplicity up to 6, which rounding the coefficients moves by up
        # to about eps**(1/6) ~ 2e-3
        poly = np.ones(1)
        for r, theta in roots:
            poly = np.convolve(poly, [1.0, -2.0 * r * np.cos(theta), r * r])
        causal = all(r < 1.0 for r, _ in roots)
        try:
            SpectralModel(ar=-poly[1:])
        except ModelInvariantError:
            assert not causal
        else:
            assert causal

    def test_bad_variance(self):
        with pytest.raises(ModelInvariantError):
            SpectralModel(innovation_variance=0.0)

    @pytest.mark.parametrize("variance", [np.inf, np.nan])
    def test_non_finite_variance(self, variance):
        with pytest.raises(ModelInvariantError, match="positive and finite"):
            SpectralModel(innovation_variance=variance)

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
        gamma0 = autocovariance(model, 0)[0]
        assert 2.0 * weights @ f == pytest.approx(gamma0, rel=1e-8)


class TestAutocovariance:
    def test_white_noise(self):
        gamma = autocovariance(SpectralModel(innovation_variance=2.5), 4)
        assert gamma[0] == pytest.approx(2.5, rel=1e-10)
        assert np.abs(gamma[1:]).max() < 1e-10

    def test_ar1_closed_form(self):
        gamma = autocovariance(SpectralModel(ar=(0.5,)), 8)
        expected = (0.5 ** np.arange(9)) / (1 - 0.25)
        assert gamma == pytest.approx(expected, abs=1e-6)

    def test_ar2_yule_walker_oracle(self):
        phi = ar2_from_omega(1.0 / 12.0, 0.9)
        gamma = autocovariance(SpectralModel(ar=phi), 10)
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


def ar2_closed_form(phi, sigma2, max_lag):
    """gamma(h) of a causal AR(2) from its reciprocal roots a, b:
    sigma2 [a^(h+1) / (1 - a^2) - b^(h+1) / (1 - b^2)] / ((a - b)(1 - ab))."""
    a, b = np.roots([1.0, -phi[0], -phi[1]]).astype(complex)
    h = np.arange(max_lag + 1)
    gamma = (a ** (h + 1) / (1 - a * a) - b ** (h + 1) / (1 - b * b)) / ((a - b) * (1 - a * b))
    return sigma2 * gamma.real


def psi_weight_gamma(phi, theta, sigma2, max_lag, terms=4000):
    """ARMA(1,1) autocovariance as the psi-weight sum
    sigma2 sum_j psi_j psi_{j+h}, psi_0 = 1, psi_j = (phi + theta) phi^(j-1)."""
    psi = np.concatenate([[1.0], (phi + theta) * phi ** np.arange(terms - 1)])
    return sigma2 * np.array([psi[: terms - h] @ psi[h:] for h in range(max_lag + 1)])


def assert_close_to(gamma, want, rel):
    """Agreement to ``rel`` relative to each lag, or to gamma(0) where a lag is
    near a zero crossing."""
    np.testing.assert_allclose(gamma, want, rtol=rel, atol=rel * abs(want[0]))


COEFFICIENTS = st.floats(-0.95, 0.95)


class TestExactAutocovariance:
    def test_ar1_closed_form(self):
        for phi in (0.5, -0.9, 0.999):
            gamma = autocovariance(SpectralModel(ar=(phi,), innovation_variance=1.7), 200)
            assert_close_to(gamma, 1.7 * phi ** np.arange(201) / (1 - phi * phi), 1e-12)

    @pytest.mark.parametrize("modulus", [0.5, 0.9, 0.99, 0.999])
    @pytest.mark.parametrize("omega0", [1.0 / 12.0, 0.3])
    def test_ar2_closed_form(self, omega0, modulus):
        phi = ar2_from_omega(omega0, modulus)
        gamma = autocovariance(SpectralModel(ar=phi, innovation_variance=0.8), 300)
        assert_close_to(gamma, ar2_closed_form(phi, 0.8, 300), 1e-12)

    def test_ma_closed_form_and_exact_zeros(self):
        theta = np.array([0.4, -0.3, 0.2])
        gamma = autocovariance(SpectralModel(ma=theta, innovation_variance=1.7), 10)
        full = np.concatenate([[1.0], theta])
        want = [1.7 * full[: 4 - h] @ full[h:] for h in range(4)]
        assert_close_to(gamma[:4], want, 1e-12)
        assert np.all(gamma[4:] == 0.0)

    def test_seasonal_arma_matches_fine_quadrature(self):
        model = SpectralModel(ar=(0.5,), ma=(0.4,), seasonal_ar=(0.6,), seasonal_ma=(0.3,),
                              season_period=12)
        exact = autocovariance(model, 60)
        # the 2^17-panel trapezoid rule, which resolves this density
        quadrature = irfft(model.density(np.linspace(0.0, 0.5, 2**17 + 1)), 2**18)[:61]
        assert_close_to(exact, quadrature, 1e-12)

    def test_batched_columns_equal_single_calls(self):
        rng = np.random.default_rng(6)
        phi = rng.uniform(-0.2, 0.2, (3, 5))
        theta = rng.uniform(-0.5, 0.5, (2, 5))
        sigma2 = rng.uniform(0.5, 2.0, 5)
        batch = arma_autocovariance(phi, theta, sigma2, 40)
        assert batch.shape == (41, 5)
        for j in range(5):
            assert np.array_equal(batch[:, j], arma_autocovariance(phi[:, j], theta[:, j],
                                                                    sigma2[j], 40))
            model = SpectralModel(ar=phi[:, j], ma=theta[:, j], innovation_variance=sigma2[j])
            assert np.array_equal(batch[:, j], autocovariance(model, 40))

    def test_argument_checks(self):
        with pytest.raises(ValueError, match="max_lag"):
            autocovariance(SpectralModel(ar=(0.5,)), -1)
        with pytest.raises(ModelInvariantError):
            arma_autocovariance([0.5], [], np.array([1.0, 0.0]), 4)

    @settings(max_examples=60, deadline=None)
    @given(phi2=COEFFICIENTS, u=COEFFICIENTS, sigma2=st.floats(0.1, 10.0))
    def test_random_causal_ar2(self, phi2, u, sigma2):
        # phi1 = u (1 - phi2) keeps (phi1, phi2) inside the causal triangle
        phi = (u * (1.0 - phi2), phi2)
        gamma = autocovariance(SpectralModel(ar=phi, innovation_variance=sigma2), 40)
        assert_close_to(gamma, yule_walker_gamma(phi, sigma2, 40), 1e-10)
        assert all(v > 0 for _, v in levinson(gamma))

    @settings(max_examples=60, deadline=None)
    @given(phi=COEFFICIENTS, theta=COEFFICIENTS, sigma2=st.floats(0.1, 10.0))
    def test_random_arma11(self, phi, theta, sigma2):
        model = SpectralModel(ar=(phi,), ma=(theta,), innovation_variance=sigma2)
        gamma = autocovariance(model, 40)
        assert_close_to(gamma, psi_weight_gamma(phi, theta, sigma2, 40), 1e-10)
        assert all(v > 0 for _, v in levinson(gamma))


class TestStateSpace:
    def test_seasonal_state_reproduces_the_autocovariances(self):
        # P is stationary under the transition, and x_t, the first component,
        # has Cov(x_{t+h}, x_t) = (T^h)_0. P_.0 = gamma(h)
        model = SpectralModel(ar=(0.5, -0.2), ma=(0.4,), seasonal_ar=(0.6,),
                              seasonal_ma=(0.3,), season_period=4, innovation_variance=1.7)
        phi, theta = -model.full_ar_poly()[1:], model.full_ma_poly()[1:]
        transition, noise, stationary = arma_state_space(phi, theta, 1.7)
        assert transition.shape == noise.shape == stationary.shape == (6, 6)
        assert_close_to((transition @ stationary @ transition.T + noise).ravel(),
                        stationary.ravel(), 1e-12)
        lagged = [np.linalg.matrix_power(transition, h)[0] @ stationary[:, 0] for h in range(31)]
        assert_close_to(lagged, autocovariance(model, 30), 1e-12)

    def test_batched_entries_equal_single_calls(self):
        rng = np.random.default_rng(7)
        phi, theta = rng.uniform(-0.2, 0.2, (2, 4)), rng.uniform(-0.5, 0.5, (3, 4))
        sigma2 = rng.uniform(0.5, 2.0, 4)
        batch = arma_state_space(phi, theta, sigma2)
        for j in range(4):
            for got, want in zip(batch, arma_state_space(phi[:, j], theta[:, j], sigma2[j])):
                assert np.array_equal(got[j], want)


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
        paths, ok = simulate_log_spectra(spectra, 300, seeds)
        assert paths.shape == (6, 300)
        raised = []
        for spectrum, seed, path, row_ok in zip(spectra, seeds, paths, ok):
            try:
                want = simulate(spectrum, 300, seed).values
            except ModelInvariantError as exc:
                raised.append(type(exc))
                assert not row_ok
                assert np.all(np.isnan(path))
            else:
                assert row_ok
                assert np.array_equal(path, want)
        assert raised == [ModelInvariantError, ModelInvariantError]

    def test_rows_do_not_depend_on_their_batch(self):
        rng = np.random.default_rng(2)
        spectra = [LogSpectrum(rng.standard_normal(5)) for _ in range(2 * models._CHUNK + 3)]
        seeds = [9 ^ r for r in range(len(spectra))]
        paths, ok = simulate_log_spectra(spectra, 64, seeds)
        assert ok.all()
        for r in (0, models._CHUNK - 1, models._CHUNK, len(spectra) - 1):
            alone, _ = simulate_log_spectra(spectra[r : r + 1], 64, seeds[r : r + 1])
            assert np.array_equal(alone[0], paths[r])


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


def ar1_density(w):
    return spectral_density(SpectralModel(ar=(0.8,)), w)


class TestCirculantEmbedding:
    @pytest.mark.parametrize("source,n", [
        (LogSpectrum(np.array([0.3, 1.2, -0.8, 0.5])), 40),
        # 2 * (n - 1) panels exceed QUAD_PANELS, so the embedding grows with n
        (ar1_density, 300),
    ])
    def test_covariance_of_linear_map_is_toeplitz_of_autocovariance(self, monkeypatch, source,
                                                                      n):
        # a small embedding, as the linear map is built from a 2m x 2m identity
        monkeypatch.setattr(models, "QUAD_PANELS", 128)
        gamma = autocovariance(source, n - 1)
        f = models._node_density(source, n - 1)
        normals = 2 * (len(f) - 1)
        # column k is the path the k-th unit normal gives; simulate is linear in its normals
        linear_map = models._circulant_paths(f, np.eye(normals), n).T
        cov = linear_map @ linear_map.T
        assert np.abs(cov - toeplitz(gamma)).max() <= 1e-12 * gamma[0]
        z = np.random.default_rng(5).standard_normal(normals)
        np.testing.assert_allclose(simulate(source, n, 5).values,
                                   linear_map @ z, rtol=0, atol=1e-12 * np.sqrt(gamma[0]))

    def test_trapezoid_autocovariance_matches_exact(self):
        # gamma~ differs from gamma by the aliased lags h + 2mk, negligible here
        coarse = autocovariance(ar1_density, 30)
        fine = autocovariance(SpectralModel(ar=(0.8,)), 30)
        np.testing.assert_allclose(coarse, fine, rtol=0, atol=1e-12 * fine[0])

    def test_replicate_rows_equal_simulate(self):
        source = LogSpectrum(np.array([0.1, -0.4, 0.2]))
        seeds = [3, 4, 5]
        paths = simulate_replicates(source, 50, seeds)
        for row, seed in zip(paths, seeds):
            assert np.array_equal(row, simulate(source, 50, seed).values)

    def test_non_positive_density_raises(self):
        with pytest.raises(ModelInvariantError):
            simulate(lambda w: np.cos(4 * np.pi * w), 10, 0)


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
