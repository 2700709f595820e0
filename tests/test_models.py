import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import irfft
from scipy.linalg import toeplitz

from mrspec import models
from mrspec.aliasing import fold
from mrspec.bench import random_process
from mrspec.cli import main
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
    basis_matrix,
    levinson,
    simpson_grid,
    simulate,
    simulate_log_spectra,
    simulate_replicates,
    spectral_density,
    subsample,
)
from mrspec.uncertainty import kolmogorov_variance


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

    @pytest.mark.parametrize("period", [1.5, True, 0, np.float64(12.0)])
    def test_season_period_must_be_an_integer(self, period):
        # 1.5 used to end in numpy's TypeError, and True was taken as 1
        with pytest.raises(ModelInvariantError,
                           match="season_period.*" + re.escape("got %r" % (period,))):
            SpectralModel(seasonal_ar=(0.5,), season_period=period)

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


class TestCallableSources:
    @pytest.mark.parametrize("source", [SpectralModel(ar=(0.5, -0.3), ma=(0.4,)),
                                        LogSpectrum(np.array([0.3, -1.2, 0.7]))])
    def test_call_is_density(self, source):
        omegas = np.linspace(0.0, 0.5, 101)
        assert source(omegas).tobytes() == source.density(omegas).tobytes()

    @pytest.mark.parametrize("call", [lambda: fold(None, 2, [0.1]),
                                      lambda: autocovariance(None, 3),
                                      lambda: kolmogorov_variance(None)])
    def test_source_that_is_not_callable_raises(self, call):
        with pytest.raises(TypeError):
            call()


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


@st.composite
def coefficient_matrices(draw):
    """(R, K) coefficient matrices, R in 0..12 and K in 1..12, of entries in +-3;
    some rows have an intercept of +-800, whose density under- or overflows."""
    r, k = draw(st.integers(0, 12)), draw(st.integers(1, 12))
    entries = draw(st.lists(st.floats(-3.0, 3.0), min_size=r * k, max_size=r * k))
    intercepts = draw(st.lists(st.sampled_from([None, -800.0, 800.0]), min_size=r, max_size=r))
    matrix = np.array(entries).reshape(r, k)
    for row, intercept in zip(matrix, intercepts):
        if intercept is not None:
            row[0] = intercept
    return matrix


def picked_batch():
    """Rows of scale 0.3 to 6, then two whose densities underflow to 0 and overflow to inf."""
    rows = np.random.default_rng(1).standard_normal((4, 8)) * np.array([[0.3], [1.0], [6.0], [6.0]])
    extremes = np.zeros((2, 8))
    extremes[:, 0] = (-800.0, 800.0)
    return np.vstack([rows, extremes])


class TestSimulateLogSpectra:
    @settings(max_examples=60, deadline=None)
    @given(coefficients=coefficient_matrices(), n=st.integers(1, 600))
    @example(coefficients=picked_batch(), n=300)
    def test_rows_equal_simulate_or_fail_where_it_raises(self, coefficients, n):
        # up to 12 rows span two chunks at every n here; each row also equals
        # its batch of one, so no row depends on the others
        seeds = [9 ^ r for r in range(len(coefficients))]
        paths = simulate_log_spectra(coefficients, n, seeds)
        assert paths.shape == (len(coefficients), n)
        for r, seed in enumerate(seeds):
            alone = simulate_log_spectra(coefficients[r : r + 1], n, [seed])
            assert np.array_equal(alone[0], paths[r], equal_nan=True)
            try:
                want = simulate(LogSpectrum(coefficients[r]), n, seed).values
            except ModelInvariantError:
                assert np.all(np.isnan(paths[r]))
            else:
                assert np.all(np.isfinite(paths[r]))
                assert np.array_equal(paths[r], want)

    def test_rows_do_not_depend_on_their_batch(self):
        rng = np.random.default_rng(2)
        chunk = chunk_rows()
        coefficients = rng.standard_normal((2 * chunk + 3, 5))
        seeds = [9 ^ r for r in range(len(coefficients))]
        paths = simulate_log_spectra(coefficients, 64, seeds)
        assert np.all(np.isfinite(paths))
        for r in (0, chunk - 1, chunk, len(coefficients) - 1):
            alone = simulate_log_spectra(coefficients[r : r + 1], 64, seeds[r : r + 1])
            assert np.array_equal(alone[0], paths[r])

    @pytest.mark.parametrize("count", [2, 4])
    def test_spectra_and_seeds_of_unequal_length_raise(self, count):
        # a seed short dropped a spectrum, a seed over was an IndexError
        with pytest.raises(ValueError, match=r"got shape \(3, 2\) for %d seeds" % count):
            simulate_log_spectra(np.zeros((3, 2)), 10, list(range(count)))

    @pytest.mark.parametrize("coefficients", [
        np.zeros(2), np.zeros((2, 0)), [[0.1, np.nan], [0.0, 0.0]], [[0.1, 0.2], [np.inf, 0.0]],
        [[0.1], [0.1, 0.2]],
    ], ids=["1-d", "no-columns", "nan", "inf", "ragged"])
    def test_bad_coefficient_matrix_raises(self, coefficients):
        # the ragged list fails in numpy's own conversion
        with pytest.raises(ValueError, match="coefficients must be a finite|inhomogeneous"):
            simulate_log_spectra(coefficients, 10, [0, 1])

    def test_no_spectra_give_no_rows(self):
        assert simulate_log_spectra(np.empty((0, 3)), 10, []).shape == (0, 10)
        assert simulate_replicates(LogSpectrum(np.zeros(2)), 10, []).shape == (0, 10)


def chunk_rows(n=64):
    """Rows per chunk of the circulant embedding of a length-n path."""
    return len(next(models._chunks(10**6, 2 * len(models._autocovariance_nodes(n - 1)) - 2)))


class TestCirculantMemory:
    @pytest.mark.parametrize("simulate_rows", [
        simulate_log_spectra,
        lambda coefficients, n, seeds: simulate_replicates(LogSpectrum(coefficients[0]), n, seeds),
    ], ids=["simulate_log_spectra", "simulate_replicates"])
    def test_peak_grows_with_replicates_only_by_the_paths(self, traced_peak, simulate_rows):
        # the normals and FFTs go a chunk of rows at a time, so from one chunk
        # to four only the (R, n) paths grow; the seeds are below 2 KB
        n = 896
        chunk = chunk_rows(n)
        coefficients = np.tile([0.2, -0.5, 0.3], (4 * chunk, 1))
        seeds = list(range(4 * chunk))

        def peak(rows):
            return traced_peak(lambda: simulate_rows(coefficients[:rows], n, seeds[:rows]))

        assert peak(4 * chunk) - peak(chunk) <= 3 * chunk * n * 8 + 2048


class TestSimulateReplicates:
    def test_rows_equal_simulate(self):
        model = SpectralModel(ar=ar2_from_omega(1.0 / 12.0, 0.9))
        seeds = [7 ^ r for r in range(6)]
        paths = simulate_replicates(model, 40, seeds)
        assert paths.shape == (6, 40)
        for row, seed in zip(paths, seeds):
            assert np.array_equal(row, simulate(model, 40, seed).values)

    def test_multi_block_rows_equal_simulate(self):
        # 200 steps of a seasonal model (r = 13) take several block products
        model = SpectralModel(ar=(0.5,), ma=(-0.3,), seasonal_ar=(0.6,), season_period=12)
        seeds = [11 * r + 2 for r in range(6)]
        paths = simulate_replicates(model, 200, seeds)
        assert paths.shape == (6, 200)
        for row, seed in zip(paths, seeds):
            assert np.array_equal(row, simulate(model, 200, seed).values)

    def test_peak_holds_one_copy_of_the_normals(self, traced_peak):
        # 200 AR(2) paths of 2,000 steps take 3.2 MB; the (n + r - 1, R) window
        # fills a chunk of seeds at a time, where an (R, n + r - 1) matrix of
        # normals beside its transposed copy peaked at 6.4 MB
        model = SpectralModel(ar=ar2_from_omega(1.0 / 12.0, 0.9))
        simulate_replicates(model, 2, [0])  # imports what seeding needs outside the trace
        assert traced_peak(lambda: simulate_replicates(model, 2000, list(range(200)))) < 4.5e6

    def test_non_positive_pivot_raises(self, monkeypatch, tmp_path):
        real = models.arma_state_space

        def indefinite(*args):
            # Cov(x_t, x^_{t+1|t}) > Var(x_t): the stationary state variance has
            # eigenvalues 11 and -9
            transition, noise, stationary = real(*args)
            stationary[...] = [[1.0, 10.0], [10.0, 1.0]]
            return transition, noise, stationary

        monkeypatch.setattr(models, "arma_state_space", indefinite)
        model = SpectralModel(ar=(0.5, -0.2))
        with pytest.raises(NotPositiveDefiniteError, match="eigenvalue -9") as err:
            simulate(model, 5, 0)
        assert err.value.smallest_pivot == pytest.approx(-9.0, rel=1e-12)
        with pytest.raises(NotPositiveDefiniteError, match="eigenvalue -9"):
            simulate_replicates(model, 5, [0, 1])
        config = tmp_path / "sim.json"
        config.write_text('{"model": {"ar": [0.5, -0.2], "sigma2": 1.0}, "n": 5}')
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "run")]) == 3


def state_space(model):
    return arma_state_space(-model.full_ar_poly()[1:], model.full_ma_poly()[1:],
                            model.innovation_variance)


def linear_map(model, n):
    """The (n, n + r - 1) matrix A with path = A z for the normals z of a
    SpectralModel path: column k is the path from the k-th unit normal."""
    chain = state_space(model)
    return models._state_paths(*chain, np.eye(n + len(chain[0]) - 1)).T


def assert_exact_paths(model, n):
    gamma = autocovariance(model, n - 1)
    a = linear_map(model, n)
    assert np.abs(a @ a.T - toeplitz(gamma)).max() <= 1e-12 * gamma[0]
    # simulate is that linear map of the normals drawn from its seed
    z = np.random.default_rng(5).standard_normal(a.shape[1])
    np.testing.assert_allclose(simulate(model, n, 5).values, a @ z,
                               rtol=0, atol=1e-12 * np.sqrt(gamma[0]))


# the range of the likelihood's random SARMA models: at +-0.95, near-cancelling
# factors can put the computed gamma 1e-11 of gamma(0) off the true one, and
# by n = 50 these paths come within 10% of the bound (a Durbin-Levinson
# colouring of the same gamma reaches 9e-12)
SARMA_COEFFICIENTS = st.floats(-0.9, 0.9)


@st.composite
def sarma_models(draw):
    """Causal, invertible SARMA models; seasonal factors at periods 1-12 give
    states of dimension up to 14."""
    phi2, u = draw(SARMA_COEFFICIENTS), draw(SARMA_COEFFICIENTS)
    return SpectralModel(ar=(u * (1.0 - phi2), phi2),
                         ma=draw(st.lists(SARMA_COEFFICIENTS, max_size=1)),
                         seasonal_ar=draw(st.lists(SARMA_COEFFICIENTS, max_size=1)),
                         seasonal_ma=draw(st.lists(SARMA_COEFFICIENTS, max_size=1)),
                         season_period=draw(st.integers(1, 12)),
                         innovation_variance=draw(st.floats(0.1, 10.0)))


def step_recursion(chain, z):
    """The chain (T, Q, P) of arma_state_space run one step at a time on the
    normals z: s_0 = P^(1/2) z_{<r}, s_{t+1} = T s_t + sigma psi z_{r+t}, x_t = (s_t)_0."""
    transition, noise, stationary = chain
    r = len(transition)
    values, vectors = np.linalg.eigh(stationary)
    state = (vectors * np.sqrt(np.maximum(values, 0.0))) @ z[:r]
    gain = noise[:, 0] / np.sqrt(noise[0, 0])
    path = [state[0]]
    for innovation in z[r:]:
        state = transition @ state + gain * innovation
        path.append(state[0])
    return np.array(path)


# the block products of _state_paths sum in another order than the step
# recursion: 2e-14 of the standard deviation at AR(2) modulus 0.999 over
# 5,000 steps, 6e-15 for the random SARMA models
STEP_RECURSION_TOL = 1e-12


def assert_step_recursion(model, n, seed):
    chain = state_space(model)
    z = np.random.default_rng(seed).standard_normal(n + len(chain[0]) - 1)
    got = models._state_paths(*chain, z[:, None].copy())[0]
    np.testing.assert_allclose(got, step_recursion(chain, z), rtol=0,
                               atol=STEP_RECURSION_TOL * np.sqrt(autocovariance(model, 0)[0]))


class TestStatePaths:
    @settings(max_examples=60, deadline=None)
    @given(model=sarma_models(), n=st.integers(1, 50))
    def test_covariance_of_linear_map_is_toeplitz_of_autocovariance(self, model, n):
        assert_exact_paths(model, n)

    @settings(max_examples=40, deadline=None)
    @given(model=sarma_models(), n=st.sampled_from([63, 64, 65, 200]),
           seed=st.integers(0, 2**32 - 1))
    def test_blocks_match_the_step_recursion(self, model, n, seed):
        assert_step_recursion(model, n, seed)

    @pytest.mark.parametrize("model", [
        SpectralModel(ar=ar2_from_omega(1.0 / 12.0, 0.999)),
        SpectralModel(seasonal_ar=(0.99,), season_period=12),
    ], ids=["ar2-0.999", "sar-0.99-12"])
    def test_near_unit_root_blocks_match_the_step_recursion(self, model):
        # T^B near the unit circle carries its round-off through 157 blocks
        assert_step_recursion(model, 5000, 11)

    def test_shorter_path_is_a_bitwise_prefix(self):
        # across block edges: the last block of a shorter path is zero-padded
        model = SpectralModel(ar=(0.5, -0.2), ma=(0.3,), seasonal_ar=(0.6,), season_period=12)
        block = models._BLOCK
        longest = simulate(model, 5 * block + 7, 3).values
        for n in (1, block - 1, block, block + 1, 2 * block, 2 * block + 1, 4 * block + 5):
            assert np.array_equal(simulate(model, n, 3).values, longest[:n]), n

    @pytest.mark.parametrize("model", [
        # x^_{t+1|t} = 0.5 x_t: the state variance has a zero eigenvalue up to round-off
        SpectralModel(ar=(0.5, 0.0)),
        # white noise with a cancelled root: x^_{t+1|t} = 0, an exact zero eigenvalue
        SpectralModel(ar=(0.5,), ma=(-0.5,)),
    ])
    def test_singular_stationary_variance(self, model):
        # a plain Cholesky factorisation of such a variance fails
        values = np.linalg.eigvalsh(state_space(model)[2])
        assert abs(values[0]) <= 1e-15 * values[-1]
        assert_exact_paths(model, 30)


def ar1_density(w):
    return spectral_density(SpectralModel(ar=(0.8,)), w)


def embedding(source, n):
    """The eigenvalues at j / (2M), j = 0..M, of the circulant embedding that a
    length-n path of ``source`` colours its 2M normals with."""
    f = models._node_density(source, n - 1)
    [(_, eigen)] = models._min_embeddings(f[None], n)
    return eigen[0]


class TestCirculantEmbedding:
    @pytest.mark.parametrize("source,n,size", [
        (LogSpectrum(np.array([0.3, 1.2, -0.8, 0.5])), 40, 128),
        # 2 * (n - 1) panels exceed QUAD_PANELS, so the nodes grow with n, to
        # m = 598, and the embedding 2M = 1024 lies below 2m
        (ar1_density, 300, 1024),
        # a prior draw whose least embedding, 2M = 64, has a negative eigenvalue
        (random_process(2), 32, 128),
    ], ids=["source0-40", "ar1_density-300", "doubled-32"])
    def test_covariance_of_linear_map_is_toeplitz_of_autocovariance(self, monkeypatch, source,
                                                                      n, size):
        # few panels, so that a path of 300 outgrows them; the linear map is
        # built from a 2M x 2M identity
        monkeypatch.setattr(models, "QUAD_PANELS", 128)
        gamma = autocovariance(source, n - 1)
        eigen = embedding(source, n)
        normals = 2 * (len(eigen) - 1)
        assert normals == size
        # column k is the path the k-th unit normal gives; simulate is linear in its normals
        linear_map = models._circulant_paths(eigen, np.eye(normals), n).T
        cov = linear_map @ linear_map.T
        assert np.abs(cov - toeplitz(gamma)).max() <= 1e-12 * gamma[0]
        z = np.random.default_rng(5).standard_normal(normals)
        np.testing.assert_allclose(simulate(source, n, 5).values,
                                   linear_map @ z, rtol=0, atol=1e-12 * np.sqrt(gamma[0]))
        if isinstance(source, LogSpectrum):
            # simulate_log_spectra takes the same embedding for the row in a batch
            # whose other row, white noise, fits the least one
            batch = np.stack([np.zeros(source.size), source.coefficients])
            row = simulate_log_spectra(batch, n, [4, 5])[1]
            assert np.array_equal(row, simulate(source, n, 5).values)

    @settings(max_examples=60, deadline=None)
    @given(coefficients=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12),
           n=st.integers(1, 3000))
    def test_least_embedding_is_exact_and_non_negative(self, coefficients, n):
        source = LogSpectrum(np.array(coefficients))
        f = models._node_density(source, n - 1)
        m = len(f) - 1
        gamma = np.fft.irfft(f, 2 * m)
        eigen = embedding(source, n)
        size = 2 * (len(eigen) - 1)
        # a power of two from 2(n - 1) up, or the 2m nodes themselves when every
        # power of two below 2m fails
        assert 2 * (n - 1) <= size <= 2 * m
        assert size == 2 * m or size & (size - 1) == 0
        assert np.all(eigen >= 0)
        lags = np.fft.irfft(eigen, size)[:n]
        assert np.abs(lags - gamma[:n]).max() <= 1e-12 * gamma[0]

    def test_trapezoid_autocovariance_matches_exact(self):
        # gamma~ differs from gamma by the aliased lags h + 2mk, negligible here
        coarse = autocovariance(ar1_density, 30)
        fine = autocovariance(SpectralModel(ar=(0.8,)), 30)
        np.testing.assert_allclose(coarse, fine, rtol=0, atol=1e-12 * fine[0])

    def test_replicate_rows_equal_simulate(self):
        # over more than two chunks of rows
        source = LogSpectrum(np.array([0.1, -0.4, 0.2]))
        seeds = list(range(3, 2 * chunk_rows(50) + 6))
        paths = simulate_replicates(source, 50, seeds)
        for row, seed in zip(paths, seeds):
            assert np.array_equal(row, simulate(source, 50, seed).values)

    def test_one_density_takes_one_embedding(self, monkeypatch):
        # the embedding depends on the density alone, so over more than two
        # chunks of seeds it is still taken once
        real, calls = models._min_embeddings, []

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(models, "_min_embeddings", spy)
        seeds = list(range(2 * chunk_rows(896) + 6))
        simulate_replicates(LogSpectrum(np.array([0.1, -0.4, 0.2])), 896, seeds)
        assert len(calls) == 1

    def test_node_basis_equals_basis_matrix_and_is_read_only(self):
        nodes = models._autocovariance_nodes(99)
        basis = models._node_basis(len(nodes), 5)
        assert basis.tobytes() == basis_matrix(nodes, 5).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            basis[0, 0] = 1.0

    def test_node_basis_is_built_once_per_node_count(self, monkeypatch):
        # every n <= 2049 has the 4097 nodes of QUAD_PANELS, so two calls share
        # one basis; a path of 3000 points has 5999 nodes and a basis of its own
        real, built = models.basis_matrix, []

        def spy(omegas, size):
            built.append(len(omegas))
            return real(omegas, size)

        monkeypatch.setattr(models, "basis_matrix", spy)
        models._node_basis.cache_clear()
        coefficients = np.array([[0.2, -0.5, 0.3], [0.1, 0.4, -0.2]])
        simulate_log_spectra(coefficients, 64, [1, 2])
        simulate_log_spectra(coefficients[:1], 896, [3])
        assert built == [models.QUAD_PANELS + 1]
        paths = simulate_log_spectra(coefficients, 3000, [4, 5])
        assert built == [models.QUAD_PANELS + 1, 2 * (3000 - 1) + 1]
        monkeypatch.undo()
        for row, seed, path in zip(coefficients, [4, 5], paths):
            assert np.array_equal(path, simulate(LogSpectrum(row), 3000, seed).values)

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
