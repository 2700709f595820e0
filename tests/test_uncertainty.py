"""Tests for principal-component fans, sparse quadrature, and the
one-step prediction variance."""

import itertools

import numpy as np
import pytest

from mrspec.beliefs import BeliefState
from mrspec.models import LogSpectrum, SpectralModel, ar2_from_omega
from mrspec.uncertainty import (
    FAN_QUANTILES,
    QuadratureGrid,
    kolmogorov_variance,
    pc_decomposition,
    pc_fan,
    propagate,
    sparse_grid,
)


class TestPCDecomposition:
    def test_descending_and_orthonormal(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6))
        state = BeliefState(np.zeros(6), a @ a.T)
        d = pc_decomposition(state)
        assert np.all(np.diff(d.eigenvalues) <= 0)
        assert np.allclose(d.eigenvectors.T @ d.eigenvectors, np.eye(6), atol=1e-12)

    def test_reconstructs_variance(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        var = a @ a.T
        state = BeliefState(np.zeros(5), var)
        d = pc_decomposition(state)
        recon = (d.eigenvectors * d.eigenvalues) @ d.eigenvectors.T
        assert np.allclose(recon, state.variance, atol=1e-10)


class TestPCFan:
    def test_shape_and_center_curve(self):
        state = BeliefState(np.array([1.0, 0.5]), np.diag([0.4, 0.1]))
        grid = np.linspace(0.0, 0.5, 11)
        fan = pc_fan(state, 0, grid)
        assert fan.shape == (9, 11)
        # the median quantile is zero: middle curve is the exponentiated mean
        mean_curve = np.exp(state.mean_logspectrum().evaluate(grid))
        assert np.allclose(fan[4], mean_curve, atol=1e-12)

    def test_quantiles_are_deciles(self):
        from scipy.stats import norm

        assert np.array_equal(FAN_QUANTILES, norm.ppf(np.arange(1, 10) / 10.0))
        assert np.allclose(FAN_QUANTILES, -FAN_QUANTILES[::-1])

    def test_fan_monotone_pointwise(self):
        # along a single component the curves are exp(mean + q * g) with g
        # fixed, so at every grid point they are monotone in the quantile
        state = BeliefState(np.zeros(3), np.diag([1.0, 0.3, 0.1]))
        grid = np.linspace(0.0, 0.5, 21)
        fan = pc_fan(state, 0, grid)
        diffs = np.diff(fan, axis=0)
        col_sign = np.sign(diffs[0])
        assert np.all(np.sign(diffs) == col_sign)

    def test_rejects_null_component(self):
        state = BeliefState(np.zeros(3), np.diag([1.0, 0.5, 0.0]))
        with pytest.raises(ValueError):
            pc_fan(state, 2, np.array([0.1]))


class TestSparseGrid:
    def test_weights_sum_to_one(self):
        for d, level in itertools.product((1, 2, 4), (1, 2, 3)):
            grid = sparse_grid(d, level)
            assert grid.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert grid.nodes.shape == (len(grid.weights), d)

    def test_level_one_is_single_node(self):
        grid = sparse_grid(3, 1)
        assert len(grid.weights) == 1
        assert np.allclose(grid.nodes, 0.0)

    def test_polynomial_exactness(self):
        # exact for all monomials of total degree <= 2 * level - 1 under the
        # standard normal: odd moments vanish, E x^2 = 1, E x^4 = 3
        grid = sparse_grid(3, 3)
        assert grid.integrate(lambda x: 1.0) == pytest.approx(1.0, abs=1e-12)
        assert grid.integrate(lambda x: x[0]) == pytest.approx(0.0, abs=1e-10)
        assert grid.integrate(lambda x: x[1] ** 2) == pytest.approx(1.0, abs=1e-10)
        assert grid.integrate(lambda x: x[2] ** 4) == pytest.approx(3.0, abs=1e-9)
        assert grid.integrate(lambda x: x[0] ** 2 * x[1] ** 2) == pytest.approx(1.0, abs=1e-9)
        assert grid.integrate(lambda x: x[0] ** 3 * x[1]) == pytest.approx(0.0, abs=1e-9)

    def test_fewer_nodes_than_tensor_product(self):
        grid = sparse_grid(4, 3)
        assert len(grid.weights) < 3**4

    def test_deterministic_ordering(self):
        g1 = sparse_grid(2, 3)
        g2 = sparse_grid(2, 3)
        assert np.array_equal(g1.nodes, g2.nodes)
        assert np.array_equal(g1.weights, g2.weights)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sparse_grid(0, 2)
        with pytest.raises(ValueError):
            sparse_grid(2, 6)


class TestPropagate:
    def test_linear_functional_is_mean(self):
        # expectation of a linear map of beta is the map at the prior mean
        state = BeliefState(np.array([0.7, -0.2, 0.1]), np.diag([0.3, 0.2, 0.1]))
        grid_point = np.array([0.2])
        value = propagate(state, 3, 2, lambda ls: float(ls.evaluate(grid_point)[0]))
        want = float(state.mean_logspectrum().evaluate(grid_point)[0])
        assert value == pytest.approx(want, abs=1e-10)

    def test_quadratic_functional_adds_variance(self):
        # E[(beta0)^2] = mean^2 + var for the intercept coefficient
        state = BeliefState(np.array([0.5, 0.0]), np.diag([0.4, 0.0000001]))
        value = propagate(state, 2, 2, lambda ls: float(ls.coefficients[0]) ** 2)
        assert value == pytest.approx(0.5**2 + 0.4, abs=1e-8)

    def test_lognormal_expectation(self):
        # E exp(beta0) = exp(mu + var/2); needs level high enough to track
        # the exponential closely
        state = BeliefState(np.array([0.3]), np.array([[0.2]]))
        value = propagate(state, 1, 5, lambda ls: float(np.exp(ls.coefficients[0])))
        assert value == pytest.approx(np.exp(0.3 + 0.1), rel=1e-4)

    def test_rejects_d_too_large(self):
        state = BeliefState(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            propagate(state, 3, 2, lambda ls: 0.0)

    def test_wraps_functional_failure(self):
        state = BeliefState(np.zeros(2), np.eye(2))

        def bad(ls):
            raise FloatingPointError("boom")

        with pytest.raises(ArithmeticError, match="node 0"):
            propagate(state, 2, 2, bad)


class TestKolmogorovVariance:
    def test_white_noise(self):
        assert kolmogorov_variance(SpectralModel(innovation_variance=2.5)) == (
            pytest.approx(2.5, abs=1e-9)
        )

    def test_ar_models_recover_innovation_variance(self):
        # Kolmogorov's formula: the one-step prediction variance of any
        # finite AR/MA model is its innovation variance
        for model in (
            SpectralModel(ar=(0.6,)),
            SpectralModel(ar=(0.5, -0.3)),
            SpectralModel(ma=(0.4,), innovation_variance=1.7),
        ):
            got = kolmogorov_variance(model)
            assert got == pytest.approx(model.innovation_variance, abs=1e-6)

    def test_intercept_only_logspectrum(self):
        # cosine terms integrate to zero over [0, 1/2]
        ls = LogSpectrum(np.array([0.8, 0.5, -0.3]))
        assert kolmogorov_variance(ls) == pytest.approx(np.exp(2 * 0.8 * 0.5), abs=1e-9)

    def test_closed_forms_are_exact(self):
        # AR(2) at modulus 0.999 with an MA term: Simpson quadrature was off
        # by 4.4e-6 relative here
        model = SpectralModel(ar=ar2_from_omega(0.1, 0.999), ma=(0.5,), innovation_variance=2.0)
        assert kolmogorov_variance(model) == 2.0
        assert kolmogorov_variance(LogSpectrum(np.array([0.8, 0.5, -0.3]))) == np.exp(0.8)

    @pytest.mark.parametrize("density", [lambda w: np.cos(4 * np.pi * w), lambda w: 0.0 * w])
    def test_non_positive_callable_raises_without_warning(self, density):
        with pytest.raises(ValueError, match="finite"):
            kolmogorov_variance(density)

    def test_callable_uses_quadrature(self):
        model = SpectralModel(ar=(0.5, -0.3), ma=(0.4,), innovation_variance=1.7)
        assert kolmogorov_variance(model.density) == pytest.approx(1.7, rel=1e-9)


class TestQuadratureGridIntegrate:
    def test_integrate_matches_dot_product(self):
        grid = QuadratureGrid(np.array([[1.0], [2.0]]), np.array([0.5, 0.5]))
        assert grid.integrate(lambda x: x[0]) == pytest.approx(1.5)

    def test_sums_match_the_node_loop(self):
        # the node-by-node sums that the weights @ values products replace;
        # only the summation order differs
        grid = sparse_grid(3, 4)
        func = lambda x: float(np.exp(0.3 * x[0] - 0.2 * x[1] + 0.1 * x[2] ** 2))
        loop = sum(w * func(x) for w, x in zip(grid.weights, grid.nodes))
        assert grid.integrate(func) == pytest.approx(loop, rel=1e-13)
        state = BeliefState(np.array([0.2, -0.1, 0.3]), np.diag([0.3, 0.2, 0.1]))
        decomp = pc_decomposition(state)
        loadings = decomp.eigenvectors * np.sqrt(decomp.eigenvalues)
        loop = sum(w * kolmogorov_variance(LogSpectrum(state.mean + loadings @ x))
                   for w, x in zip(grid.weights, grid.nodes))
        assert propagate(state, 3, 4, kolmogorov_variance) == pytest.approx(loop, rel=1e-13)
