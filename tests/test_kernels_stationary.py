"""Tests for the Matérn-5/2 kernel: values, gradients, PSD properties.

Every generic check runs on the isotropic and the ARD kernel.  The kernel
evaluates the same values along three paths with different arithmetic
(``__call__``, the fused workspace ``gram`` and the cached ``cross``), so
the value checks cover all three.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import Matern52
from tests.gp_reference import matern52_gram_gradients


def make_kernel(name, dim, variance=1.0):
    """The isotropic ("Matern52") or ARD ("Matern52-ard") kernel."""
    if name == "Matern52":
        return Matern52(dim=dim, variance=variance, lengthscale=0.8)
    lengthscale = np.linspace(0.5, 2.0, dim)
    return Matern52(dim=dim, variance=variance, lengthscale=lengthscale, ard=True)


KERNELS = pytest.mark.parametrize("name", ["Matern52", "Matern52-ard"])


def numeric_gradients(kernel, X, eps=1e-6):
    """Central-difference gradients of the Gram matrix w.r.t. theta."""
    theta0 = kernel.theta.copy()
    grads = []
    for i in range(theta0.shape[0]):
        tp = theta0.copy()
        tp[i] += eps
        kernel.theta = tp
        kp = kernel(X)
        tm = theta0.copy()
        tm[i] -= eps
        kernel.theta = tm
        km = kernel(X)
        grads.append((kp - km) / (2 * eps))
    kernel.theta = theta0
    return grads


class TestKernelValues:
    def test_value_at_zero_distance_is_variance(self):
        k = Matern52(variance=2.5)
        x = np.array([[0.3, -0.2]])
        assert k(x)[0, 0] == pytest.approx(2.5)

    def test_known_value(self):
        """``k(r=1) = (1 + √5 + 5/3) e^{−√5}`` on every evaluation path."""
        k = Matern52(lengthscale=2.0)
        X = np.array([[0.0], [2.0]])  # r = 2 / 2 = 1
        expected = (1.0 + np.sqrt(5.0) + 5.0 / 3.0) * np.exp(-np.sqrt(5.0))
        ws = k.make_workspace(X)
        assert k(X)[0, 1] == pytest.approx(expected, rel=1e-14)
        assert k.gram(ws)[0, 1] == pytest.approx(expected, rel=1e-14)
        assert k.cross(ws, X[1:])[0, 0] == pytest.approx(expected, rel=1e-14)

    @KERNELS
    def test_symmetry(self, name, rng):
        k = make_kernel(name, 3)
        X = rng.uniform(-1, 1, (10, 3))
        np.testing.assert_allclose(k(X), k(X).T, atol=1e-12)
        K = k.gram(k.make_workspace(X))
        np.testing.assert_allclose(K, K.T, atol=1e-12)

    @KERNELS
    def test_diag_matches_gram_diagonal(self, name, rng):
        k = make_kernel(name, 2, variance=1.7)
        X = rng.uniform(-1, 1, (8, 2))
        np.testing.assert_allclose(k.diag(X), np.diag(k(X)), atol=1e-12)
        np.testing.assert_allclose(
            k.diag(X), np.diag(k.gram(k.make_workspace(X))), atol=1e-12
        )

    @KERNELS
    def test_cross_gram_shape(self, name, rng):
        k = make_kernel(name, 2)
        X = rng.uniform(-1, 1, (5, 2))
        Z = rng.uniform(-1, 1, (7, 2))
        assert k(X, Z).shape == (5, 7)
        cross = k.cross(k.make_workspace(X), Z)
        np.testing.assert_allclose(cross, k(X, Z), atol=1e-12)

    @KERNELS
    def test_positive_semidefinite(self, name, rng):
        k = make_kernel(name, 4)
        X = rng.uniform(-2, 2, (20, 4))
        assert np.linalg.eigvalsh(k(X)).min() > -1e-9
        assert np.linalg.eigvalsh(k.gram(k.make_workspace(X))).min() > -1e-9


class TestARD:
    def test_requires_dim(self):
        with pytest.raises(ValueError, match="dim"):
            Matern52(ard=True)

    def test_vector_lengthscale(self):
        k = Matern52(dim=3, lengthscale=[0.5, 1.0, 2.0], ard=True)
        assert k.lengthscales.shape == (3,)

    def test_scalar_broadcast(self):
        k = Matern52(dim=3, lengthscale=0.5, ard=True)
        np.testing.assert_array_equal(k.lengthscales, [0.5, 0.5, 0.5])

    def test_irrelevant_dim_ignored_with_large_lengthscale(self, rng):
        k = Matern52(dim=2, lengthscale=[1.0, 1e3], ard=True)
        X = rng.uniform(-1, 1, (6, 2))
        Y = X.copy()
        Y[:, 1] = rng.uniform(-1, 1, 6)  # perturb the irrelevant dim
        np.testing.assert_allclose(k(X), k(Y), atol=1e-4)

    def test_wrong_lengthscale_count(self):
        with pytest.raises(ValueError):
            Matern52(dim=3, lengthscale=[1.0, 2.0], ard=True)


class TestTheta:
    @KERNELS
    def test_roundtrip(self, name):
        k = make_kernel(name, 2, variance=2.0)
        theta = k.theta.copy()
        k.theta = theta
        np.testing.assert_allclose(k.theta, theta)

    def test_theta_sets_values(self):
        k = Matern52()
        k.theta = np.array([np.log(4.0), np.log(0.5)])
        assert k.variance == pytest.approx(4.0)
        assert k.lengthscales[0] == pytest.approx(0.5)

    def test_wrong_shape_rejected(self):
        k = Matern52()
        with pytest.raises(ValueError):
            k.theta = np.zeros(5)

    @KERNELS
    def test_bounds_shape(self, name):
        k = make_kernel(name, 3)
        bounds = k.theta_bounds()
        assert bounds.shape == (k.n_params, 2)
        assert np.all(bounds[:, 0] < bounds[:, 1])


class TestGradients:
    @staticmethod
    def assert_gradients_match_numeric(k, X, rng):
        """The analytic ``∂K/∂θ``, both as the test reference builds it and
        as the workspace contracts it, against central differences."""
        numeric = numeric_gradients(k, X)
        reference = matern52_gram_gradients(k, X)
        assert len(reference) == len(numeric) == k.n_params
        for a, n in zip(reference, numeric):
            np.testing.assert_allclose(a, n, atol=1e-5)
        n = X.shape[0]
        A = rng.standard_normal((n, n))
        inner = A + A.T
        contracted = k.gradient_inner_products(k.make_workspace(X), inner)
        expected = [0.5 * np.sum(inner * dK) for dK in numeric]
        np.testing.assert_allclose(contracted, expected, atol=1e-5)

    @pytest.mark.parametrize("cls", [Matern52])
    def test_gradient_matches_numeric_iso(self, cls, rng):
        k = cls(dim=3, variance=1.5, lengthscale=0.8)
        self.assert_gradients_match_numeric(k, rng.uniform(-1, 1, (7, 3)), rng)

    @pytest.mark.parametrize("cls", [Matern52])
    def test_gradient_matches_numeric_ard(self, cls, rng):
        k = cls(dim=3, variance=1.5, lengthscale=[0.5, 1.0, 2.0], ard=True)
        self.assert_gradients_match_numeric(k, rng.uniform(-1, 1, (7, 3)), rng)

    @KERNELS
    def test_gradient_after_gram_matches_fused(self, name, rng):
        """A workspace that computed ``gram`` first derives ``dg`` from the
        cached correlation; it must agree with the fused g+dg sweep."""
        k = make_kernel(name, 3)
        X = rng.uniform(-1, 1, (9, 3))
        A = rng.standard_normal((9, 9))
        inner = A + A.T
        lazy = k.make_workspace(X)
        k.gram(lazy)
        fused = k.gradient_inner_products(k.make_workspace(X), inner)
        np.testing.assert_allclose(
            k.gradient_inner_products(lazy, inner), fused, rtol=1e-12
        )

    @KERNELS
    def test_gradient_finite_at_zero_distance(self, name):
        k = make_kernel(name, 2)
        X = np.array([[0.5, -0.1], [0.5, -0.1]])  # duplicate points
        for dK in matern52_gram_gradients(k, X):
            assert np.all(np.isfinite(dK))
        grads = k.gradient_inner_products(k.make_workspace(X), np.ones((2, 2)))
        assert np.all(np.isfinite(grads))


@settings(max_examples=25, deadline=None)
@given(
    lengthscales=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=2),
    ard=st.booleans(),
    variance=st.floats(0.01, 100.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_gram_psd_and_bounded(lengthscales, ard, variance, seed):
    """Any Matérn-5/2 Gram matrix is PSD with entries bounded by variance."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, (12, 2))
    lengthscale = np.array(lengthscales) if ard else lengthscales[0]
    k = Matern52(dim=2, variance=variance, lengthscale=lengthscale, ard=ard)
    for K in (k(X), k.gram(k.make_workspace(X))):
        assert np.all(K <= variance + 1e-9)
        assert np.linalg.eigvalsh(K).min() > -1e-7 * variance
