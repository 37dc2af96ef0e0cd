"""Tests for random embedding and Algorithm 2 dimension selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding import (
    RandomEmbedding,
    clip_to_box,
    pick_flat_dimension,
    select_embedding_dimension,
)
from repro.synthetic import EmbeddedFunction, sphere


class TestRandomEmbedding:
    def test_matrix_shape(self):
        emb = RandomEmbedding(10, 3, seed=0)
        assert emb.matrix.shape == (10, 3)

    def test_z_bounds_sqrt_d(self):
        emb = RandomEmbedding(10, 4, seed=0)
        bounds = emb.z_bounds()
        np.testing.assert_allclose(bounds[:, 0], -2.0)
        np.testing.assert_allclose(bounds[:, 1], 2.0)

    def test_to_original_stays_in_box(self, rng):
        emb = RandomEmbedding(12, 4, seed=1)
        Z = rng.uniform(-2, 2, (100, 4))
        X = emb.to_original(Z)
        assert np.all(X >= -1.0) and np.all(X <= 1.0)

    def test_single_vector_shape(self):
        emb = RandomEmbedding(5, 2, seed=0)
        z = np.array([0.1, -0.2])
        assert emb.to_original(z).shape == (5,)
        assert emb.to_embedded(np.zeros(5)).shape == (2,)

    def test_pinv_identity_eq12(self):
        emb = RandomEmbedding(8, 3, seed=3)
        A = emb.matrix
        np.testing.assert_allclose(emb.pinv @ A, np.eye(3), atol=1e-10)

    def test_pinv_roundtrip_for_range_points(self, rng):
        """x in range(A) maps down and back exactly (before clipping)."""
        emb = RandomEmbedding(8, 3, seed=4)
        z = 0.1 * rng.standard_normal(3)
        x = emb.matrix @ z
        np.testing.assert_allclose(emb.to_embedded(x), z, atol=1e-10)

    def test_pinv_conditioning_regression(self):
        """QR pseudo-inverse survives an ill-conditioned embedding draw.

        The previous normal-equation form ``solve(AᵀA, Aᵀ)`` squares the
        condition number: at cond(A) = 1e8, AᵀA has cond 1e16 and the
        Moore-Penrose identity A A† A = A fails at O(1) relative error.
        The QR route keeps the error near machine precision.
        """
        rng = np.random.default_rng(11)
        D, d = 30, 6
        U, _ = np.linalg.qr(rng.standard_normal((D, d)))
        V, _ = np.linalg.qr(rng.standard_normal((d, d)))
        singular_values = np.logspace(0, -8, d)  # cond(A) = 1e8
        A = U @ np.diag(singular_values) @ V.T

        emb = RandomEmbedding(D, d, seed=0)
        emb.matrix = A
        emb._pinv = None
        pinv = emb.pinv

        # left-inverse identity A† A = I and the Eq. 12 reverse map stay
        # accurate to ~cond(A) * eps
        left_error = np.abs(pinv @ A - np.eye(d)).max()
        assert left_error < 1e-7
        rng2 = np.random.default_rng(12)
        z = rng2.standard_normal(d)
        z_error = np.abs(pinv @ (A @ z) - z).max()
        assert z_error < 1e-7

        # the old formula genuinely fails here (O(1) error), guarding
        # against the normal-equation form being reintroduced
        gram_pinv = np.linalg.solve(A.T @ A, A.T)
        gram_error = np.abs(gram_pinv @ A - np.eye(d)).max()
        assert gram_error > 1e-2
        assert gram_error > left_error * 1e4

    def test_reproducible_matrix(self):
        a = RandomEmbedding(7, 2, seed=9).matrix
        b = RandomEmbedding(7, 2, seed=9).matrix
        np.testing.assert_array_equal(a, b)

    def test_custom_bounds(self):
        bounds = np.array([[0.0, 2.0], [0.0, 4.0]])
        emb = RandomEmbedding(2, 1, bounds=bounds, seed=0)
        X = emb.to_original(np.array([[100.0]]))
        assert np.all(X >= [0.0, 0.0]) and np.all(X <= [2.0, 4.0])

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            RandomEmbedding(5, 6)
        with pytest.raises(ValueError):
            RandomEmbedding(5, 0)

    def test_clip_to_box(self):
        out = clip_to_box(np.array([[2.0, -3.0]]), np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(out, [[1.0, -1.0]])


class TestEmbeddingTheorem:
    def test_optimum_reachable_through_embedding(self, rng):
        """Wang et al. Theorem: for d >= d_e, the embedded search space
        contains a point matching the effective-subspace optimum."""
        fun = EmbeddedFunction(sphere, total_dim=10, effective_dim=2, seed=5)
        emb = RandomEmbedding(10, 4, seed=6)
        bounds = emb.z_bounds()
        # dense random search in z
        Z = rng.uniform(bounds[:, 0], bounds[:, 1], (20000, 4))
        values = np.array([fun(x) for x in emb.to_original(Z)])
        # optimum of the sphere through the box is ~0 (origin is reachable)
        assert values.min() < 0.01


class TestPickFlatDimension:
    def test_picks_knee(self):
        dims = [1, 2, 3, 4, 5, 6]
        mse = np.array([1.0, 0.5, 0.1, 0.08, 0.08, 0.08])
        assert pick_flat_dimension(dims, mse, tolerance=0.1) == 3

    def test_tolerance_trades_accuracy_for_reduction(self):
        dims = [1, 2, 3, 4]
        mse = np.array([1.0, 0.2, 0.05, 0.0])
        strict = pick_flat_dimension(dims, mse, tolerance=0.01)
        loose = pick_flat_dimension(dims, mse, tolerance=0.3)
        assert loose <= strict

    def test_flat_curve_picks_smallest(self):
        assert pick_flat_dimension([2, 4, 6], np.array([0.3, 0.3, 0.3])) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            pick_flat_dimension([1, 2], np.array([1.0]))
        with pytest.raises(ValueError):
            pick_flat_dimension([], np.array([]))
        with pytest.raises(ValueError):
            pick_flat_dimension([1], np.array([1.0]), tolerance=1.5)


class TestSelectEmbeddingDimension:
    def test_detects_effective_dimension(self, rng):
        """Algorithm 2's MSE flattens near the true effective dimension."""
        fun = EmbeddedFunction(sphere, total_dim=12, effective_dim=2, scale=2.0, seed=7)
        X = rng.uniform(-1, 1, (40, 12))
        y = np.array([fun(x) for x in X])
        result = select_embedding_dimension(
            X, y, dims=[1, 2, 4, 6, 8], n_trials=4, seed=8
        )
        # MSE at d=1 must be clearly worse than at d >= 4
        assert result.mse[0] > result.mse[2]
        assert 2 <= result.selected_dim <= 8

    def test_normalized_range(self, rng):
        fun = EmbeddedFunction(sphere, total_dim=8, effective_dim=2, seed=1)
        X = rng.uniform(-1, 1, (25, 8))
        y = np.array([fun(x) for x in X])
        result = select_embedding_dimension(X, y, dims=[1, 3, 5], n_trials=2, seed=2)
        assert result.normalized_mse.min() == pytest.approx(0.0)
        assert result.normalized_mse.max() == pytest.approx(1.0)

    def test_validation(self, rng):
        X = rng.uniform(-1, 1, (10, 4))
        y = np.zeros(10)
        with pytest.raises(ValueError):
            select_embedding_dimension(X, y, dims=[5])
        with pytest.raises(ValueError):
            select_embedding_dimension(X, y, n_trials=0)


@settings(max_examples=20, deadline=None)
@given(
    D=st.integers(2, 20),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_projection_idempotent_and_bounded(D, seed):
    """p_Omega is idempotent and its output is always inside Omega."""
    rng = np.random.default_rng(seed)
    d = rng.integers(1, D + 1)
    emb = RandomEmbedding(D, int(d), seed=rng)
    Z = rng.uniform(-np.sqrt(d), np.sqrt(d), (20, int(d)))
    X = emb.to_original(Z)
    assert np.all(np.abs(X) <= 1.0 + 1e-12)
    np.testing.assert_allclose(
        clip_to_box(X, emb.lower, emb.upper), X, atol=1e-12
    )
