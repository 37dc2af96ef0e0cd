"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    as_float_array,
    as_matrix,
    as_vector,
    check_bounds,
    unit_cube_bounds,
)


class TestAsFloatArray:
    def test_converts_lists(self):
        out = as_float_array([1, 2, 3])
        assert out.dtype == float
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_float_array([1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_float_array([np.inf])


class TestAsMatrix:
    def test_promotes_vector_to_row(self):
        out = as_matrix([1.0, 2.0])
        assert out.shape == (1, 2)

    def test_keeps_matrix(self):
        out = as_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert out.shape == (2, 2)

    def test_dim_check(self):
        with pytest.raises(ValueError, match="columns"):
            as_matrix([[1.0, 2.0]], dim=3)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((2, 2, 2)))


class TestAsVector:
    def test_squeezes_column(self):
        out = as_vector(np.ones((4, 1)))
        assert out.shape == (4,)

    def test_scalar_promoted(self):
        assert as_vector(3.0).shape == (1,)

    def test_length_check(self):
        with pytest.raises(ValueError, match="length"):
            as_vector([1.0, 2.0], length=3)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_vector(np.ones((2, 3)))


class TestCheckBounds:
    def test_dim2_layout(self):
        lower, upper = check_bounds([[0.0, 1.0], [-1.0, 2.0]])
        np.testing.assert_array_equal(lower, [0.0, -1.0])
        np.testing.assert_array_equal(upper, [1.0, 2.0])

    def test_two_row_layout(self):
        # a (lower, upper) pair of vectors is not a box: at d = 2 it would
        # read as two (lo, hi) rows
        with pytest.raises(ValueError, match=r"\(dim, 2\)"):
            check_bounds(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]))

    def test_rejects_inverted(self):
        with pytest.raises(ValueError, match="lower bound"):
            check_bounds([[1.0, 0.0]])

    def test_rejects_equal(self):
        with pytest.raises(ValueError):
            check_bounds([[1.0, 1.0]])

    def test_rejects_infinite(self):
        with pytest.raises(ValueError, match="finite"):
            check_bounds([[0.0, np.inf]])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            check_bounds([[0.0, 1.0]], dim=2)

    def test_returns_copies(self):
        arr = np.array([[0.0, 1.0]])
        lower, _ = check_bounds(arr)
        lower[0] = 99.0
        assert arr[0, 0] == 0.0


class TestUnitCubeBounds:
    def test_shape_and_values(self):
        bounds = unit_cube_bounds(3)
        assert bounds.shape == (3, 2)
        np.testing.assert_array_equal(bounds[:, 0], [-1, -1, -1])
        np.testing.assert_array_equal(bounds[:, 1], [1, 1, 1])

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            unit_cube_bounds(0)
