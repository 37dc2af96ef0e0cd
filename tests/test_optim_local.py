"""Tests for the local optimizer COBYLA, the DIRECT + COBYLA composition
and the checks at ``cobyla_rows``'s entry."""

import numpy as np
import pytest

from repro.bo import acquisition_search
from repro.optim import cobyla_rows, direct_rows
from repro.utils.validation import unit_cube_bounds


def sphere_at(c):
    c = np.asarray(c, dtype=float)
    return lambda x: float(np.sum((x - c) ** 2))


def rosenbrock2(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


def row_score(fun):
    """``fun`` as a one-row search objective."""
    return lambda X, segments: np.array([fun(x) for x in X])


def search(fun, bounds, x0=None, **config):
    """One COBYLA row over the ``(d, 2)`` ``bounds`` from ``x0`` (the box
    centre by default), scoring each point with ``fun`` in order."""
    lower, upper = np.asarray(bounds, dtype=float).T
    if x0 is None:
        x0 = 0.5 * (lower + upper)
    return cobyla_rows(
        lower[None, :],
        upper[None, :],
        np.asarray(x0, dtype=float)[None, :],
        row_score(fun),
        **config,
    )


#: The COBYLA configurations the shared convergence cases run under.
LOCALS = {"Cobyla": dict(max_evaluations=2000)}


class TestLocalConvergence:
    @pytest.mark.parametrize("config", LOCALS.values(), ids=LOCALS.keys())
    def test_sphere_3d(self, config):
        result = search(sphere_at([0.2, -0.3, 0.5]), unit_cube_bounds(3), **config)
        assert result.fun[0] < 1e-4

    @pytest.mark.parametrize("config", LOCALS.values(), ids=LOCALS.keys())
    def test_warm_start_used(self, config):
        result = search(
            sphere_at([0.5, 0.5]),
            unit_cube_bounds(2),
            x0=np.array([0.45, 0.55]),
            **config,
        )
        assert result.fun[0] < 1e-4

    def test_cobyla_rosenbrock_makes_progress(self):
        bounds = np.array([[-2.0, 2.0], [-2.0, 2.0]])
        start = np.array([-1.0, 1.0])
        result = search(
            rosenbrock2,
            bounds,
            x0=start,
            max_evaluations=5000,
            rho_begin=0.3,
            rho_end=1e-8,
        )
        # linear trust-region models crawl in the banana valley; require
        # substantial progress from f(start) = 4, not full convergence
        assert result.fun[0] < 0.3 * rosenbrock2(start)

    def test_optimum_on_boundary(self):
        result = search(
            sphere_at([2.0, 2.0]), unit_cube_bounds(2), max_evaluations=1000
        )
        assert result.fun[0] == pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize("config", LOCALS.values(), ids=LOCALS.keys())
    def test_stays_in_bounds(self, config):
        seen = []

        def fun(x):
            seen.append(np.array(x))
            return float(np.sum((x - 2.0) ** 2))

        search(fun, unit_cube_bounds(2), **config)
        pts = np.array(seen)
        assert np.all(pts >= -1.0 - 1e-9) and np.all(pts <= 1.0 + 1e-9)


class TestBudgets:
    @pytest.mark.parametrize(
        "config", [dict(max_evaluations=50)], ids=["Cobyla"]
    )
    def test_respects_budget(self, config):
        calls = []

        def fun(x):
            calls.append(x)
            return sphere_at([0.2] * 4)(x)

        result = search(fun, unit_cube_bounds(4), **config)
        assert len(calls) == result.n_evaluations[0] <= 60

    def test_cobyla_tiny_budget_falls_back(self):
        result = search(sphere_at([0.0] * 8), unit_cube_bounds(8), max_evaluations=3)
        assert result.n_evaluations[0] <= 3
        assert not result.success[0]


class TestComposition:
    """The one acquisition search: DIRECT-L, then COBYLA around its best."""

    def test_global_local_beats_global_alone(self):
        fun = sphere_at([0.123, -0.456, 0.789])
        bounds = unit_cube_bounds(3)
        coarse = direct_rows(
            1, bounds[:, 0], bounds[:, 1], row_score(fun), max_evaluations=150
        )
        combo = acquisition_search(row_score(fun), 1, bounds, 150, 500)
        assert fun(combo.X[0]) <= coarse.fun[0]

    def test_global_local_counts_both(self):
        fun = sphere_at([0.2, 0.2])
        combo = acquisition_search(row_score(fun), 1, unit_cube_bounds(2), 100, 100)
        assert combo.n_evaluations > 100  # both stages ran


def _unscored(X, segments):
    raise AssertionError("scored despite a bad configuration")


class TestStartPoint:
    @pytest.mark.parametrize("x0", [[0.5], [0.5, 0.5]], ids=["one", "two"])
    def test_x0_shape_checked_before_clipping(self, x0):
        """A wrong-shape x0 is rejected, not broadcast over the box."""
        lower, upper = -np.ones((1, 3)), np.ones((1, 3))
        with pytest.raises(ValueError, match=rf"x0 has shape \(1, {len(x0)}\)"):
            cobyla_rows(
                lower, upper, np.array([x0]), _unscored, max_evaluations=50
            )


class TestValidation:
    """``cobyla_rows`` rejects a bad configuration before any evaluation."""

    box = (-np.ones((2, 3)), np.ones((2, 3)), np.zeros((2, 3)))

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError, match="max_evaluations must be >= 2"):
            cobyla_rows(*self.box, _unscored, max_evaluations=1)

    @pytest.mark.parametrize("rho_begin, rho_end", [(0.25, 0.0), (0.1, 0.2)])
    def test_rejects_bad_radii(self, rho_begin, rho_end):
        with pytest.raises(ValueError, match="0 < rho_end < rho_begin"):
            cobyla_rows(
                *self.box,
                _unscored,
                max_evaluations=50,
                rho_begin=rho_begin,
                rho_end=rho_end,
            )

    def test_rejects_bad_boxes(self):
        lower, upper, x0 = self.box
        flat, infinite = upper.copy(), upper.copy()
        flat[1, 2] = -1.0
        infinite[0, 0] = np.inf
        for top in (flat, infinite):
            with pytest.raises(ValueError, match="bound"):
                cobyla_rows(lower, top, x0, _unscored, max_evaluations=50)
        with pytest.raises(ValueError, match="share one"):
            cobyla_rows(lower, upper[:1], x0, _unscored, max_evaluations=50)
