"""Multi-row DIRECT-L and COBYLA engines against the coroutines they replaced.

Every row of :func:`repro.optim.direct_rows` / :func:`repro.optim.cobyla_rows`
must equal its search run alone through the moved coroutine
(``tests/search_reference.py``): every evaluated point in order, best x,
best f, evaluation count, iteration count and stop message, bit for bit.
Every row of a call shares the call's configuration, so a case that
covers several budgets, targets, iteration caps or radii makes one call
per setting over the same rows.  Besides the generic grid (1, 5 and 19
rows at d = 1, 2, 4, 8, 19) each invariant the array form has to keep gets
its own case: tie-heavy objectives, ``+inf`` plateaus and signed zeros,
rectangles leaving and entering one size group in a round, deep
one-dimensional searches, odd and tiny budgets, ``f_target`` stops between
rectangles, and COBYLA's blocked, flat and budget-starved rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgetrf, dgetrs

from repro.optim import cobyla_rows, direct_rows
from repro.optim.direct import _DELTA, _N_GROUPS, _SIZE_KEY
from tests.search_reference import (
    ReferenceCobyla,
    ReferenceDirect,
    drive_alone,
)

DIMS = (1, 2, 4, 8, 19)
ROWS = (1, 5, 19)


def _sphere(center, scale=1.0):
    center = np.asarray(center, dtype=float)
    return lambda x: float(scale * np.sum((x - center) ** 2))


def _wavy(center):
    center = np.asarray(center, dtype=float)
    return lambda x: float(
        np.sum((x - center) ** 2 - 0.3 * np.cos(5.0 * np.pi * (x - center)))
    )


def _constant(value):
    return lambda x: value


def _steps(x):
    """Piecewise constant: wide plateaus of exactly equal values."""
    return float(np.floor(3.0 * x[0]) + np.floor(2.0 * x[-1]))


def _row_objective(funs, seen):
    """``evaluate(X, segments)`` scoring each block with its row's function
    and logging every row's points in evaluation order into ``seen``."""

    def evaluate(X, segments):
        values = []
        offset = 0
        for row, length in segments:
            block = X[offset : offset + length]
            seen[row] += [x.tobytes() for x in block]
            values += [funs[row](x) for x in block]
            offset += length
        return np.array(values, dtype=float)

    return evaluate


def _logged(fun, seen):
    def wrapped(x):
        seen.append(np.asarray(x, dtype=float).tobytes())
        return fun(x)

    return wrapped


def _check_direct(funs, lower, upper, **config):
    """One ``direct_rows`` call under ``config``, a row per function."""
    seen: list[list[bytes]] = [[] for _ in funs]
    outcome = direct_rows(
        len(funs), lower, upper, _row_objective(funs, seen), **config
    )
    span = upper - lower
    reference = ReferenceDirect(**config)
    for i, fun in enumerate(funs):
        alone: list[bytes] = []
        best_x, best_f, n_evaluations, stop = drive_alone(
            reference.search(lower.shape[0]),
            _logged(fun, alone),
            to_domain=lambda unit: lower + unit * span,
        )
        assert seen[i] == alone, f"row {i}: evaluated points differ"
        assert outcome.x[i].tobytes() == best_x.tobytes(), f"row {i}"
        assert outcome.fun[i] == best_f, f"row {i}"
        assert outcome.n_evaluations[i] == n_evaluations, f"row {i}"
        assert outcome.n_iterations[i] == stop.n_iterations, f"row {i}"
        assert outcome.message[i] == stop.message, f"row {i}"
        assert outcome.success[i] == stop.success, f"row {i}"
    return outcome


def _check_cobyla(funs, lower, upper, x0, **config):
    """One ``cobyla_rows`` call under ``config``, a row per function."""
    seen: list[list[bytes]] = [[] for _ in funs]
    outcome = cobyla_rows(lower, upper, x0, _row_objective(funs, seen), **config)
    reference = ReferenceCobyla(**config)
    for i, fun in enumerate(funs):
        alone: list[bytes] = []
        best_x, best_f, n_evaluations, stop = drive_alone(
            reference.search(lower[i], upper[i], x0=x0[i]), _logged(fun, alone)
        )
        assert seen[i] == alone, f"row {i}: evaluated points differ"
        assert outcome.x[i].tobytes() == best_x.tobytes(), f"row {i}"
        assert outcome.fun[i] == best_f, f"row {i}"
        assert outcome.n_evaluations[i] == n_evaluations, f"row {i}"
        assert outcome.n_iterations[i] == stop.n_iterations, f"row {i}"
        assert outcome.message[i] == stop.message, f"row {i}"
        assert outcome.success[i] == stop.success, f"row {i}"
    return outcome


def _mixed_funs(n, dim, rng):
    """A different objective per row, cycling through the families."""
    funs = []
    for i in range(n):
        center = rng.uniform(-0.9, 0.9, dim)
        kind = i % 4
        if kind == 0:
            funs.append(_sphere(center))
        elif kind == 1:
            funs.append(_wavy(center))
        elif kind == 2:
            funs.append(_steps)
        else:
            funs.append(_sphere(center, scale=-1.0))
    return funs


class TestDirectRows:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("n", ROWS)
    def test_rows_match_reference(self, n, dim):
        rng = np.random.default_rng(100 * n + dim)
        budgets = rng.choice([1, 2, 3, 51, 120, 199, 400], size=n)
        funs = _mixed_funs(n, dim, rng)
        lower, upper = -np.ones(dim), np.ones(dim)
        for budget in sorted(set(budgets.tolist())):
            _check_direct(funs, lower, upper, max_evaluations=budget)

    def test_ties_pick_lowest_index_and_first_best(self):
        """Constant and piecewise-constant objectives, one of them
        symmetric about the box centre so sibling children tie below their
        parent: every group minimum and the best point are decided by index
        alone."""
        funs = [
            _constant(1.0),
            _constant(0.0),
            _steps,
            _constant(-2.5),
            lambda x: -float(abs(x[0] - 0.5) > 0.2),
        ]
        lower, upper = np.array([0.0, -1.0, 2.0]), np.array([1.0, 1.0, 5.0])
        for budget in (300, 301, 150, 77, 200):
            _check_direct(funs, lower, upper, max_evaluations=budget)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_infinite_plateaus_and_signed_zeros_tie_by_index(self, dim):
        """Rows scoring mostly ``+inf`` or a zero of either sign: ``inf ==
        inf`` and ``-0.0 == 0.0``, so the index alone picks each group's
        representative and the best point.  Every row's centre scores
        finite, since the reference has no best point for a row that has
        seen only ``+inf``.  NaN scores are undefined."""
        funs = [
            lambda x: 0.0 if abs(x[0]) < 0.3 else np.inf,
            lambda x: -0.0 if x[-1] > 0.0 else 0.0,
            lambda x: np.inf if x[0] > 0.4 else (-0.0 if x[0] < -0.2 else 0.0),
            lambda x: 1.0 if np.all(np.abs(x) < 0.5) else np.inf,
            lambda x: float(np.floor(2.0 * x[0])) if x[-1] < 0.5 else np.inf,
        ]
        lower, upper = -np.ones(dim), np.ones(dim)
        for budget in (2, 3, 10, 57, 150, 400):
            _check_direct(funs, lower, upper, max_evaluations=budget)
        _check_direct(
            funs,
            lower,
            upper,
            max_evaluations=120,
            max_iterations=10**6,
            f_target=-1.0,
        )

    @pytest.mark.parametrize("dim", [1, 2])
    def test_groups_left_and_entered_in_one_round(self, dim):
        """Several divisions a round at d = 1 and 2.  At d = 1 every
        division moves its rectangle up a size group, so dividing two
        rectangles of adjacent levels in one round makes one leave the
        group the other enters."""
        rng = np.random.default_rng(dim)
        centres = rng.uniform(0.1, 0.9, (4, dim))
        funs = [
            lambda x, c=c, w=w: float(
                np.sum(np.sin(w * (x - c)) + 4.0 * (x - c) ** 2)
            )
            for c, w in zip(centres, (7.0, 13.0, 23.0, 31.0))
        ]
        lower, upper = np.zeros(dim), np.ones(dim)
        for budget in (2, 5, 40, 151, 400):
            _check_direct(funs, lower, upper, max_evaluations=budget)
        if dim > 1:
            return
        # a level-L division samples 3^-(L + 1) either side of its centre
        adjacent = 0
        score = _row_objective(funs, [[] for _ in funs])

        def evaluate(X, segments):
            nonlocal adjacent
            offset = 0
            for _, length in segments:
                block = X[offset : offset + length, 0]
                half = (block[0::2] - block[1::2]) / 2.0
                levels = set(np.rint(-np.log(half) / np.log(3.0)).tolist())
                adjacent += any(level + 1 in levels for level in levels)
                offset += length
            return score(X, segments)

        direct_rows(len(funs), lower, upper, evaluate, max_evaluations=400)
        assert adjacent > 0

    @pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 37, 99])
    def test_tiny_and_odd_budgets(self, budget):
        """Budgets that stop at the root or mid-iteration."""
        dim = 3
        rng = np.random.default_rng(budget)
        lower, upper = -np.ones(dim), np.ones(dim)
        _check_direct(
            _mixed_funs(3, dim, rng), lower, upper, max_evaluations=budget
        )

    def test_deep_one_dimensional_search(self):
        """Searches past level 21 (where np.power's table departs from
        Python's) and past level 26 (where every size rounds to the 0.0
        group)."""
        seen: dict[str, list[float]] = {"centred": [], "zero": []}

        def recorded(name, fun):
            def wrapped(x):
                seen[name].append(float(x[0]))
                return fun(x)

            return wrapped

        funs = [
            recorded("centred", lambda x: float((x[0] - 0.5) ** 2)),
            recorded("zero", _constant(0.0)),
        ]
        for budget in (400, 250):
            _check_direct(funs, np.zeros(1), np.ones(1), max_evaluations=budget)

        def deepest_offset(name):
            offsets = np.abs(np.array(seen[name]) - 0.5)
            return offsets[offsets > 0].min()

        # a level-L division samples 3^-(L + 1) away from the centre
        assert deepest_offset("centred") <= 3.0**-22
        assert deepest_offset("zero") <= 3.0**-27

    def test_f_target_stops_between_rectangles(self):
        """The same rows with and without a target; targets trip after
        some rectangles of an iteration, as Fig. 2 counts them."""
        dim = 5
        rng = np.random.default_rng(2)
        centers = rng.uniform(-0.8, 0.8, (4, dim))

        def ysyn(c):
            return lambda x: float(np.linalg.norm(x - c) / np.linalg.norm(c))

        configs = [
            dict(max_evaluations=5000, max_iterations=10**6, f_target=0.1),
            dict(max_evaluations=300),
            dict(max_evaluations=5000, max_iterations=10**6, f_target=0.3),
            dict(max_evaluations=40, f_target=0.01),
        ]
        lower, upper = -np.ones(dim), np.ones(dim)
        funs = [ysyn(c) for c in centers]
        outcomes = [_check_direct(funs, lower, upper, **c) for c in configs]
        assert outcomes[0].message[0] == "f_target reached"
        assert outcomes[3].message[3] == "evaluation budget exhausted"

    def test_iteration_cap(self):
        rng = np.random.default_rng(9)
        funs = _mixed_funs(4, 2, rng)
        for cap in (0, 1, 3, 9):
            _check_direct(
                funs, -np.ones(2), np.ones(2), max_evaluations=500, max_iterations=cap
            )

    def test_capacity_growth_keeps_rows_exact(self):
        """Budgets above the initial allocation grow the records in place,
        with an unreachable target's queued selections carried along."""
        funs = [_sphere([0.7, 0.1]), _wavy([0.31, -0.2])]
        lower, upper = -np.ones(2), np.ones(2)
        outcome = _check_direct(funs, lower, upper, max_evaluations=4200)
        assert outcome.n_evaluations.tolist() == [4199, 4199]
        outcome = _check_direct(
            funs,
            lower,
            upper,
            max_evaluations=9000,
            max_iterations=10**6,
            f_target=-1.0,
        )
        assert outcome.n_evaluations.tolist() == [8999, 8999]


class TestCobylaRows:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("n", ROWS)
    def test_rows_match_reference(self, n, dim):
        rng = np.random.default_rng(1000 + 100 * n + dim)
        configs = [
            (
                int(rng.choice([2, dim + 1, 40, 150])),
                float(rng.choice([0.25, 0.4])),
            )
            for _ in range(n)
        ]
        centre = rng.uniform(-0.8, 0.8, (n, dim))
        radius = rng.uniform(0.05, 0.5, (n, 1))
        lower = np.maximum(-1.0, centre - radius)
        upper = np.minimum(1.0, centre + radius)
        x0 = rng.uniform(lower, upper)
        funs = _mixed_funs(n, dim, rng)
        for budget, rho_begin in sorted(set(configs)):
            _check_cobyla(
                funs, lower, upper, x0, max_evaluations=budget, rho_begin=rho_begin
            )

    def test_step_blocked_at_box_corner(self):
        """The optimum lies beyond a corner: clipped steps stall there and
        count as no descent without an evaluation."""
        dim = 3
        funs = [_sphere([2.0, 2.0, 2.0]), _sphere([-3.0, 1.5, -2.0])]
        lower, upper = np.full((2, dim), -1.0), np.full((2, dim), 1.0)
        x0 = np.array([[0.9, 0.95, 0.99], [-0.9, 0.9, -0.9]])
        outcome = _check_cobyla(funs, lower, upper, x0, max_evaluations=200)
        np.testing.assert_array_equal(outcome.x[0], upper[0])
        _check_cobyla(funs, lower, upper, x0, max_evaluations=61)

    def test_flat_objective_converges_by_geometry_steps(self):
        """A flat objective gives a zero model gradient: geometry steps
        halve rho until it converges."""
        dim = 4
        funs = [_constant(3.0), _constant(0.0)]
        lower, upper = np.full((2, dim), -1.0), np.full((2, dim), 1.0)
        x0 = np.zeros((2, dim))
        outcome = _check_cobyla(funs, lower, upper, x0, max_evaluations=400)
        assert outcome.message[0] == "rho converged"
        _check_cobyla(funs, lower, upper, x0, max_evaluations=30)

    def test_budget_below_simplex(self):
        dim = 6
        rng = np.random.default_rng(4)
        lower, upper = np.full((4, dim), -1.0), np.full((4, dim), 1.0)
        x0 = rng.uniform(-1, 1, (4, dim))
        funs = _mixed_funs(4, dim, rng)
        for budget in (2, 6, 7, 8):
            outcome = _check_cobyla(funs, lower, upper, x0, max_evaluations=budget)
            if budget < dim + 1:
                assert outcome.message == ["evaluation budget below simplex size"] * 4

    def test_rows_with_own_boxes_and_radii(self):
        dim = 2
        lower = np.array([[-1.0, -1.0], [0.0, 0.5], [-0.01, -3.0]])
        upper = np.array([[1.0, 1.0], [0.2, 0.9], [0.01, 3.0]])
        funs = [_wavy([0.3, -0.1]), _sphere([0.15, 0.6]), _steps]
        x0 = (lower + upper) / 2.0
        for rho_begin, rho_end in ((0.25, 1e-6), (0.5, 1e-3), (0.1, 1e-8)):
            _check_cobyla(
                funs,
                lower,
                upper,
                x0,
                max_evaluations=300,
                rho_begin=rho_begin,
                rho_end=rho_end,
            )


class TestPrimitives:
    """The scalar-to-array substitutions the engines rely on."""

    def test_trisection_offsets_are_python_powers(self):
        assert _DELTA.tolist() == [3.0 ** -(level + 1) for level in range(1024)]
        assert _DELTA[-1] == 0.0

    def test_size_keys_group_deep_levels_at_zero(self):
        table = 3.0 ** (-np.arange(64, dtype=float))
        keys = [round(float(size), 12) for size in table]
        assert _SIZE_KEY == keys[:_N_GROUPS]
        assert all(key == 0.0 for key in keys[_N_GROUPS - 1 :])
        assert all(a > b for a, b in zip(_SIZE_KEY, _SIZE_KEY[1:]))

    @pytest.mark.parametrize("dim", [3, 8, 19, 60])
    def test_vecdot_norm_matches_per_vector_norm(self, dim):
        G = np.random.default_rng(dim).standard_normal((200, dim))
        norms = np.sqrt(np.vecdot(G, G))
        assert norms.tolist() == [float(np.linalg.norm(g)) for g in G]

    @pytest.mark.parametrize("dim", [1, 3, 8, 19])
    def test_lapack_lu_matches_scipy_wrappers(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(50):
            A = rng.standard_normal((dim, dim))
            b = rng.standard_normal(dim)
            lu, piv, _ = dgetrf(A)
            reference = lu_factor(A, check_finite=False)
            assert lu.tobytes() == np.asfortranarray(reference[0]).tobytes()
            x = dgetrs(lu, piv, b)[0]
            assert x.tobytes() == lu_solve(reference, b, check_finite=False).tobytes()

    def test_blocked_test_is_row_wise_allclose(self):
        rng = np.random.default_rng(5)
        best = rng.uniform(-1, 1, (300, 4))
        step = rng.choice([0.0, 1e-12, 1e-9, 1e-6, 1e-3], size=(300, 4))
        candidate = best + step * rng.choice([-1.0, 1.0], size=(300, 4))
        close = np.abs(candidate - best) <= 1e-8 + 1e-5 * np.abs(best)
        blocked = np.logical_and.reduce(close, axis=1)
        expected = [np.allclose(c, b) for c, b in zip(candidate, best)]
        assert blocked.tolist() == expected
        assert 0 < sum(expected) < len(expected)
