"""The coroutine searches the array engines replaced: the bitwise reference.

``ReferenceDirect.search`` (with ``_Rect``, ``_potentially_optimal`` and
``_apply_divisions``) and ``ReferenceCobyla.search`` are the
rectangle-at-a-time DIRECT and point-at-a-time COBYLA coroutines that
:func:`repro.optim.direct_rows` and :func:`repro.optim.cobyla_rows`
replaced, kept unchanged apart from their class names and the dropped
one-search ``minimize`` wrapper.  ``_RowSearch`` and ``_drive_lockstep``
drive one coroutine per search row in lockstep;
:func:`reference_propose_batch` is the DIRECT-L then COBYLA proposal built
on them, the reference of :func:`repro.bo.propose.acquisition_search`.
Each engine row must equal its coroutine run alone, bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Generator

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from repro.utils.validation import check_bounds

#: Epsilon of the potentially-optimal test (standard DIRECT magic constant).
_EPS = 1e-4

#: Longest-side measures 3^-level, precomputed: the selection loop touches
#: every live rectangle each iteration and must not re-derive powers.
_POW3 = 3.0 ** (-np.arange(64, dtype=float))


def _pow3(level: int) -> float:
    global _POW3
    if level >= _POW3.size:
        _POW3 = 3.0 ** (-np.arange(2 * level, dtype=float))
    return float(_POW3[level])


@dataclass
class SearchOutcome:
    """Terminal state of one reference ``search`` coroutine run."""

    message: str
    success: bool
    n_iterations: int


@dataclass(slots=True)
class _Rect:
    """A hyperrectangle in the normalized unit cube."""

    center: np.ndarray
    f: float
    levels: np.ndarray  # trisection count per dimension; side_k = 3^-levels_k
    size: float = field(default=0.0)  # cached size measure, set by ReferenceDirect
    size_key: float = field(default=0.0)  # size rounded for grouping, ditto
    min_level: int = field(default=0)  # cached min(levels), ditto

    def side_lengths(self) -> np.ndarray:
        return 3.0 ** (-self.levels.astype(float))


class ReferenceDirect:
    """DIRECT / DIRECT-L over a box (the rectangle-at-a-time coroutine).

    Parameters
    ----------
    max_evaluations:
        Objective evaluation budget.
    max_iterations:
        Cap on outer divide-select iterations.
    locally_biased:
        True (default) gives DIRECT-L, matching the paper's choice.
    f_target:
        Optional early-stop threshold: terminate once ``f <= f_target``.
    size_tolerance:
        Stop when the best rectangle's size measure falls below this.
    """

    def __init__(
        self,
        max_evaluations: int = 2000,
        max_iterations: int = 1000,
        locally_biased: bool = True,
        f_target: float | None = None,
        size_tolerance: float = 1e-8,
    ) -> None:
        if max_evaluations < 1:
            raise ValueError(f"max_evaluations must be >= 1, got {max_evaluations}")
        self.max_evaluations = int(max_evaluations)
        self.max_iterations = int(max_iterations)
        self.locally_biased = bool(locally_biased)
        self.f_target = f_target
        self.size_tolerance = float(size_tolerance)

    # -- geometry helpers --------------------------------------------------

    def _size(self, rect: _Rect) -> float:
        if self.locally_biased:
            return _pow3(rect.min_level)  # longest side (Gablonsky)
        sides = rect.side_lengths()
        return float(0.5 * np.linalg.norm(sides))  # half-diagonal (Jones)

    def _set_size(self, rect: _Rect) -> None:
        """Cache the size measure and its rounded grouping key on the rect.

        The selection loop groups every live rectangle per iteration; caching
        ``round(size, 12)`` here keeps that loop free of number formatting,
        and caching ``min(levels)`` spares the division planner per-rect
        array reductions.
        """
        rect.min_level = int(rect.levels.min())
        rect.size = self._size(rect)
        rect.size_key = round(rect.size, 12)

    @staticmethod
    def _potentially_optimal(
        groups: list[tuple[float, float, int]], f_best: float
    ) -> list[int]:
        """Lower-convex-hull selection over per-size (size, f, rect_index).

        ``groups`` must be sorted by size ascending with one entry per
        distinct size (the group's minimum f).  Returns rectangle indices.
        """
        hull: list[tuple[float, float, int]] = []
        for point in groups:
            while len(hull) >= 2:
                (d1, f1, _), (d2, f2, _) = hull[-2], hull[-1]
                d3, f3, _ = point
                # keep the lower hull: pop if hull[-1] lies above chord 1-3
                if (f2 - f1) * (d3 - d1) >= (f3 - f1) * (d2 - d1):
                    hull.pop()
                else:
                    break
            hull.append(point)
        # drop small rectangles whose potential improvement is negligible
        threshold = f_best - _EPS * abs(f_best)
        kept: list[int] = []
        for j, (d_j, f_j, idx) in enumerate(hull):
            if j + 1 < len(hull):
                d_next, f_next, _ = hull[j + 1]
                slope = (f_next - f_j) / max(d_next - d_j, 1e-300)
                if f_j - slope * d_j > threshold:
                    continue
            kept.append(idx)
        if not kept:  # always divide at least the largest rectangle
            kept = [hull[-1][2]]
        return kept

    # -- main loop -----------------------------------------------------------

    def search(
        self, dim: int
    ) -> Generator[np.ndarray, np.ndarray, SearchOutcome]:
        """Coroutine over the unit cube yielding candidate batches.

        Each ``yield`` produces an ``(m, dim)`` array of centers to score;
        the caller sends back the ``(m,)`` objective values.  Values are
        consumed in batch order, so a caller tracking best-so-far state sees
        exactly the sequence a point-at-a-time evaluation would have
        produced.  Returns a :class:`SearchOutcome` via ``StopIteration``.
        """
        center = np.full(dim, 0.5)
        values = yield center[None, :]
        count = 1
        best_f = float(values[0])
        root = _Rect(center=center, f=best_f, levels=np.zeros(dim, dtype=int))
        self._set_size(root)
        rects: list[_Rect] = [root]
        # parallel scalar mirrors of rects: the per-iteration grouping pass
        # touches every live rectangle, and plain-float list iteration beats
        # per-rect attribute lookups there
        size_keys: list[float] = [root.size_key]
        fs: list[float] = [root.f]
        message = "max iterations reached"
        success = False
        iteration = 0

        for iteration in range(1, self.max_iterations + 1):
            if self._done(count, best_f):
                message, success = self._stop_reason(best_f)
                break

            # group rectangles by (cached) size measure, per-size minimum
            by_size: dict[float, tuple[float, int]] = {}
            for i, (size, f) in enumerate(zip(size_keys, fs)):
                best = by_size.get(size)
                if best is None or f < best[0]:
                    by_size[size] = (f, i)
            groups = sorted(
                (size, f, idx) for size, (f, idx) in by_size.items()
            )
            if groups[-1][0] < self.size_tolerance:
                message, success = "size tolerance reached", True
                break

            selected = self._potentially_optimal(groups, best_f)
            budget_exhausted = False
            if self.f_target is None:
                # budget gating is deterministic at 2 evals per division, so
                # the whole iteration's divisions collapse into one batch
                plan: list[tuple[int, list[int]]] = []
                simulated = count
                for rect_idx in selected:
                    if simulated + 2 > self.max_evaluations:
                        budget_exhausted = True
                        break
                    pairs = []
                    for k in self._division_dims(rects[rect_idx]):
                        if simulated + 2 > self.max_evaluations:
                            break
                        pairs.append(k)
                        simulated += 2
                    plan.append((rect_idx, pairs))
                if plan:
                    points = self._planned_points(rects, plan)
                    values = yield points
                    count += points.shape[0]
                    best_f = min(best_f, float(np.min(values)))
                    self._apply_divisions(
                        rects, size_keys, fs, plan, points, values
                    )
                if budget_exhausted:
                    message, success = self._stop_reason(best_f)
                    break
            else:
                # f_target may trip between rectangles: one batch per rect
                for rect_idx in selected:
                    if self._done(count, best_f):
                        budget_exhausted = True
                        break
                    pairs = []
                    simulated = count
                    for k in self._division_dims(rects[rect_idx]):
                        if simulated + 2 > self.max_evaluations:
                            break
                        pairs.append(k)
                        simulated += 2
                    if not pairs:
                        continue
                    plan = [(rect_idx, pairs)]
                    points = self._planned_points(rects, plan)
                    values = yield points
                    count += points.shape[0]
                    best_f = min(best_f, float(np.min(values)))
                    self._apply_divisions(
                        rects, size_keys, fs, plan, points, values
                    )
                if budget_exhausted:
                    message, success = self._stop_reason(best_f)
                    break
        else:
            iteration = self.max_iterations

        if self._done(count, best_f) and not success:
            message, success = self._stop_reason(best_f)
        return SearchOutcome(
            message=message, success=success, n_iterations=iteration
        )

    def _done(self, count: int, best_f: float) -> bool:
        # a division costs two evaluations, so one remaining slot is as
        # exhausted as zero — without this the loop would spin eval-free
        if count + 2 > self.max_evaluations:
            return True
        return self.f_target is not None and best_f <= self.f_target

    def _stop_reason(self, best_f: float) -> tuple[str, bool]:
        if self.f_target is not None and best_f <= self.f_target:
            return "f_target reached", True
        return "evaluation budget exhausted", False

    def _division_dims(self, rect: _Rect) -> list[int]:
        """Longest-side dimensions eligible for trisection."""
        if self.locally_biased:
            # single longest side (DIRECT-L): argmin is its first occurrence
            return [int(np.argmin(rect.levels))]
        return [int(k) for k in np.flatnonzero(rect.levels == rect.min_level)]

    @staticmethod
    def _planned_points(
        rects: list[_Rect], plan: list[tuple[int, list[int]]]
    ) -> np.ndarray:
        """Candidate centers for a division plan, plus/minus per dimension."""
        points: list[np.ndarray] = []
        for rect_idx, pairs in plan:
            rect = rects[rect_idx]
            delta = 3.0 ** (-(rect.min_level + 1))
            for k in pairs:
                plus = rect.center.copy()
                plus[k] += delta
                minus = rect.center.copy()
                minus[k] -= delta
                points.append(plus)
                points.append(minus)
        return np.array(points, dtype=float)

    def _apply_divisions(
        self,
        rects: list[_Rect],
        size_keys: list[float],
        fs: list[float],
        plan: list[tuple[int, list[int]]],
        points: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Create the child rectangles for an evaluated division plan."""
        offset = 0
        for rect_idx, pairs in plan:
            rect = rects[rect_idx]
            samples: list[tuple[int, float, float, np.ndarray, np.ndarray]] = []
            for k in pairs:
                plus = points[offset]
                f_plus = float(values[offset])
                minus = points[offset + 1]
                f_minus = float(values[offset + 1])
                offset += 2
                samples.append((k, f_plus, f_minus, plus, minus))
            if not samples:
                continue
            # divide best-w dimension first so it gets the largest children
            samples.sort(key=lambda item: min(item[1], item[2]))
            levels = rect.levels.copy()
            for k, f_plus, f_minus, plus, minus in samples:
                levels[k] += 1
                # siblings share geometry: snapshot the levels once and
                # measure once, never mutated after a child is re-divided
                child_levels = levels.copy()
                for child_center, child_f in ((plus, f_plus), (minus, f_minus)):
                    child = _Rect(
                        center=child_center, f=child_f, levels=child_levels
                    )
                    self._set_size(child)
                    rects.append(child)
                    size_keys.append(child.size_key)
                    fs.append(child_f)
            rect.levels = levels
            self._set_size(rect)
            size_keys[rect_idx] = rect.size_key


class ReferenceCobyla:
    """Linear-approximation trust-region minimizer over a box (the
    point-at-a-time coroutine).

    Parameters
    ----------
    rho_begin:
        Initial trust-region radius, as a fraction of the shortest box side.
    rho_end:
        Final radius; convergence is declared when ``rho`` shrinks below it.
    max_evaluations:
        Objective evaluation budget.
    """

    def __init__(
        self,
        rho_begin: float = 0.25,
        rho_end: float = 1e-6,
        max_evaluations: int = 5000,
    ) -> None:
        if not 0 < rho_end < rho_begin:
            raise ValueError(
                f"need 0 < rho_end < rho_begin, got {rho_end}, {rho_begin}"
            )
        if max_evaluations < 2:
            raise ValueError(f"max_evaluations must be >= 2, got {max_evaluations}")
        self.rho_begin = float(rho_begin)
        self.rho_end = float(rho_end)
        self.max_evaluations = int(max_evaluations)

    def search(
        self,
        lower: np.ndarray,
        upper: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> Generator[np.ndarray, np.ndarray, SearchOutcome]:
        """Coroutine over the box yielding candidate batches.

        Each ``yield`` produces an ``(m, dim)`` array of points *in the
        original coordinates* (unlike :meth:`ReferenceDirect.search`, which
        works on the unit cube); the caller sends back the ``(m,)`` objective
        values.  Geometry steps yield the whole rebuilt simplex at once,
        trust-region steps a single candidate; a caller tracking
        best-so-far state over the batches sees exactly the sequence a
        point-at-a-time evaluation would have produced.  Returns a
        :class:`SearchOutcome` via ``StopIteration``.
        """
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        dim = lower.shape[0]
        span = upper - lower
        rho = self.rho_begin * float(np.min(span))
        rho_end = self.rho_end * float(np.min(span))

        if x0 is None:
            x0 = 0.5 * (lower + upper)
        x0 = np.clip(np.asarray(x0, dtype=float), lower, upper)

        count = 0

        def clip(x: np.ndarray) -> np.ndarray:
            return np.clip(x, lower, upper)

        def simplex_vertices(anchor: np.ndarray, radius: float) -> np.ndarray:
            """Anchor plus one offset vertex per coordinate direction."""
            vertices = [anchor.copy()]
            for k in range(dim):
                step = np.zeros(dim)
                step[k] = radius if anchor[k] + radius <= upper[k] else -radius
                vertices.append(clip(anchor + step))
            return np.array(vertices, dtype=float)

        def budget_left(n):
            return count + n <= self.max_evaluations

        if not budget_left(dim + 1):
            # budget cannot even hold a simplex; fall back to evaluating x0
            yield x0[None, :]
            count += 1
            return SearchOutcome(
                message="evaluation budget below simplex size",
                success=False,
                n_iterations=0,
            )

        # one batched yield per simplex: lockstep callers score the whole
        # simplex in a single posterior evaluation instead of dim + 1
        V = simplex_vertices(x0, rho)
        f = np.asarray((yield V), dtype=float)
        count += V.shape[0]
        iteration = 0
        message = "evaluation budget exhausted"
        success = False

        while budget_left(1):
            iteration += 1
            order = np.argsort(f)
            V, f = V[order], f[order]
            best = V[0]

            # linear interpolation model: S g = df.  S is square (dim + 1
            # vertices), so one LU factorization both solves the system and
            # exposes degeneracy through the magnitude of its pivots — far
            # cheaper than the SVD an lstsq/matrix_rank pair would run.
            S = V[1:] - V[0]
            df = f[1:] - f[0]
            tol = 1e-12 * max(rho, 1e-300)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # exact-singular LU warns
                lu, piv = lu_factor(S, check_finite=False)
            pivots = np.abs(np.einsum("ii->i", lu))
            degenerate = bool(pivots.min() <= tol)
            grad_norm = 0.0
            if not degenerate:
                g = lu_solve((lu, piv), df, check_finite=False)
                grad_norm = float(np.linalg.norm(g))
            if grad_norm < 1e-14 or degenerate:
                # geometry step: rebuild the simplex around the incumbent
                if rho <= rho_end:
                    message, success = "rho converged", True
                    break
                rho *= 0.5
                if not budget_left(dim + 1):
                    break
                V = simplex_vertices(best, rho)
                f = np.asarray((yield V), dtype=float)
                count += V.shape[0]
                continue

            candidate = clip(best - rho * g / grad_norm)
            if np.allclose(candidate, best):
                # step blocked by the bounds; treat as no descent (and do
                # not spend an evaluation on it)
                f_new = np.inf
            else:
                f_new = float(
                    np.asarray((yield candidate[None, :]), dtype=float)[0]
                )
                count += 1

            if f_new < f[0]:
                # descent: replace the worst vertex, keep the radius
                V[-1], f[-1] = candidate, f_new
            elif f_new < f[-1]:
                # mild progress: still improves the simplex
                V[-1], f[-1] = candidate, f_new
                rho *= 0.5
            else:
                rho *= 0.5
            if rho <= rho_end:
                message, success = "rho converged", True
                break

        return SearchOutcome(
            message=message, success=success, n_iterations=iteration
        )


@dataclass
class _RowSearch:
    """Bookkeeping for one row's search coroutine (global or local)."""

    index: int
    engine: object
    points: np.ndarray | None = None
    done: bool = False
    n_evaluations: int = 0
    best_f: float = field(default=np.inf)
    best_x: np.ndarray | None = None


def _drive_lockstep(
    score,
    searches: list[_RowSearch],
    to_domain=None,
) -> None:
    """Drive live coroutines to completion, one ``score`` call per round.

    Each round stacks every live search's pending candidate batch into a
    union, maps it to the objective domain (``to_domain``, for coroutines
    that emit unit-cube points), scores the union's ``(row, length)``
    segments with a single ``score`` call returning one value array per
    segment, updates per-search best-so-far state, and sends each
    coroutine its value slice.
    """
    while True:
        live = [s for s in searches if not s.done]
        if not live:
            break
        union = np.vstack([s.points for s in live])
        if to_domain is not None:
            union = to_domain(union)
        segments = [(s.index, s.points.shape[0]) for s in live]
        sliced = score(union, segments)
        offset = 0
        for search, values in zip(live, sliced):
            m = search.points.shape[0]
            search.n_evaluations += m
            j = int(np.argmin(values))
            value = float(values[j])
            if value < search.best_f:
                search.best_f = value
                search.best_x = union[offset + j].copy()
            offset += m
            try:
                search.points = search.engine.send(values)
            except StopIteration:
                search.done = True
                search.points = None


class SegmentScorer:
    """Eq. 9 per lockstep segment, scored the way ``_drive_lockstep`` did:
    one ``gp.predict`` per union, then ``(1 − w) μ − w σ`` per segment."""

    def __init__(self, gp, weights) -> None:
        self.gp = gp
        self.weights = np.asarray(weights, dtype=float)

    def __call__(self, X, segments):
        pred = self.gp.predict(X)
        out = []
        offset = 0
        for index, m in segments:
            w = float(self.weights[index])
            mu = pred.mean[offset : offset + m]
            sigma = pred.std[offset : offset + m]
            out.append((1.0 - w) * mu - w * sigma)
            offset += m
        return out


def reference_propose_batch(score, n_rows, bounds, global_budget, local_budget):
    """The DIRECT-L then COBYLA proposal over the coroutines.

    ``n_rows`` searches run in lockstep, each DIRECT-L search capped at
    ``global_budget`` evaluations over ``bounds`` and each COBYLA search at
    ``local_budget`` inside the box of half-width 0.1 of each side around
    its row's DIRECT-L incumbent.  ``score(union, segments)`` returns one
    value array per ``(row, length)`` segment.  Returns the proposed
    ``(n_rows, dim)`` points and the evaluation count of both stages.
    """
    lower, upper = check_bounds(bounds)
    dim = lower.shape[0]
    span = upper - lower

    searches = [
        _RowSearch(
            index=i,
            engine=ReferenceDirect(max_evaluations=global_budget).search(dim),
        )
        for i in range(n_rows)
    ]
    for search in searches:
        search.points = next(search.engine)
    _drive_lockstep(score, searches, to_domain=lambda unit: lower + unit * span)

    radius = 0.1 * span
    refiners = [
        _RowSearch(
            index=search.index,
            engine=ReferenceCobyla(max_evaluations=local_budget).search(
                np.maximum(lower, search.best_x - radius),
                np.minimum(upper, search.best_x + radius),
                x0=search.best_x,
            ),
        )
        for search in searches
    ]
    for refiner in refiners:
        refiner.points = next(refiner.engine)
    _drive_lockstep(score, refiners)

    proposed = []
    total_evals = 0
    for search, refiner in zip(searches, refiners):
        total_evals += search.n_evaluations + refiner.n_evaluations
        if refiner.best_f <= search.best_f:
            proposed.append(np.asarray(refiner.best_x, dtype=float))
        else:
            proposed.append(search.best_x)
    return np.array(proposed), total_evals


def drive_alone(engine, fun, to_domain=None):
    """Run one coroutine against a point objective, tracking the first
    strictly better value per batch; returns ``(best_x, best_f,
    n_evaluations, outcome)``."""
    points = next(engine)
    best_x, best_f, n_evaluations = None, np.inf, 0
    while True:
        X = points if to_domain is None else to_domain(points)
        values = np.array([fun(x) for x in X], dtype=float)
        n_evaluations += values.shape[0]
        j = int(np.argmin(values))
        if float(values[j]) < best_f:
            best_f = float(values[j])
            best_x = X[j].copy()
        try:
            points = engine.send(values)
        except StopIteration as stop:
            return best_x, best_f, n_evaluations, stop.value
