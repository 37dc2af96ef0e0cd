"""DIRECT-L global optimization (Jones et al.; Gablonsky & Kelley).

The paper optimizes its acquisition functions with NLopt's ``DIRECT_L``;
this is a from-scratch implementation of the same algorithm family:

* the space is normalized to the unit cube and recursively trisected,
* each iteration selects *potentially optimal* hyperrectangles — the lower
  convex hull of (size, best-f) groups — and divides them,
* rectangle size is the longest side, at most one rectangle per size group
  is selected, and a division trisects a single longest side, which biases
  the search toward local refinement and keeps the number of divisions per
  iteration small.

Only box bounds are supported, which is all acquisition optimization needs.

:func:`direct_rows` runs ``n`` independent searches ("rows") over one box in
lockstep: every row's rectangle centres live in one ``(n, R, d)`` array,
their values, depths and size groups in per-row lists, and one round
trisects every planned rectangle with array operations and scores the union
of all live rows' trisection points with a single ``evaluate`` call.
Without ``f_target`` a row submits all of an iteration's divisions in one
round (budget gating is deterministic at two evaluations per division);
with it, one division per round, so the early-stop check between
rectangles keeps its sequential semantics.
Every row runs under the call's one configuration; the pBO proposal runs
one row per weight, Fig. 2 one row.

Each row's result is bitwise what a rectangle-at-a-time implementation
returns, which rests on four invariants:

* a size group's representative is its lowest-index rectangle among equal
  ``f`` (rectangles are indexed in evaluation order), and the best point is
  the first evaluated argmin;
* sizes are grouped by ``round(3^-L, 12)``, so every level from 26 on
  shares the 0.0 group — at most 27 groups per row;
* trisection offsets are Python's ``3.0 ** -(L + 1)`` (``np.power``
  differs from level 21 on);
* the lower convex hull runs per row in Python floats, in the order the
  scalar algorithm used.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

import numpy as np

from repro.optim.result import RowOutcome
from repro.utils.validation import check_bounds

#: ``evaluate(X, segments)`` for the multi-row engines: score the ``(m, d)``
#: union ``X`` whose consecutive blocks belong to the ``(row, length)``
#: pairs of ``segments``; returns the ``(m,)`` values.
RowObjective = Callable[[np.ndarray, list[tuple[int, int]]], np.ndarray]

#: Epsilon of the potentially-optimal test (standard DIRECT magic constant).
_EPS = 1e-4

#: Size groups per row: levels 0..25 round to distinct sizes, every deeper
#: level rounds to 0.0 and joins group 26.
_N_GROUPS = 27

#: Grouping key of each group: ``round(3^-L, 12)`` from the float64 power
#: table the scalar implementation grouped by.
_SIZE_KEY: list[float] = [
    round(float(size), 12) for size in 3.0 ** (-np.arange(64, dtype=float))
][:_N_GROUPS]

#: A row stops once its largest rectangle's size key falls below this.
_SIZE_TOLERANCE = 1e-8

#: Trisection offset ``3.0 ** -(L + 1)`` per level ``L`` as Python computes
#: it; from level 678 on it underflows to 0.0, so indexes past the end
#: clip to the last entry.
_DELTA = np.array([3.0 ** -(level + 1) for level in range(1024)], dtype=float)

#: Rectangle slots allocated per row before the first growth; a larger
#: budget doubles the capacity on demand.
_INITIAL_CAPACITY = 4096


def _potentially_optimal(
    groups: list[tuple[float, float, int]], f_best: float
) -> list[int]:
    """Lower-convex-hull selection over per-size (size, f, rect_index).

    ``groups`` must be sorted by size ascending with one entry per distinct
    size (the group's minimum f).  Returns rectangle indices, smallest size
    first; the largest rectangle is always among them.
    """
    hull: list[tuple[float, float, int]] = []
    for point in groups:
        d3, f3, _ = point
        while len(hull) >= 2:
            (d1, f1, _), (d2, f2, _) = hull[-2], hull[-1]
            # keep the lower hull: pop if hull[-1] lies above chord 1-3
            if (f2 - f1) * (d3 - d1) >= (f3 - f1) * (d2 - d1):
                hull.pop()
            else:
                break
        hull.append(point)
    # drop small rectangles whose potential improvement is negligible
    threshold = f_best - _EPS * abs(f_best)
    kept: list[int] = []
    d_j, f_j, idx = hull[0]
    for d_next, f_next, next_idx in hull[1:]:
        slope = (f_next - f_j) / max(d_next - d_j, 1e-300)
        if not f_j - slope * d_j > threshold:
            kept.append(idx)
        d_j, f_j, idx = d_next, f_next, next_idx
    kept.append(idx)
    return kept


def direct_rows(
    n_rows: int,
    lower: np.ndarray,
    upper: np.ndarray,
    evaluate: RowObjective,
    *,
    max_evaluations: int,
    max_iterations: int = 1000,
    f_target: float | None = None,
) -> RowOutcome:
    """Run ``n_rows`` DIRECT-L searches over the box ``[lower, upper]``.

    Every row spends up to ``max_evaluations`` evaluations in at most
    ``max_iterations`` divide-select iterations, and stops early once its
    best value reaches ``f_target``.  Each round calls ``evaluate`` once on
    the union of every live row's pending points, rows ascending and each
    row's points in division order (plus then minus trisection point).
    ``+inf`` scores and zeros of either sign are ordinary values (ties go
    to the lower index); NaN scores are undefined.
    """
    if max_evaluations < 1:
        raise ValueError(f"max_evaluations must be >= 1, got {max_evaluations}")
    lower, upper = check_bounds(np.column_stack([lower, upper]))
    return _DirectRows(
        n_rows, lower, upper, int(max_evaluations), int(max_iterations), f_target
    ).run(evaluate)


class _DirectRows:
    """Per-row rectangle lists, size-group heaps and control state.

    Rectangle ``i`` of row ``r`` has its centre in the unit cube at
    ``centres[r, i]`` and its ``f``, division depth ``t`` and size group at
    index ``i`` of the row's lists.  DIRECT-L always trisects the first
    longest side, so a rectangle's side levels are ``L + 1`` on its first
    ``t % d`` sides and ``L = t // d`` on the rest: ``t`` alone gives the
    size level and the next side to cut.  Each (row, size group) keeps a
    heap of ``(f, index)`` whose top is the group's representative: tuple
    order puts the lowest index first among equal ``f``.  A rectangle only
    ever moves up a group, so the entry it leaves behind is popped once it
    reaches the top.
    """

    def __init__(
        self,
        n: int,
        lower: np.ndarray,
        upper: np.ndarray,
        budget: int,
        max_iterations: int,
        f_target: float | None,
    ) -> None:
        dim = lower.shape[0]
        self.n, self.dim = n, dim
        self.lower, self.span = lower, upper - lower
        self.budget = budget
        self.max_iterations = max_iterations
        self.f_target = f_target
        self.best = [np.inf] * n
        self.iteration = [0] * n
        self.queue: list[list[int]] = [[] for _ in range(n)]
        self.stop_after = [False] * n
        self.message = [""] * n
        self.success = [False] * n
        self.n_iterations = [0] * n
        self.f: list[list[float]] = [[] for _ in range(n)]
        self.depth: list[list[int]] = [[] for _ in range(n)]
        self.group: list[list[int]] = [[] for _ in range(n)]
        self.heaps: list[list[list[tuple[float, int]]]] = [
            [[] for _ in range(_N_GROUPS)] for _ in range(n)
        ]
        # the deepest (smallest) size group each row has reached
        self.deepest = [0] * n
        # a row divides at most one rectangle per size group per round
        self._stride = 2 * dim * np.arange(_N_GROUPS * n)
        self.capacity = 0
        self._allocate(min(budget, _INITIAL_CAPACITY))

    def _allocate(self, capacity: int) -> None:
        """(Re)size every row to ``capacity`` rectangle centres."""
        centres = np.empty((self.n, capacity, self.dim))
        if self.capacity:
            centres[:, : self.capacity] = self.centres
        self.centres = centres
        self.flat = centres.reshape(-1, self.dim)
        self.capacity = capacity

    # -- per-row control (plain Python, O(1) per row and round) -------------

    def _done(self, r: int) -> bool:
        # a division costs two evaluations, so one remaining slot is as
        # exhausted as zero
        if len(self.f[r]) + 2 > self.budget:
            return True
        target = self.f_target
        return target is not None and self.best[r] <= target

    def _finish(
        self, r: int, n_iterations: int, reason: tuple[str, bool] | None = None
    ) -> None:
        target = self.f_target
        stop = (
            ("f_target reached", True)
            if target is not None and self.best[r] <= target
            else ("evaluation budget exhausted", False)
        )
        message, success = reason or stop
        if not success and self._done(r):
            message, success = stop
        self.message[r], self.success[r] = message, success
        self.n_iterations[r] = n_iterations

    def _selection(self, r: int) -> list[int] | None:
        """Row ``r``'s potentially optimal rectangles, or None at the size
        tolerance."""
        heaps, group = self.heaps[r], self.group[r]
        groups = []
        for g in range(self.deepest[r], -1, -1):
            heap = heaps[g]
            while heap and group[heap[0][1]] != g:
                heappop(heap)
            if heap:
                f, i = heap[0]
                groups.append((_SIZE_KEY[g], f, i))
        if groups[-1][0] < _SIZE_TOLERANCE:
            return None
        return _potentially_optimal(groups, self.best[r])

    def _advance(self, r: int) -> list[int]:
        """Row ``r``'s next rectangles to divide; empty once it stopped."""
        while True:
            queue = self.queue[r]
            if queue:  # f_target rows divide one rectangle per round
                if self._done(r):
                    self._finish(r, self.iteration[r])
                    return []
                return [queue.pop(0)]
            if self.stop_after[r]:
                self._finish(r, self.iteration[r])
                return []
            iteration = self.iteration[r] + 1
            if iteration > self.max_iterations:
                self._finish(
                    r, self.max_iterations, ("max iterations reached", False)
                )
                return []
            self.iteration[r] = iteration
            if self._done(r):
                self._finish(r, iteration)
                return []
            selected = self._selection(r)
            if selected is None:
                self._finish(r, iteration, ("size tolerance reached", True))
                return []
            if self.f_target is None:
                # the divisions the budget still allows, two evaluations each
                room = (self.budget - len(self.f[r])) // 2
                if room < len(selected):
                    self.stop_after[r] = True
                    return selected[:room]
                return selected
            self.queue[r] = selected

    # -- the lockstep rounds -------------------------------------------------

    def run(self, evaluate: RowObjective) -> RowOutcome:
        n = self.n
        self.centres[:, 0] = 0.5
        values = evaluate(
            self.lower + self.centres[:, 0] * self.span, [(r, 1) for r in range(n)]
        ).tolist()
        for r, value in enumerate(values):
            self.f[r].append(value)
            self.depth[r].append(0)
            self.group[r].append(0)
            self.heaps[r][0].append((value, 0))
        self.best = values
        live = list(range(n))
        while live:
            if self.capacity < self.budget and (
                max(map(len, self.f)) + 2 * _N_GROUPS > self.capacity
            ):
                self._allocate(min(self.budget, 2 * self.capacity + 2 * _N_GROUPS))
            plan_rows: list[int] = []
            chunks: list[list[int]] = []
            for r in live:
                chunk = self._advance(r)
                if chunk:
                    plan_rows.append(r)
                    chunks.append(chunk)
            live = plan_rows
            if live:
                self._divide(plan_rows, chunks, evaluate)
        return self._outcome()

    def _divide(
        self, plan_rows: list[int], chunks: list[list[int]], evaluate: RowObjective
    ) -> None:
        """Trisect every planned rectangle, score the children with one
        ``evaluate`` call, and file them into their size groups."""
        d, R = self.dim, self.capacity
        parents: list[int] = []
        depths: list[int] = []
        children: list[int] = []
        segments: list[tuple[int, int]] = []
        for r, chunk in zip(plan_rows, chunks):
            depth, base = self.depth[r], r * R
            for i in chunk:
                parents.append(base + i)
                depths.append(depth[i])
            start = base + len(self.f[r])
            children += range(start, start + 2 * len(chunk))
            segments.append((r, 2 * len(chunk)))
        # both children start at their parent's centre; the plus child
        # then moves up the cut side, the minus child down
        points = self.flat[parents].repeat(2, axis=0)
        level, side = np.divmod(depths, d)
        delta = _DELTA.take(level, mode="clip")
        at = self._stride[: len(depths)] + side
        cells = points.reshape(-1)
        cells[at] += delta
        cells[at + d] -= delta
        values = evaluate(self.lower + points * self.span, segments).tolist()
        self.flat[children] = points

        # the parent keeps its centre and f; both children share its new
        # depth and size group
        j = 0
        for r, chunk in zip(plan_rows, chunks):
            f, depth, group = self.f[r], self.depth[r], self.group[r]
            heaps, best, child = self.heaps[r], self.best[r], len(f)
            for i in chunk:
                t = depth[i] + 1
                depth[i] = t
                g = group[i]
                # the last longest side was cut: one level up
                if not t % d and g < _N_GROUPS - 1:
                    g += 1
                    group[i] = g
                    heappush(heaps[g], (f[i], i))
                    self.deepest[r] = max(self.deepest[r], g)
                plus, minus = values[j : j + 2]
                f += (plus, minus)
                depth += (t, t)
                group += (g, g)
                heappush(heaps[g], (plus, child))
                heappush(heaps[g], (minus, child + 1))
                best = min(best, plus, minus)
                child += 2
                j += 2
            self.best[r] = best

    def _outcome(self) -> RowOutcome:
        # the first evaluated argmin of each row
        first = [f.index(min(f)) for f in self.f]
        return RowOutcome(
            x=self.lower + self.centres[np.arange(self.n), first] * self.span,
            fun=np.array([f[i] for f, i in zip(self.f, first)], dtype=float),
            n_evaluations=np.array([len(f) for f in self.f], dtype=np.intp),
            n_iterations=np.array(self.n_iterations, dtype=np.intp),
            success=np.array(self.success, dtype=bool),
            message=list(self.message),
        )
