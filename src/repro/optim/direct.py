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

:func:`direct_rows` runs ``n`` independent searches ("rows") over one box as
an array program: every row's rectangles live in ``(n, R, ·)`` arrays, and
one lockstep round scores the union of all live rows' trisection points
with a single ``evaluate`` call.  Without ``f_target`` a row submits all of
an iteration's divisions in one round (budget gating is deterministic at
two evaluations per division); with it, one division per round, so the
early-stop check between rectangles keeps its sequential semantics.
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
    first.
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
    """
    if max_evaluations < 1:
        raise ValueError(f"max_evaluations must be >= 1, got {max_evaluations}")
    lower, upper = check_bounds(np.column_stack([lower, upper]))
    return _DirectRows(
        n_rows, lower, upper, int(max_evaluations), int(max_iterations), f_target
    ).run(evaluate)


class _DirectRows:
    """Rectangle records, size-group minima and per-row control state.

    Rectangle ``i`` of row ``r`` is record ``r * capacity + i`` of ``S1``:
    its centre in the unit cube, its ``f``, its division depth ``t`` and
    its size-group key ``r * 27 + group``.  DIRECT-L always trisects the
    first longest side, so a rectangle's side levels are ``L + 1`` on its
    first ``t % d`` sides and ``L = t // d`` on the rest: ``t`` alone gives
    the size level and the next side to cut.  ``gf``/``gi`` hold each
    (row, size group)'s minimum ``f`` and record index; a round folds its
    children into them and rescans only the groups a divided rectangle
    left or entered.
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
        self.count = [0] * n
        self.best = [np.inf] * n
        self.iteration = [0] * n
        self.queue: list[list[int]] = [[] for _ in range(n)]
        self.stop_after = [False] * n
        self.message = [""] * n
        self.success = [False] * n
        self.n_iterations = [0] * n
        self.gf = np.full(n * _N_GROUPS, np.inf)
        self.gi = np.full(n * _N_GROUPS, -1, dtype=np.intp)
        # a row divides at most one rectangle per size group per round
        most = _N_GROUPS * n
        self._stride = 2 * (dim + 3) * np.arange(most)
        self._ramp = np.arange(2 * most)
        self.capacity = 0
        self._allocate(min(budget, _INITIAL_CAPACITY))

    def _allocate(self, capacity: int) -> None:
        """(Re)size every row to ``capacity`` rectangle records."""
        n, old = self.n, self.capacity
        # columns: centre (d), f, depth, size-group key
        S = np.empty((n, capacity, self.dim + 3))
        S[:, :, -1] = -1.0  # no rectangle: in no size group
        if old:
            S[:, :old] = self.S
            # record indices move with the row stride
            held = self.gi >= 0
            self.gi[held] = (self.gi[held] // old) * capacity + self.gi[held] % old
            self.queue = [
                [(i // old) * capacity + i % old for i in queue]
                for queue in self.queue
            ]
        self.S = S
        self.S1 = S.reshape(n * capacity, self.dim + 3)
        self.capacity = capacity

    # -- per-row control (plain Python, O(1) per row and round) -------------

    def _done(self, r: int) -> bool:
        # a division costs two evaluations, so one remaining slot is as
        # exhausted as zero
        if self.count[r] + 2 > self.budget:
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
        """Row ``r``'s potentially optimal rectangles (record indices), or
        None at the size tolerance."""
        base = r * _N_GROUPS
        fs = self.gf[base : base + _N_GROUPS].tolist()
        idx = self.gi[base : base + _N_GROUPS].tolist()
        groups = [
            (_SIZE_KEY[g], fs[g], idx[g])
            for g in range(_N_GROUPS - 1, -1, -1)
            if idx[g] >= 0
        ]
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
                fits = min(len(selected), (self.budget - self.count[r]) // 2)
                self.stop_after[r] = fits < len(selected)
                return selected[:fits]
            self.queue[r] = selected

    # -- the array rounds ----------------------------------------------------

    def run(self, evaluate: RowObjective) -> RowOutcome:
        n, d = self.n, self.dim
        root = self.S[:, 0]
        root[:, :d] = 0.5
        root[:, d + 1] = 0.0
        root[:, d + 2] = np.arange(n) * _N_GROUPS
        values = evaluate(
            self.lower + root[:, :d] * self.span, [(r, 1) for r in range(n)]
        )
        root[:, d] = values
        self.gf[::_N_GROUPS] = values
        self.gi[::_N_GROUPS] = np.arange(n) * self.capacity
        self.count = [1] * n
        self.best = values.tolist()
        most = self.budget
        live = list(range(n))
        while live:
            if self.capacity < most and max(self.count) + 2 * _N_GROUPS > self.capacity:
                self._allocate(min(most, 2 * self.capacity + 2 * _N_GROUPS))
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
        # per planned rectangle: its record and its children's offset
        planned: list[int] = []
        child_base: list[int] = []
        segments: list[tuple[int, int]] = []
        starts: list[int] = []
        start = 0
        for r, chunk in zip(plan_rows, chunks):
            size = 2 * len(chunk)
            planned += chunk
            child_base += [r * R + self.count[r] - start] * size
            segments.append((r, size))
            starts.append(start)
            self.count[r] += size
            start += size
        flat = np.array(planned, dtype=np.intp)
        p = flat.shape[0]
        # the children's records start as copies of their parent's
        rec = self.S1[flat.repeat(2)]
        level, k = np.divmod(rec[::2, d + 1].astype(np.intp), d)
        delta = _DELTA.take(level, mode="clip")
        at = self._stride[:p] + k
        cells = rec.reshape(-1)
        cells[at] += delta
        cells[at + d + 3] -= delta
        values = evaluate(self.lower + rec[:, :d] * self.span, segments)
        lows = np.minimum.reduceat(values, starts).tolist()
        for r, low in zip(plan_rows, lows):
            self.best[r] = min(self.best[r], low)

        # the parent keeps its centre and f; both children share its new
        # depth and size group
        keys = rec[::2, d + 2].astype(np.intp)
        last = k == d - 1  # the last longest side was cut: one level up
        moves = np.count_nonzero(last)
        rec[:, d] = values
        rec[:, d + 1] += 1.0
        if moves:
            moved = last & (level < _N_GROUPS - 1)
            rec[::2, d + 2] += moved
            rec[1::2, d + 2] = rec[::2, d + 2]
        self.S1[flat, d + 1 :] = rec[::2, d + 1 :]
        children = np.array(child_base, dtype=np.intp) + self._ramp[: 2 * p]
        self.S1[children] = rec

        # fold the children into their group's minimum (they hold the
        # highest indices, so only a strictly lower f wins)
        current = self.gf[keys]
        plus, minus = values[::2], values[1::2]
        low = np.minimum(plus, minus)
        better = low < current
        if np.count_nonzero(better):
            self.gf[keys] = np.where(better, low, current)
            self.gi[keys] = np.where(better, children[::2] + (minus < plus), self.gi[keys])
        if moves:
            # a parent that moved up a size group left its old group and
            # joined the next with its children: rescan both
            keys = keys[moved]
            self._regroup(np.concatenate((keys, keys + 1)))

    def _regroup(self, keys: np.ndarray) -> None:
        """Rescan (row, size group) keys: each group's minimum is its
        lowest-index rectangle among the minimal f."""
        d, width = self.dim, max(self.count)
        rows = keys // _N_GROUPS
        member = self.S[rows, :width, d + 2] == keys[:, None]
        f = np.where(member, self.S[rows, :width, d], np.inf)
        first = f.argmin(axis=1)
        at = self._ramp[: rows.shape[0]]
        index = rows * self.capacity + first
        hit = member[at, first]
        if np.count_nonzero(hit) < hit.shape[0]:
            # every member has f = inf (the first one wins) or none is left
            anyone = member.any(axis=1)
            index = np.where(
                hit,
                index,
                np.where(anyone, rows * self.capacity + member.argmax(axis=1), -1),
            )
        self.gf[keys] = f[at, first]
        self.gi[keys] = index

    def _outcome(self) -> RowOutcome:
        d = self.dim
        first = [
            int(self.S[r, :count, d].argmin()) for r, count in enumerate(self.count)
        ]
        best = self.S[np.arange(self.n), first]
        return RowOutcome(
            x=self.lower + best[:, :d] * self.span,
            fun=best[:, d].copy(),
            n_evaluations=np.array(self.count, dtype=np.intp),
            n_iterations=np.array(self.n_iterations, dtype=np.intp),
            success=np.array(self.success, dtype=bool),
            message=list(self.message),
        )
