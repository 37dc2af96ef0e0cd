"""COBYLA-style local optimization by linear approximation (Powell 1994).

The paper polishes DIRECT-L's global candidates with NLopt's COBYLA.  This
module implements the same scheme from scratch for box-bounded problems:

* keep a simplex of ``n + 1`` interpolation points,
* build a linear model of the objective by interpolation over the simplex,
* take a trust-region step of radius ``rho`` against the model gradient,
* repair simplex geometry when it degenerates, and shrink ``rho`` when the
  model stops producing descent, until ``rho`` reaches ``rho_end``.

Like Powell's original, the cost of each ``rho`` level is ``O(n)``
evaluations (the simplex must span ``R^n``), which is what makes the
function-evaluation count grow super-linearly with dimension in Fig. 2.

:func:`cobyla_rows` runs ``n`` independent searches ("rows"), each in its
own box, as an array program: ``(n, d + 1, d)`` simplices and their
values, sorted and stepped together, and one ``evaluate`` call per
lockstep round on the union of every live row's pending points — a whole
simplex after a geometry step, a single trust-region candidate otherwise.  :meth:`Cobyla.minimize` is the one-row
case.  Each row's result is bitwise what a point-at-a-time implementation
returns: the LU factor and solve are LAPACK ``getrf``/``getrs`` per row,
the gradient norm is ``sqrt(vecdot(g, g))`` (``np.linalg.norm(G, axis=1)``
rounds differently from the per-vector norm), and a step the box blocks is
the row-wise form of ``np.allclose(candidate, best)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from repro.optim.base import CountingObjective, Objective, Optimizer
from repro.optim.direct import RowObjective
from repro.optim.result import OptimizationResult, RowOutcome

# what each live row submits next
_X0, _SIMPLEX, _CANDIDATE, _STEP, _DONE = range(5)


class Cobyla(Optimizer):
    """Linear-approximation trust-region minimizer over a box.

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

    def _minimize(
        self,
        fun: Objective,
        lower: np.ndarray,
        upper: np.ndarray,
        x0: np.ndarray | None,
    ) -> OptimizationResult:
        counted = CountingObjective(fun)
        if x0 is None:
            x0 = 0.5 * (lower + upper)
        outcome = cobyla_rows(
            [self],
            lower[None, :],
            upper[None, :],
            x0[None, :],
            lambda X, segments: counted.evaluate(X),
        )
        return OptimizationResult(
            x=counted.best_x,
            fun=counted.best_f,
            n_evaluations=counted.n_evaluations,
            n_iterations=int(outcome.n_iterations[0]),
            success=bool(outcome.success[0]),
            message=outcome.message[0],
            history=list(counted.history),
        )


def cobyla_rows(
    optimizers: Sequence[Cobyla],
    lower: np.ndarray,
    upper: np.ndarray,
    x0: np.ndarray,
    evaluate: RowObjective,
) -> RowOutcome:
    """Run one COBYLA search per optimizer, row ``i`` in the box
    ``[lower[i], upper[i]]`` from ``x0[i]`` (all ``(n, d)``).

    Each round calls ``evaluate`` once on the union of every live row's
    pending points, rows ascending; row ``i``'s result equals what
    ``optimizers[i]``'s own :meth:`~Cobyla.minimize` returns.
    """
    return _CobylaRows(optimizers, lower, upper, x0).run(evaluate)


class _CobylaRows:
    """Simplices, radii and control state of :func:`cobyla_rows`.

    The numeric work of a round — sorting the simplices, the differences
    of the interpolation systems, the trust-region candidates and the
    blocked-step test — runs on stacked arrays; LAPACK factors and solves
    each row's ``d x d`` system; the per-row decisions (geometry step,
    descent, radius and budget) are plain Python.
    """

    def __init__(
        self,
        optimizers: Sequence[Cobyla],
        lower: np.ndarray,
        upper: np.ndarray,
        x0: np.ndarray,
    ) -> None:
        n, dim = lower.shape
        self.dim = dim
        self.lower, self.upper = lower, upper
        shortest = (upper - lower).min(axis=1).tolist()
        self.rho = [o.rho_begin * s for o, s in zip(optimizers, shortest)]
        self.rho_end = [o.rho_end * s for o, s in zip(optimizers, shortest)]
        self.budget = [o.max_evaluations for o in optimizers]
        x0 = np.clip(x0, lower, upper)
        self.V = np.empty((n, dim + 1, dim))
        self.f = np.empty((n, dim + 1))
        self.pending = x0.copy()  # the single point an _X0/_CANDIDATE row submits
        self.count = [0] * n
        self.iteration = [0] * n
        self.best_x = x0.copy()
        self.best_f = [np.inf] * n
        self.message = ["evaluation budget exhausted"] * n
        self.success = [False] * n
        # a budget that cannot hold a simplex evaluates x0 alone
        self.state = [_X0 if b < dim + 1 else _SIMPLEX for b in self.budget]
        fits = [r for r in range(n) if self.state[r] == _SIMPLEX]
        if fits:
            self.V[fits] = self._vertices(fits, x0[fits])
        self._rows = np.arange(n)[:, None]

    def _vertices(self, rows: list[int], anchor: np.ndarray) -> np.ndarray:
        """Anchor plus one offset vertex per coordinate direction, at each
        row's radius, flipped inward where the upper bound is too close."""
        k, dim = anchor.shape
        radius = np.array([self.rho[r] for r in rows], dtype=float)[:, None]
        upper = self.upper[rows]
        step = np.where(anchor + radius <= upper, radius, -radius)
        offsets = np.zeros((k, dim, dim))
        diagonal = np.arange(dim)
        offsets[:, diagonal, diagonal] = step
        V = np.empty((k, dim + 1, dim))
        V[:, 0] = anchor
        V[:, 1:] = np.clip(
            anchor[:, None, :] + offsets, self.lower[rows, None, :], upper[:, None, :]
        )
        return V

    def _finish(self, r: int, message: str, success: bool) -> None:
        self.state[r] = _DONE
        self.message[r], self.success[r] = message, success

    def _loop_top(self, r: int) -> None:
        """Step again while one evaluation is left."""
        self.state[r] = _STEP if self.count[r] + 1 <= self.budget[r] else _DONE

    def _step(self, rows: list[int]) -> list[int]:
        """One model step for each row: sort the simplex, fit the linear
        model, then rebuild the geometry, stop, or propose a trust-region
        candidate.  Returns the rows whose step the box blocked, which step
        again without an evaluation."""
        dim, k = self.dim, len(rows)
        # rows ascend, so k == n means every row steps: slices, no gathers
        at: slice | np.ndarray = (
            slice(None) if k == self.f.shape[0] else np.array(rows, dtype=np.intp)
        )
        f = self.f[at]
        order = f.argsort(axis=1)
        f = f[self._rows[:k], order]
        V = self.V[at][self._rows[:k], order]
        self.V[at], self.f[at] = V, f
        # linear interpolation model S g = df; the LU pivots expose a
        # degenerate simplex
        S = V[:, 1:] - V[:, :1]
        df = f[:, 1:] - f[:, :1]
        factors = [dgetrf(system)[:2] for system in S]
        diagonals = np.array([lu.diagonal() for lu, _ in factors], dtype=float)
        pivots = np.minimum.reduce(np.abs(diagonals), axis=1).tolist()
        g = np.zeros((k, dim))
        degenerate = []
        for i, r in enumerate(rows):
            self.iteration[r] += 1
            flat = pivots[i] <= 1e-12 * max(self.rho[r], 1e-300)
            degenerate.append(flat)
            if not flat:
                lu, piv = factors[i]
                g[i] = dgetrs(lu, piv, df[i])[0]
        grad_norm = np.sqrt(np.vecdot(g, g))
        norms = grad_norm.tolist()

        rebuild: list[int] = []
        moving: list[int] = []
        for i, r in enumerate(rows):
            if not (degenerate[i] or norms[i] < 1e-14):
                moving.append(i)
                continue
            # geometry step: rebuild the simplex around the incumbent
            if self.rho[r] <= self.rho_end[r]:
                self._finish(r, "rho converged", True)
                continue
            self.rho[r] *= 0.5
            if self.count[r] + dim + 1 > self.budget[r]:
                self.state[r] = _DONE
                continue
            rebuild.append(r)
        if rebuild:
            self.V[rebuild] = self._vertices(rebuild, self.V[rebuild, 0])
            for r in rebuild:
                self.state[r] = _SIMPLEX
        if not moving:
            return []

        if len(moving) < k:
            V, g, grad_norm = V[moving], g[moving], grad_norm[moving]
            rows = [rows[i] for i in moving]
            at = np.array(rows, dtype=np.intp)
        best = V[:, 0]
        radius = np.array([self.rho[r] for r in rows], dtype=float)
        candidate = np.clip(
            best - radius[:, None] * g / grad_norm[:, None],
            self.lower[at],
            self.upper[at],
        )
        # np.allclose(candidate, best), row by row
        close = np.abs(candidate - best) <= 1e-8 + 1e-5 * np.abs(best)
        blocked = np.logical_and.reduce(close, axis=1).tolist()
        self.pending[at] = candidate
        again: list[int] = []
        for r, stuck in zip(rows, blocked):
            if not stuck:
                self.state[r] = _CANDIDATE
                continue
            # a step the bounds block counts as no descent, unevaluated
            self.rho[r] *= 0.5
            if self.rho[r] <= self.rho_end[r]:
                self._finish(r, "rho converged", True)
            else:
                again.append(r)
        return again

    def run(self, evaluate: RowObjective) -> RowOutcome:
        live = list(range(len(self.state)))
        while True:
            stepping = [r for r in live if self.state[r] == _STEP]
            while stepping:  # blocked steps spend no evaluation
                stepping = self._step(stepping)
            live = [r for r in live if self.state[r] != _DONE]
            if not live:
                break
            parts, segments, starts = [], [], []
            start = 0
            for r in live:
                part = self.V[r] if self.state[r] == _SIMPLEX else self.pending[r : r + 1]
                parts.append(part)
                segments.append((r, part.shape[0]))
                starts.append(start)
                start += part.shape[0]
            union = parts[0] if len(parts) == 1 else np.concatenate(parts)
            values = np.asarray(evaluate(union, segments), dtype=float)
            lows = np.minimum.reduceat(values, starts).tolist()
            for (r, size), start, low in zip(segments, starts, lows):
                self.count[r] += size
                if low < self.best_f[r]:
                    # the row's first strictly better value this round
                    j = start + int(values[start : start + size].argmin())
                    self.best_f[r] = float(values[j])
                    self.best_x[r] = union[j]
                state = self.state[r]
                if state == _X0:
                    self._finish(r, "evaluation budget below simplex size", False)
                elif state == _SIMPLEX:
                    self.f[r] = values[start : start + size]
                    self._loop_top(r)
                else:
                    self._accept(r, float(values[start]))
        return RowOutcome(
            x=self.best_x,
            fun=np.array(self.best_f, dtype=float),
            n_evaluations=np.array(self.count, dtype=np.intp),
            n_iterations=np.array(self.iteration, dtype=np.intp),
            success=np.array(self.success, dtype=bool),
            message=self.message,
        )

    def _accept(self, r: int, f_new: float) -> None:
        """Fold an evaluated trust-region candidate into row ``r``'s simplex."""
        f = self.f[r]
        descent = f_new < f[0]
        # descent keeps the radius; mild progress still improves the simplex
        if descent or f_new < f[-1]:
            self.V[r, -1] = self.pending[r]
            f[-1] = f_new
        if not descent:
            self.rho[r] *= 0.5
        if self.rho[r] <= self.rho_end[r]:
            self._finish(r, "rho converged", True)
        else:
            self._loop_top(r)
