"""The unified ``Objective`` protocol every evaluation flows through.

An :class:`Objective` is a vectorized ``evaluate(X: (n, D)) -> (n,)`` plus
``dim``, ``bounds`` and a stable ``cache_key`` that the evaluation runtime
(broker, cache, ledger) keys results on.  The ``(n, D)`` block is the one
evaluation form: the broker hands every simulation over as a block (one
row long when it isolates a point), and an objective has no per-row call.

:class:`FunctionObjective` is the one adapter from a measure to an
:class:`Objective`: a row function (``vectorized=False``) or a batch
measure (``vectorized=True``), on an optional box, under an explicit
``cache_key``.  The circuit testbenches and the MNA demos fold their batch
measures through :meth:`~repro.bo.spec.Specification.to_minimization`
and return one; wrap any other callable once, explicitly::

    objective = FunctionObjective(my_fn, dim=19, bounds=bounds)
    campaign = Campaign(objective, engine)

The runtime requires a real :class:`Objective` (see
:func:`require_objective`); a bare callable is a :class:`TypeError`.
"""

from __future__ import annotations

import abc
import hashlib
import pickle
from typing import Callable

import numpy as np

from repro._typing import ArrayLike, FloatArray
from repro.utils.validation import as_matrix, check_bounds


class Objective(abc.ABC):
    """A cache-addressable, vectorized black-box objective.

    Subclasses implement :meth:`evaluate` (the batched form) and ``dim``;
    ``bounds`` and ``cache_key`` have sensible defaults.  Values are in
    *minimization* orientation throughout, matching paper Eq. 2.
    """

    @property
    @abc.abstractmethod
    def dim(self) -> int:
        """Dimensionality ``D`` of the variation space."""

    @property
    def bounds(self) -> FloatArray | None:
        """The evaluation box as ``(dim, 2)`` rows of ``(lo, hi)``, if known."""
        return None

    @property
    def cache_key(self) -> str:
        """Stable identity used to key cached/logged results.

        Two objectives with equal ``cache_key`` must compute the same
        function; the default derives from the concrete class, which is
        only collision-safe within a single run — give testbench-backed
        objectives an explicit, content-derived key.
        """
        return f"{type(self).__module__}.{type(self).__qualname__}[d={self.dim}]"

    @property
    def prefers_batch(self) -> bool:
        """Whether the broker should hand :meth:`evaluate` whole chunks.

        ``True`` declares that a ``(k, dim)`` call is genuinely vectorized
        — cheaper than ``k`` single-row calls and free of per-row state
        that retries depend on — so the broker dispatches multi-row chunks
        unless a timeout is set.  The conservative default is ``False``:
        one row per chunk, which any correct :meth:`evaluate` supports.
        """
        return False

    @abc.abstractmethod
    def evaluate(self, X: FloatArray) -> FloatArray:
        """Evaluate a batch ``X`` of shape ``(n, dim)``; returns ``(n,)``."""


def stable_callable_name(fn: Callable) -> str:
    """A cache-key-safe name for ``fn``: its qualname, or a content digest.

    ``functools.partial`` objects and callable instances have no
    ``__qualname__``; their default ``repr`` embeds the object's memory
    address, which differs between processes and would silently fork the
    content-addressed result cache (resume re-simulates everything, dedup
    never hits).  Such callables get a deterministic name derived from
    their pickle payload instead; a callable that is *also* unpicklable
    cannot be named stably and must be given an explicit ``cache_key``.
    """
    name = getattr(fn, "__qualname__", None)
    if name:
        return str(name)
    try:
        payload = pickle.dumps(fn, protocol=4)
    except Exception as exc:
        raise ValueError(
            f"cannot derive a stable cache_key for {type(fn).__qualname__}: "
            "it has no __qualname__ and is not picklable; pass cache_key= "
            "explicitly"
        ) from exc
    short = hashlib.sha256(payload).hexdigest()[:16]
    return f"{type(fn).__qualname__}#{short}"


class FunctionObjective(Objective):
    """The one adapter from a measure to the :class:`Objective` interface.

    Parameters
    ----------
    fn:
        With ``vectorized=False`` (default), a row function
        ``fn(x: (dim,)) -> float`` called once per row; with
        ``vectorized=True``, a batch measure ``fn(X: (n, dim)) -> (n,)``.
    dim:
        Dimensionality of the variation space.
    bounds:
        Optional evaluation box: ``(dim, 2)``, one ``(lo, hi)`` row per
        coordinate.
    cache_key:
        Stable identity; defaults to the function's qualified name plus
        ``dim``, which is only collision-safe within a single run.
    vectorized:
        Whether ``fn`` is a batch measure; the broker then hands it whole
        chunks (``prefers_batch``).
    """

    def __init__(
        self,
        fn: Callable,
        dim: int,
        bounds: ArrayLike | None = None,
        cache_key: str | None = None,
        vectorized: bool = False,
    ) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self._fn = fn
        self._dim = int(dim)
        if bounds is None:
            self._bounds: FloatArray | None = None
        else:
            lower, upper = check_bounds(bounds, self._dim)
            self._bounds = np.column_stack([lower, upper])
        if cache_key is None:
            name = stable_callable_name(fn)
            module = getattr(fn, "__module__", "") or ""
            cache_key = f"{module}.{name}[d={self._dim}]"
        self._cache_key = str(cache_key)
        self._vectorized = bool(vectorized)

    @property
    def prefers_batch(self) -> bool:
        return self._vectorized

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def bounds(self) -> FloatArray | None:
        return None if self._bounds is None else self._bounds.copy()

    @property
    def cache_key(self) -> str:
        return self._cache_key

    def evaluate(self, X: FloatArray) -> FloatArray:
        X = as_matrix(X, self._dim)
        if self._vectorized:
            return np.asarray(self._fn(X), dtype=float).reshape(X.shape[0])
        return np.array([float(self._fn(x)) for x in X], dtype=float)


def require_objective(objective: object, who: str = "the evaluation runtime") -> Objective:
    """Validate that ``objective`` implements the :class:`Objective` protocol.

    The single choke point replacing the removed coercion shims: anything
    that is not an :class:`Objective` raises a :class:`TypeError` naming
    the explicit wrapper to use.
    """
    if isinstance(objective, Objective):
        return objective
    raise TypeError(
        f"{who} requires an Objective, got {type(objective).__name__}; "
        "wrap plain callables explicitly with "
        "FunctionObjective(fn, dim=..., bounds=...)"
    )


def resolve_bounds(objective, bounds):
    """The ``(d, 2)`` evaluation box a run happens in.

    Explicit ``bounds`` win; otherwise the objective's own ``bounds``
    attribute (the :class:`Objective` protocol) is used.  Raises when
    neither is available.
    """
    if bounds is None:
        bounds = getattr(objective, "bounds", None)
    if bounds is None:
        raise ValueError(
            "no bounds available: pass bounds= or an Objective that "
            "declares its own"
        )
    return np.column_stack(check_bounds(bounds))


__all__ = [
    "Objective",
    "FunctionObjective",
    "require_objective",
    "resolve_bounds",
    "stable_callable_name",
]
