"""Random-number-generator plumbing shared by every stochastic component.

All public classes in :mod:`repro` accept a ``seed`` argument that may be an
integer, ``None`` or an existing :class:`numpy.random.Generator`.  Funnelling
every call through :func:`as_generator` keeps experiments reproducible and
lets composite objects (e.g. the REMBO driver, which owns a sampler, a GP and
several optimizers) split one seed into independent child streams.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, None, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any seed-like input.

    An existing generator is passed through untouched so that callers can
    share one stream; anything else is fed to ``np.random.default_rng``.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``count`` statistically independent child streams.

    The children are derived from fresh entropy drawn from ``rng`` itself, so
    repeated calls with the same parent state reproduce the same children.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]
