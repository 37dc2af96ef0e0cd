"""The check that the bad rows of a broker batch fail alone."""

from __future__ import annotations

import re
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from repro.runtime import (
    EvaluationBroker,
    EvaluationError,
    ResultCache,
    RunLedger,
    read_ledger,
)

MakeBroker = Callable[[ResultCache, RunLedger], EvaluationBroker]


def assert_fails_alone(
    make_broker: MakeBroker, X: np.ndarray, bad: list[int], path: Path
) -> tuple[EvaluationBroker, list[float]]:
    """Check that rows ``bad`` of ``X`` are the only ones that fail.

    ``make_broker(cache, ledger)`` builds a fresh broker.  Three checks:
    the batch raises one :class:`EvaluationError` that names every row of
    ``bad`` and no other; every other row's value is in the cache and its
    ``completed`` event in the ledger at ``path``; and a rerun over the
    cache preloaded from that ledger dispatches only the bad rows and
    names them again.  Returns the first run's broker and the other rows'
    values, in row order.
    """
    cache = ResultCache.in_memory()
    with RunLedger(path) as ledger:
        broker = make_broker(cache, ledger)
        _assert_names(broker.evaluate_batch, X, bad)
    digests = cache.keys_for_batch(broker.objective.cache_key, X)
    good = [digests[k] for k in range(len(X)) if k not in bad]
    completed = read_ledger(path).completed
    assert sorted(completed) == sorted(good)
    values = [completed[digest] for digest in good]
    assert [cache.get(digest) for digest in good] == values

    rerun = path.with_name(f"{path.stem}-rerun.jsonl")
    resumed = ResultCache.in_memory()
    resumed.preload(completed)
    with RunLedger(rerun) as ledger:
        _assert_names(make_broker(resumed, ledger).evaluate_batch, X, bad)
    events = read_ledger(rerun).events
    assert sorted({e["id"] for e in events if e["event"] == "dispatched"}) == bad
    return broker, values


def _assert_names(evaluate_batch, X: np.ndarray, bad: list[int]) -> None:
    """``evaluate_batch(X)`` raises an error naming exactly the ``bad`` ids
    (a fresh broker numbers its points by row)."""
    with pytest.raises(EvaluationError) as raised:
        evaluate_batch(X)
    named = re.findall(r"\bevaluation (\d+)(?: failed|:)", str(raised.value))
    assert sorted(map(int, named)) == sorted(bad), str(raised.value)
