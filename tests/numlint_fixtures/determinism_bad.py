"""Deliberately irreproducible snippets: every NL7xx code fires here.

Lint this file with relpath ``src/repro/runtime/fixture.py`` so the
NL706 persistence-layer scope applies.
"""

import datetime
import json
import os
import random
import time

import numpy as np

from repro.utils.parallel import WorkerPool


def _salt() -> float:
    return time.time()


def _draw() -> float:
    return random.random()


class KeyedThing:
    def __init__(self, dim: int):
        self.dim = dim
        self._ledger = []

    @property
    def cache_key(self) -> str:  # NL701: TIME reachable via _salt()
        return f"thing-{_salt()}-{self.dim}"

    def _finish(self, record: dict) -> None:  # NL702: wall clock into ledger
        record["at"] = datetime.datetime.now().isoformat()
        self._ledger.append(record)

    def evaluate(self, X):  # NL703: legacy global-state draw
        return np.asarray(X).sum(axis=1) + np.random.normal()

    def solve(self, budget: int):  # NL703: global RNG reachable via _draw()
        return [_draw() for _ in range(budget)]

    def _solve(self, budget: int):  # NL703: an engine's run hook
        return np.random.rand(budget)

    def dump(self, names) -> str:  # NL704: set iteration into json.dumps
        return json.dumps([n for n in set(names)])


def make_key(tag: str) -> str:
    # NL701: host name in a key-construction site (ENV effect)
    cache_key = f"{tag}@{os.uname().nodename}"
    return cache_key


def run_all(tasks):
    pool = WorkerPool(kind="process", n_jobs=4)  # NL705: never closed
    return pool.run_tasks(_draw, tasks)


def append_event(path, event) -> None:
    try:
        with path.open("a") as fh:
            fh.write(json.dumps(event) + "\n")
    except OSError:  # NL706: swallowed ledger write failure
        pass


def load_events(path):
    try:
        return json.loads(path.read_text())
    except:  # noqa: E722  NL706: bare except on a persistence path
        return None
