"""Campaign checkpoint/resume built on the run ledger.

A killed campaign leaves a valid ledger prefix: the broker writes each
group of event lines (a round's ``dispatched`` events, one slice of its
results) with one write and one flush, only after the slice's values
are stored, so the kill can tear at most the final line.
:func:`resume` parses that prefix and preloads every
*completed* evaluation into a fresh :class:`ResultCache`.  Re-running the
same seeded campaign with the returned :class:`RuntimePolicy` then
fast-forwards deterministically: every evaluation the interrupted run
finished is served from the cache (no re-simulation), the campaign picks
up mid-batch exactly where the kill landed, and — because cached values
are the exact floats the simulations produced (JSON round-trips doubles
via shortest-repr) — the final :class:`~repro.bo.records.RunResult` is
bitwise-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.runtime.broker import BrokerConfig, RuntimePolicy
from repro.runtime.cache import DEFAULT_DECIMALS, ResultCache
from repro.runtime.ledger import LedgerReplay, RunLedger, read_ledger


def _drop_torn_tail(path: Path) -> None:
    """Remove the torn final line a mid-write kill left behind.

    ``ResumeState.policy(append_ledger=True)`` keeps appending to the same
    file; without healing, the unparseable fragment would sit *between*
    the original prefix and the resumed events, and every later
    :func:`~repro.runtime.ledger.read_ledger` would reject the file
    (garbage is only tolerated on the final line).
    """
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    idx = len(lines) - 1
    while idx >= 0 and not lines[idx].strip():
        idx -= 1
    if idx < 0:
        return
    try:
        json.loads(lines[idx].strip())
    except json.JSONDecodeError:
        del lines[idx:]
    if lines and not lines[-1].endswith("\n"):
        lines[-1] += "\n"
    path.write_text("".join(lines), encoding="utf-8")


@dataclass
class ResumeState:
    """Replayed ledger plus a cache preloaded with its completed evaluations."""

    replay: LedgerReplay
    cache: ResultCache
    ledger_path: Path

    @property
    def n_completed(self) -> int:
        return self.replay.n_completed

    @property
    def truncated(self) -> bool:
        return self.replay.truncated

    def policy(
        self,
        config: BrokerConfig | None = None,
        append_ledger: bool = True,
    ) -> RuntimePolicy:
        """A :class:`RuntimePolicy` that fast-forwards through this state.

        ``append_ledger=True`` (default) keeps logging to the same ledger
        file, so the resumed run's events extend the original record.
        """
        return RuntimePolicy(
            config=config if config is not None else BrokerConfig(),
            cache=self.cache,
            ledger=RunLedger(self.ledger_path) if append_ledger else None,
        )


def resume(
    ledger_path: str | Path,
    decimals: int = DEFAULT_DECIMALS,
    cache: ResultCache | None = None,
) -> ResumeState:
    """Rebuild campaign state from a (possibly truncated) ledger file.

    ``decimals`` must match the interrupted run's ``cache_decimals`` so the
    preloaded digests address the same rounded points; the campaign header
    in the ledger records the original value.

    ``cache`` preloads the completed evaluations into an *existing* cache
    instead of a fresh in-memory one — the multi-campaign scheduler passes
    its shared persistent store here, so one campaign's resumed results
    immediately serve every other campaign (DESIGN.md §15).  The cache's
    ``decimals`` must agree with ``decimals``.

    When the kill tore the final line, the fragment is dropped from the
    file so that the default append-in-place resume
    (:meth:`ResumeState.policy`) leaves a ledger every later
    :func:`~repro.runtime.ledger.read_ledger` still accepts.
    """
    replay = read_ledger(ledger_path)
    if replay.truncated:
        _drop_torn_tail(Path(ledger_path))
    for header in replay.campaigns():
        recorded = header.get("cache_decimals")
        if recorded is not None and int(recorded) != int(decimals):
            raise ValueError(
                f"ledger was written with cache_decimals={recorded}, "
                f"resume called with decimals={decimals}"
            )
    if cache is None:
        cache = ResultCache.in_memory(decimals=decimals)
    elif cache.decimals != int(decimals):
        raise ValueError(
            f"shared cache uses decimals={cache.decimals}, resume called "
            f"with decimals={decimals}"
        )
    cache.preload(replay.completed)
    return ResumeState(replay=replay, cache=cache, ledger_path=Path(ledger_path))


__all__ = ["ResumeState", "resume"]
