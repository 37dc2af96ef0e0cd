"""Ledger replay verifier: the dynamic proof behind the NL7xx static rules.

The NL7xx determinism passes (``tools/numlint/passes/determinism.py``)
argue *statically* that nothing impure is reachable from cache keys,
ledger records or evaluation paths.  This module is the matching dynamic
check: take a completed (possibly killed-and-resumed) :class:`RunLedger`
and prove, record by record, that the runtime's two guarantees actually
held —

* **digest stability** — every completed record's point still hashes to
  the digest the ledger stored (``cache_key`` and rounding are
  reproducible across processes), and
* **value stability** — re-executing the point produces the recorded
  objective value bit for bit (the JSON round-trip preserves doubles via
  shortest repr, so the comparison is exact).

Two replay modes, mirroring how a resumed campaign consumes the ledger:

``warm``
    The resume path without simulation: preload a fresh
    :class:`~repro.runtime.cache.ResultCache` from the ledger's completed
    events (exactly what a resumed campaign does) and confirm every
    completed record's *recomputed* digest hits the cache with the
    recorded value.  Cheap — no objective calls.
``cold``
    Re-execute every unique completed point through a fresh
    :class:`~repro.runtime.broker.EvaluationBroker` (empty cache) and
    compare values bitwise.  This exercises the full dispatch path the
    original run used; a fault-injected campaign replays clean because
    injected faults are transient and ``cache_key`` delegates to the
    wrapped objective.

CLI::

    python -m repro.runtime.replay LEDGER --testbench uvlo
    python -m repro.runtime.replay LEDGER --objective pkg.mod:attr
    python -m repro.runtime.replay --selftest

``--selftest`` runs a fault-injected UVLO campaign, kills it mid-batch
(torn final line included), resumes it appending to the same ledger, then
verifies the combined ledger in both modes — the one-line CI smoke for
the whole kill/resume/replay contract.  Exit status: 0 on zero
divergence, 1 on any divergence, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.runtime.broker import BrokerConfig, EvaluationBroker, RuntimePolicy
from repro.runtime.cache import ResultCache, point_digest
from repro.runtime.ledger import RunLedger, read_ledger
from repro.runtime.objective import Objective, require_objective

#: Recognized replay modes.
REPLAY_MODES = ("warm", "cold", "both")


@dataclass(frozen=True)
class Divergence:
    """One record whose replay disagreed with the ledger."""

    record_id: int
    mode: str  # "digest" | "warm" | "cold"
    kind: str  # "digest" | "missing" | "value"
    digest: str
    detail: str
    recorded_y: float | None = None
    replayed_y: float | None = None

    def render(self) -> str:
        return (
            f"record id={self.record_id} [{self.mode}/{self.kind}] "
            f"{self.detail}"
        )


@dataclass
class ReplayReport:
    """Outcome of verifying one ledger file."""

    ledger_path: Path
    mode: str
    cache_key: str
    n_events: int
    n_completed: int
    n_unique: int
    n_checked: int
    truncated: bool
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def zero_divergence(self) -> bool:
        return not self.divergences

    @property
    def first_divergence(self) -> Divergence | None:
        return self.divergences[0] if self.divergences else None

    def summary(self) -> str:
        lines = [
            f"ledger:     {self.ledger_path}",
            f"mode:       {self.mode}",
            f"cache_key:  {self.cache_key}",
            f"events:     {self.n_events}"
            + (" (truncated tail dropped)" if self.truncated else ""),
            f"completed:  {self.n_completed} ({self.n_unique} unique points)",
            f"checks:     {self.n_checked}",
        ]
        if self.zero_divergence:
            lines.append("result:     ZERO DIVERGENCE — replay is bitwise clean")
        else:
            lines.append(f"result:     {len(self.divergences)} divergence(s)")
            first = self.first_divergence
            assert first is not None
            lines.append(f"first:      {first.render()}")
        return "\n".join(lines)


def _completed_records(events: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
    return [e for e in events if e.get("event") == "completed"]


def verify_replay(
    ledger_path: str | Path,
    objective: Objective,
    mode: str = "both",
    config: BrokerConfig | None = None,
) -> ReplayReport:
    """Verify every completed record of ``ledger_path`` against ``objective``.

    ``config`` shapes the cold-replay broker (retries matter when the
    objective injects faults).  Raises :class:`ValueError` when the
    ledger was written for a different ``cache_key`` than the objective
    provides — that is operator error, not a divergence.
    """
    if mode not in REPLAY_MODES:
        raise ValueError(f"mode must be one of {REPLAY_MODES}, got {mode!r}")
    objective = require_objective(objective, "verify_replay")
    replay = read_ledger(ledger_path)

    recorded_key = next(
        (h["cache_key"] for h in replay.campaigns() if "cache_key" in h), None
    )
    if recorded_key is not None and str(recorded_key) != objective.cache_key:
        raise ValueError(
            f"ledger was written for cache_key={recorded_key!r} but the "
            f"objective provides {objective.cache_key!r}; pass the same "
            "objective the campaign ran"
        )

    records = _completed_records(replay.events)
    unique_x: dict[str, np.ndarray] = {}
    for record in records:
        unique_x.setdefault(
            str(record["digest"]), np.asarray(record["x"], dtype=float)
        )

    report = ReplayReport(
        ledger_path=Path(ledger_path),
        mode=mode,
        cache_key=objective.cache_key,
        n_events=len(replay.events),
        n_completed=len(records),
        n_unique=len(unique_x),
        n_checked=0,
        truncated=replay.truncated,
    )

    # digest stability: recompute each record's address from scratch
    for record in records:
        report.n_checked += 1
        recomputed = point_digest(
            objective.cache_key, np.asarray(record["x"], dtype=float)
        )
        if recomputed != str(record["digest"]):
            report.divergences.append(
                Divergence(
                    record_id=int(record.get("id", -1)),
                    mode="digest",
                    kind="digest",
                    digest=str(record["digest"]),
                    detail=(
                        f"recorded digest {str(record['digest'])[:12]}… but "
                        f"the point now hashes to {recomputed[:12]}…; a "
                        "resume would re-simulate this point"
                    ),
                )
            )

    if mode in ("warm", "both"):
        _verify_warm(report, records, objective)
    if mode in ("cold", "both"):
        _verify_cold(report, records, unique_x, objective, config)

    report.divergences.sort(key=lambda d: (d.record_id, d.mode, d.kind))
    return report


def _verify_warm(
    report: ReplayReport,
    records: Sequence[dict[str, Any]],
    objective: Objective,
) -> None:
    """The resume path: ledger → preloaded cache → per-record lookups."""
    cache = ResultCache.in_memory()
    cache.preload(
        {str(r["digest"]): float(r["y"]) for r in records}
    )
    for record in records:
        report.n_checked += 1
        recorded_y = float(record["y"])
        digest = cache.key_for(
            objective.cache_key, np.asarray(record["x"], dtype=float)
        )
        hit = cache.get(digest)
        if hit is None:
            report.divergences.append(
                Divergence(
                    record_id=int(record.get("id", -1)),
                    mode="warm",
                    kind="missing",
                    digest=digest,
                    recorded_y=recorded_y,
                    detail=(
                        "resume-preloaded cache misses the recomputed "
                        f"digest {digest[:12]}…; the point would re-simulate"
                    ),
                )
            )
        elif hit != recorded_y:
            report.divergences.append(
                Divergence(
                    record_id=int(record.get("id", -1)),
                    mode="warm",
                    kind="value",
                    digest=digest,
                    recorded_y=recorded_y,
                    replayed_y=hit,
                    detail=(
                        f"cache returned {hit!r} for a record that stored "
                        f"{recorded_y!r}"
                    ),
                )
            )


def _verify_cold(
    report: ReplayReport,
    records: Sequence[dict[str, Any]],
    unique_x: dict[str, np.ndarray],
    objective: Objective,
    config: BrokerConfig | None,
) -> None:
    """Re-execute every unique point through a fresh broker, compare bitwise."""
    if not unique_x:
        return
    broker = EvaluationBroker(objective, config=config)
    digests = list(unique_x)
    values = broker.evaluate_batch(np.stack([unique_x[d] for d in digests]))
    replayed = dict(zip(digests, values.tolist()))
    for record in records:
        report.n_checked += 1
        recorded_y = float(record["y"])
        digest = str(record["digest"])
        value = replayed[digest]
        if value != recorded_y:
            report.divergences.append(
                Divergence(
                    record_id=int(record.get("id", -1)),
                    mode="cold",
                    kind="value",
                    digest=digest,
                    recorded_y=recorded_y,
                    replayed_y=value,
                    detail=(
                        f"re-execution produced {value!r}, ledger recorded "
                        f"{recorded_y!r}"
                    ),
                )
            )


# -- kill / resume self-test -------------------------------------------------


def truncate_mid_run(path: str | Path, keep_fraction: float = 0.5) -> int:
    """Simulate a kill: keep a prefix of the ledger plus a torn final line.

    Cuts after ``keep_fraction`` of the ``completed`` events and appends
    the partial line a mid-write kill leaves behind.  Returns the number
    of completed events kept.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    total = sum(1 for line in lines if '"event":"completed"' in line)
    cut_after = max(1, int(total * keep_fraction))
    kept_lines: list[str] = []
    kept_completed = 0
    for line in lines:
        kept_lines.append(line)
        if '"event":"completed"' in line:
            kept_completed += 1
            if kept_completed >= cut_after:
                break
    path.write_text(
        "\n".join(kept_lines) + "\n" + '{"event":"compl', encoding="utf-8"
    )
    return kept_completed


def run_selftest(
    workdir: str | Path | None = None, mode: str = "both"
) -> ReplayReport:
    """Fault-injected UVLO campaign → kill mid-batch → resume → verify.

    The full replay-safety contract in one call: the resumed ledger (the
    original prefix, healed of its torn line by the resumed run's first
    append and extended in place) must replay with zero divergences
    against the clean objective.
    """
    from repro.bo.engine import RunSpec
    from repro.bo.rembo import RemboBO
    from repro.circuits.behavioral.uvlo import UVLOTestbench
    from repro.runtime.faults import FaultInjectingObjective, FaultPlan

    bench = UVLOTestbench()

    def engine() -> RemboBO:
        return RemboBO(
            batch_size=4, embedding_dim=3, tune_every=1, n_restarts=1, seed=11
        )

    def faulty_objective() -> FaultInjectingObjective:
        # fresh wrapper per run: a resumed process starts with empty
        # attempt counters, exactly like a real kill
        return FaultInjectingObjective(
            bench.objective("delta_vthl"),
            FaultPlan(failure_rate=0.3, nan_fraction=0.4, seed=5),
        )

    spec = RunSpec(
        bounds=bench.bounds(),
        n_init=6,
        n_batches=2,
        threshold=bench.threshold("delta_vthl"),
    )
    cfg = BrokerConfig(max_retries=3, backoff_seconds=0.0)

    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="replay-selftest-") as tmp:
            return _selftest_in(
                Path(tmp), engine, faulty_objective, bench, spec, cfg, mode
            )
    return _selftest_in(
        Path(workdir), engine, faulty_objective, bench, spec, cfg, mode
    )


def _selftest_in(workdir, engine, faulty_objective, bench, spec, cfg, mode):
    ledger_path = workdir / "campaign.jsonl"
    with RuntimePolicy(config=cfg, ledger=RunLedger(ledger_path)) as policy:
        engine().solve(objective=faulty_objective(), spec=spec, policy=policy)

    truncate_mid_run(ledger_path)
    cache = ResultCache.in_memory()
    cache.preload(read_ledger(ledger_path).completed)
    # the same ledger path: the resumed run appends in place
    with RuntimePolicy(
        config=cfg, cache=cache, ledger=RunLedger(ledger_path)
    ) as resumed_policy:
        engine().solve(
            objective=faulty_objective(), spec=spec, policy=resumed_policy
        )

    return verify_replay(
        ledger_path, bench.objective("delta_vthl"), mode=mode, config=cfg
    )


# -- CLI ----------------------------------------------------------------------


def _objective_from_args(args: argparse.Namespace) -> Objective:
    if args.objective:
        spec = args.objective
        if ":" not in spec:
            raise SystemExit(
                f"--objective expects module:attr, got {spec!r}"
            )
        module_name, attr = spec.split(":", 1)
        obj = getattr(importlib.import_module(module_name), attr)
        if callable(obj) and not isinstance(obj, Objective):
            obj = obj()
        return require_objective(obj, "--objective")
    if args.testbench:
        from repro.experiments.config import TESTBENCHES

        return TESTBENCHES[args.testbench][0]().objective(args.measure)
    raise SystemExit("pass --testbench or --objective (or --selftest)")


def main(argv: Sequence[str] | None = None) -> int:
    from repro.experiments.config import TESTBENCHES

    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.replay",
        description=(
            "Verify a RunLedger by replaying it: recompute every completed "
            "record's digest and value and report zero-divergence or the "
            "first diverging record."
        ),
    )
    parser.add_argument("ledger", nargs="?", help="path to a ledger .jsonl")
    parser.add_argument(
        "--mode", choices=REPLAY_MODES, default="both",
        help="warm (resume-path cache check), cold (re-execute), or both",
    )
    parser.add_argument(
        "--testbench", choices=sorted(TESTBENCHES),
        help="rebuild the objective from a named circuit testbench",
    )
    parser.add_argument(
        "--measure", default="delta_vthl",
        help="testbench measure name (default: delta_vthl)",
    )
    parser.add_argument(
        "--objective",
        help="module:attr naming an Objective instance or zero-arg factory",
    )
    parser.add_argument(
        "--max-retries", type=int, default=3,
        help="retry budget for cold re-execution (default: 3)",
    )
    parser.add_argument(
        "--selftest", action="store_true",
        help="run the kill/resume/replay smoke end to end (no ledger needed)",
    )
    parser.add_argument(
        "--workdir", default=None,
        help="directory for --selftest artifacts (default: temporary)",
    )
    args = parser.parse_args(argv)

    if args.selftest:
        report = run_selftest(workdir=args.workdir, mode=args.mode)
    else:
        if not args.ledger:
            parser.error("a ledger path is required unless --selftest is set")
        config = BrokerConfig(max_retries=args.max_retries, backoff_seconds=0.0)
        report = verify_replay(
            args.ledger,
            _objective_from_args(args),
            mode=args.mode,
            config=config,
        )

    print(report.summary())
    return 0 if report.zero_divergence else 1


if __name__ == "__main__":
    sys.exit(main())
