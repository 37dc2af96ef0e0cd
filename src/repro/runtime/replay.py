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
    The resume path without simulation: look every completed record's
    digest up in ``read_ledger(path).completed``, the digest → value map
    a resumed campaign preloads into its cache (a later line wins), and
    confirm a resume serves the recorded value.  Cheap — no objective
    calls.
``cold``
    Re-execute every unique completed point through a fresh
    :class:`~repro.runtime.broker.EvaluationBroker` (empty cache) and
    compare values bitwise.  This exercises the full dispatch path the
    original run used; a fault-injected campaign replays clean because
    injected faults are transient and ``cache_key`` delegates to the
    wrapped objective.  A point whose retries run out is reported as a
    ``missing`` divergence, and every other record is still compared.

CLI::

    python -m repro.runtime.replay LEDGER --testbench uvlo
    python -m repro.runtime.replay LEDGER --objective pkg.mod:attr

Exit status: 0 on zero divergence, 1 on any divergence, 2 on usage
errors.  The kill/resume smoke that replays killed and resumed ledgers
through this verifier is ``python -m repro.serve --selftest``.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.runtime.broker import BrokerConfig, EvaluationBroker, EvaluationError
from repro.runtime.cache import point_digest
from repro.runtime.ledger import read_ledger
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
        _verify_warm(report, records, replay.completed)
    if mode in ("cold", "both"):
        _verify_cold(report, records, unique_x, objective, config)

    report.divergences.sort(key=lambda d: (d.record_id, d.mode, d.kind))
    return report


def _verify_warm(
    report: ReplayReport,
    records: Sequence[dict[str, Any]],
    completed: dict[str, float],
) -> None:
    """The resume path: the value a preload of ``completed`` serves per record."""
    for record in records:
        report.n_checked += 1
        recorded_y = float(record["y"])
        digest = str(record["digest"])
        served = completed[digest]
        if served != recorded_y:
            report.divergences.append(
                Divergence(
                    record_id=int(record.get("id", -1)),
                    mode="warm",
                    kind="value",
                    digest=digest,
                    recorded_y=recorded_y,
                    replayed_y=served,
                    detail=(
                        f"a resume serves {served!r} for a record that "
                        f"stored {recorded_y!r}"
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
    """Re-execute every unique point through a fresh broker, compare bitwise.

    A point that no longer simulates is a ``missing`` divergence, not an
    error: when the batch raises, each point is scored alone through the
    same broker (the completed ones are cache hits by then), and each one
    whose retries run out is reported with its error.
    """
    if not unique_x:
        return
    broker = EvaluationBroker(objective, config=config)
    digests = list(unique_x)
    replayed: dict[str, float] = {}
    errors: dict[str, str] = {}
    try:
        values = broker.evaluate_batch(np.stack([unique_x[d] for d in digests]))
        replayed = dict(zip(digests, values.tolist()))
    except EvaluationError:
        for d in digests:
            try:
                replayed[d] = float(broker.evaluate_batch(unique_x[d][None, :])[0])
            except EvaluationError as error:
                # the replay broker's evaluation ids are not the ledger's:
                # report the simulator's own error
                errors[d] = str(error.__cause__)
    for record in records:
        report.n_checked += 1
        recorded_y = float(record["y"])
        digest = str(record["digest"])
        if digest in errors:
            report.divergences.append(
                Divergence(
                    record_id=int(record.get("id", -1)),
                    mode="cold",
                    kind="missing",
                    digest=digest,
                    recorded_y=recorded_y,
                    detail=(
                        "re-execution failed after "
                        f"{broker.config.max_retries + 1} attempt(s): "
                        f"{errors[digest]}"
                    ),
                )
            )
            continue
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


# -- simulated kill -----------------------------------------------------------


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


# -- CLI ----------------------------------------------------------------------


def _usage_problem(args: argparse.Namespace) -> str | None:
    """What makes the parsed arguments unusable, or None."""
    if args.max_retries < 0:
        return f"--max-retries must be >= 0, got {args.max_retries}"
    if args.objective is None and args.testbench is None:
        return "pass --testbench or --objective"
    if args.objective is not None and ":" not in args.objective:
        return f"--objective expects module:attr, got {args.objective!r}"
    return None


def _objective_from_args(args: argparse.Namespace) -> Objective:
    """The objective the arguments name; a ``ValueError`` when
    ``--objective`` names no module, no attribute, or no Objective."""
    if args.objective is not None:
        module_name, attr = args.objective.split(":", 1)
        try:
            obj = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError) as exc:
            raise ValueError(f"--objective {args.objective!r}: {exc}") from exc
        if callable(obj) and not isinstance(obj, Objective):
            obj = obj()
        if not isinstance(obj, Objective):
            raise ValueError(
                f"--objective {args.objective!r} names a value of type "
                f"{type(obj).__name__}, not an Objective"
            )
        return obj
    from repro.experiments.config import TESTBENCHES

    return TESTBENCHES[args.testbench][0]().objective(args.measure)


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
    parser.add_argument("ledger", help="path to a ledger .jsonl")
    parser.add_argument(
        "--mode", choices=REPLAY_MODES, default="both",
        help="warm (the values a resume serves), cold (re-execute), or both",
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
    args = parser.parse_args(argv)
    problem = _usage_problem(args)
    if problem is None:
        try:
            objective = _objective_from_args(args)
        except ValueError as exc:
            problem = str(exc)
    if problem is not None:
        # a usage error (exit 2), not a divergence (exit 1)
        print(f"{parser.prog}: error: {problem}", file=sys.stderr)
        return 2

    report = verify_replay(
        args.ledger,
        objective,
        mode=args.mode,
        config=BrokerConfig(max_retries=args.max_retries, backoff_seconds=0.0),
    )
    print(report.summary())
    return 0 if report.zero_divergence else 1


if __name__ == "__main__":
    sys.exit(main())
