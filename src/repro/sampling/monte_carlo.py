"""Uniform Monte-Carlo failure hunting (the paper's "MC" baseline).

Section 5.1: "To maximize the possibility of hitting rare failures within
the large hyper-cube, uniform sampling distribution is adopted for MC."
"""

from __future__ import annotations

from repro.bo.engine import RunSpec
from repro.bo.records import RunResult
from repro.runtime.broker import RuntimePolicy, make_broker
from repro.runtime.objective import Objective, require_objective, resolve_bounds
from repro.telemetry.config import Telemetry, resolve_telemetry
from repro.utils.rng import SeedLike, as_generator
from repro.utils.timing import Timer


class MonteCarloSampler:
    """Evaluate ``n_samples`` i.i.d. uniform points inside the box.

    ``solve`` simulates them as one broker batch; every row it keeps
    counts as initial (non-adaptive).

    Parameters
    ----------
    n_samples:
        Simulation budget.
    """

    def __init__(
        self,
        n_samples: int,
        seed: SeedLike = None,
    ) -> None:
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        self.n_samples = int(n_samples)
        self._rng = as_generator(seed)

    def solve(
        self,
        *,
        objective: Objective,
        spec: RunSpec | None = None,
        policy: RuntimePolicy | None = None,
        telemetry: Telemetry | None = None,
        rng: SeedLike = None,
    ) -> RunResult:
        objective = require_objective(objective, type(self).__name__)
        spec = spec if spec is not None else RunSpec()
        tele = resolve_telemetry(telemetry)
        sample_rng = as_generator(rng) if rng is not None else self._rng
        lower, upper, _ = resolve_bounds(objective, spec.bounds)
        broker = make_broker(objective, policy, method="MC", telemetry=tele)

        timer = Timer().start()
        X = sample_rng.uniform(
            lower, upper, size=(self.n_samples, lower.shape[0])
        )
        with tele.tracer.span("sampling", n_samples=self.n_samples):
            batch = broker.evaluate_batch(X)
        timer.stop()
        eval_seconds = broker.stats.eval_seconds
        return RunResult(
            X=batch.X,
            y=batch.y,
            n_init=batch.n_evaluated,
            method="MC",
            eval_seconds=eval_seconds,
            overhead_seconds=max(0.0, timer.elapsed - eval_seconds),
        )

