"""Uniform Monte-Carlo failure hunting (the paper's "MC" baseline).

Section 5.1: "To maximize the possibility of hitting rare failures within
the large hyper-cube, uniform sampling distribution is adopted for MC."
"""

from __future__ import annotations

from repro.bo.engine import Engine
from repro.utils.rng import SeedLike


class MonteCarloSampler(Engine):
    """Evaluate ``n_samples`` i.i.d. uniform points inside the box.

    ``solve`` (:meth:`~repro.bo.engine.Engine.solve`) simulates them as
    one broker batch under a ``sampling`` span; every row counts as
    initial (non-adaptive).  A spec that sets ``budget``, ``n_batches`` or
    ``initial_data`` is rejected: ``n_samples`` is the budget.

    Parameters
    ----------
    n_samples:
        Simulation budget.
    """

    _method = "MC"
    _spends = "n_samples"

    def __init__(
        self,
        n_samples: int,
        seed: SeedLike = None,
    ) -> None:
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        self.n_samples = int(n_samples)
        super().__init__(seed)

    def _solve(self, spec, box, broker, rng, tracer):
        X = rng.uniform(box[:, 0], box[:, 1], size=(self.n_samples, box.shape[0]))
        with tracer.span("sampling", n_samples=self.n_samples):
            y = broker.evaluate_batch(X)
        return dict(X=X, y=y, n_init=self.n_samples)
