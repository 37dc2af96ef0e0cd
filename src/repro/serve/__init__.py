"""Campaign service layer: run many campaigns over one shared runtime.

``repro.serve`` turns the single-campaign library into a service
(ROADMAP item 1): a :class:`CampaignScheduler` runs
:class:`~repro.campaign.CampaignSpec` jobs in priority order on one
bounded thread pool, every campaign writing its own
:class:`~repro.runtime.ledger.RunLedger` checkpoint while all of them
share one persistent :meth:`~repro.runtime.cache.ResultCache.open`
store — so repeated corner-stress workloads become cache hits instead
of simulations, and killing the whole service loses nothing that a
``--resume`` restart cannot replay bitwise.

Entry points: :class:`CampaignScheduler` in-process, or
``python -m repro.serve jobs.json --workers 4`` from the shell
(see :mod:`repro.serve.service`).
"""

from repro.serve.jobs import build_spec, load_jobs
from repro.serve.scheduler import (
    CampaignOutcome,
    CampaignScheduler,
    SchedulerResult,
)

__all__ = [
    "CampaignOutcome",
    "CampaignScheduler",
    "SchedulerResult",
    "build_spec",
    "load_jobs",
]
