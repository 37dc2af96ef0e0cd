"""CPU time of benchmark work, rescaled to the reference machine's speed.

Other tenants of a shared host slow the benchmark in two ways.  The
hypervisor takes the vCPU away ("steal") for up to a third of a campaign:
that lengthens wall time but not CPU time, which the guest kernel charges
without the stolen intervals.  And a neighbour on the same physical core
slows every instruction, by up to 1.6x, switching on and off within
seconds: that lengthens CPU time too.  On the reference machine,
one campaign repeated for a few minutes under steal took 0.8-1.4x its
median wall time but 0.93-1.05x its median CPU time; repeated while a
neighbour came and went, it took 0.74-1.33x its median CPU time.

So single-threaded work is timed in thread CPU seconds while a
:class:`SpeedSampler` runs a ~1 ms probe every 50 ms of CPU time, and its
CPU time (the probes' own taken out) is rescaled by the mean of the
reference speed over each sample's speed.  That mean is the rescaling
which maps CPU time spent at the sampled speeds to seconds at the
reference speed.  Work on several threads is timed in process CPU
seconds and rescaled by probes taken just before and after it (see
``workloads.SERVICE_SPEED_EXPONENT``).  The probe is benchmark code of
the same kind as the campaigns' work (small dense linear algebra and
interpreter loops), so a change to the program moves the rescaled time
as it moves the CPU time.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from typing import Any

import numpy as np

#: CPU seconds of one probe step on the reference machine (2 shared vCPUs)
#: with no neighbour slowing it: the fastest of several hundred samples.
REFERENCE_STEP_S = 0.0135 / 600

_A = np.random.default_rng(0).standard_normal((40, 40))
_A = _A @ _A.T + 40.0 * np.eye(40)


def cpu_seconds() -> float:
    """This thread's CPU time, without stolen intervals.

    Not the process's: while a process CPU timer is armed, Linux advances
    the process clock only at scheduler ticks.  The work timed here runs
    on one thread (BLAS is pinned to one thread in ``run.py``).
    """
    return time.thread_time()


def process_cpu_seconds() -> float:
    """This process's CPU time, every thread, without stolen intervals;
    for the service's worker threads.  Not precise while a
    :class:`SpeedSampler` is active."""
    return time.process_time()


def probe(steps: int) -> float:
    """CPU seconds per step of ``steps`` fixed steps of work."""
    start = cpu_seconds()
    for _ in range(steps):
        np.linalg.cholesky(_A)
        sum(i * 0.5 for i in range(200))
    return (cpu_seconds() - start) / steps


def speed_factor(samples: list[float]) -> float:
    """Mean of the reference step time over each sample's step time."""
    return statistics.fmean(REFERENCE_STEP_S / s for s in samples)


class SpeedSampler:
    """Samples this thread's CPU speed while the block runs.

    A SIGPROF timer fires every ``INTERVAL`` CPU seconds and its handler,
    which Python runs on the main thread between bytecodes, times a probe
    of ``STEPS`` steps.  A block too short for the timer is sampled once
    on exit.  For single-threaded work on the main thread only.
    """

    INTERVAL = 0.05
    STEPS = 40

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: CPU seconds the probes took, to take out of the block's time.
        self.probe_s = 0.0

    def _sample(self, *_: Any) -> None:
        start = cpu_seconds()
        self.samples.append(probe(self.STEPS))
        self.probe_s += cpu_seconds() - start

    def __enter__(self) -> "SpeedSampler":
        self._saved = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._saved)
        if not self.samples:
            self.samples.append(probe(self.STEPS))

    @property
    def speed(self) -> float:
        return speed_factor(self.samples)


def pin_one_cpu() -> set[int] | None:
    """Pin this thread (and the processes it starts) to one CPU, so probes
    share a CPU with the work they rescale; return the previous affinity,
    or None where affinity cannot be set."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return cpus
