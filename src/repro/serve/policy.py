"""Registry-driven scheduling policies for the serve job queue.

The daemon's dispatch loop asks its policy one question — *of the queued
jobs, which runs next?* — every time a worker slot frees up.  Policies
never touch running jobs (no preemption of in-flight simulations; a
dispatched run always completes or fails on its own), so a policy is one
pure selection function over the queued set, registered by name exactly
like devices, topologies and arrival processes:

* ``fifo`` (default) — strict submission order, the rtp-llm
  ``FIFOScheduler`` shape: predictable, starvation-free.
* ``priority`` — highest ``Job.priority`` first, submission order within
  a priority level.  A late high-priority probe overtakes every *queued*
  sweep cell but never an already-running one.
* ``shortest-first`` — smallest cost estimate first, with an explicit
  starvation bound: a job passed over :data:`STARVATION_LIMIT` times is
  selected regardless of its estimate, so one long sweep behind a stream
  of short probes waits a bounded, testable number of dispatches.

Cost estimates come from :func:`estimate_cost`: a calibration table
measured by the load sweep (:class:`repro.eval.load.LoadResult` phase 1 —
closed-batch cycles per (topology, setting) cell) when one is supplied,
else a static per-request heuristic (the workload's nominal request quota
scaled by message scale).  Estimates only ever *rank* jobs; no policy
reads them as absolute time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, WorkloadError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.eval.parallel import RunRequest
    from repro.serve.queue import Job

#: Times a queued job may be passed over by ``shortest-first`` before it
#: is forcibly selected (the starvation bound the tests pin).
STARVATION_LIMIT = 8

DEFAULT_POLICY = "fifo"

_POLICIES: Dict[str, type] = {}


def register_sched_policy(name: str, *, description: str = ""):
    """Class decorator: make a scheduling policy constructible by *name*."""

    def decorator(cls):
        if name in _POLICIES:
            raise ConfigError(f"sched policy {name!r} is already registered")
        cls.name = name
        cls.description = (
            description or (cls.__doc__ or "").strip().split("\n")[0]
        )
        _POLICIES[name] = cls
        return cls

    return decorator


def sched_policy_names() -> List[str]:
    return sorted(_POLICIES)


def make_sched_policy(name: str) -> "SchedPolicy":
    cls = _POLICIES.get(name)
    if cls is None:
        raise ConfigError(
            f"unknown sched policy {name!r}; registered: {sched_policy_names()}"
        )
    return cls()


class SchedPolicy(ABC):
    """Selects the next queued job when a worker slot frees up."""

    name = "abstract"

    @abstractmethod
    def select(self, queued: Sequence["Job"]) -> "Job":
        """The job to dispatch next; *queued* is non-empty, in seq order."""


@register_sched_policy("fifo", description="strict submission order")
class FifoPolicy(SchedPolicy):
    """First submitted, first dispatched — the predictable default."""

    def select(self, queued: Sequence["Job"]) -> "Job":
        return min(queued, key=lambda job: job.seq)


@register_sched_policy(
    "priority", description="highest priority first, FIFO within a level"
)
class PriorityPolicy(SchedPolicy):
    """Short probe runs jump the queue ahead of long sweeps.

    Only *queued* work is overtaken: a running job is never preempted, so
    a high-priority submission waits at most one in-flight service time
    per worker before dispatch.
    """

    def select(self, queued: Sequence["Job"]) -> "Job":
        return min(queued, key=lambda job: (-job.priority, job.seq))


@register_sched_policy(
    "shortest-first",
    description="smallest cost estimate first, with a starvation bound",
)
class ShortestFirstPolicy(SchedPolicy):
    """Minimize mean wait by running cheap jobs first — boundedly.

    Pure shortest-job-first starves a long job under a steady stream of
    short ones; here every pass-over increments ``Job.passed_over`` and a
    job that reaches :data:`STARVATION_LIMIT` is dispatched next no
    matter its estimate (oldest such job first), so the wait of any job
    is bounded by ``STARVATION_LIMIT`` dispatches.
    """

    def __init__(self, starvation_limit: int = STARVATION_LIMIT) -> None:
        if starvation_limit < 1:
            raise ConfigError(
                f"starvation_limit must be >= 1, got {starvation_limit}"
            )
        self.starvation_limit = starvation_limit

    def select(self, queued: Sequence["Job"]) -> "Job":
        starved = [j for j in queued if j.passed_over >= self.starvation_limit]
        if starved:
            chosen = min(starved, key=lambda job: job.seq)
        else:
            chosen = min(queued, key=lambda job: (job.estimate, job.seq))
        for job in queued:
            if job is not chosen:
                job.passed_over += 1
        return chosen


# ------------------------------------------------------------------- estimates
def calibrated_estimates(load_result) -> Dict[Tuple[str, str], float]:
    """A calibration table from a load sweep's closed-batch phase.

    Maps ``(topology, setting label) -> measured closed-batch cycles``,
    the exact quantity :func:`repro.eval.load.load_experiment` measures
    before sweeping — so a daemon warmed with one cheap load sweep ranks
    subsequent jobs by *measured* cost instead of the static heuristic.
    """
    return {
        (row["topology"], row["setting"]): float(row["cycles"])
        for row in load_result.calibration
    }


def estimate_cost(
    request: "RunRequest",
    calibration: Optional[Dict[Tuple[str, str], float]] = None,
) -> float:
    """A rank-only cost estimate for one request.

    With a *calibration* table (see :func:`calibrated_estimates`), a
    matching (topology, setting-label) cell returns its measured cycles.
    Otherwise the estimate is the workload's nominal request quota at the
    request's scale — the same size proxy the load sweep's rate math uses
    — falling back to the thread count for closed-only workloads.  Only
    the *ordering* of estimates matters to any policy.
    """
    from repro.workloads.registry import make_workload

    if calibration:
        topology = (
            request.config.topology if request.config is not None
            else "single-bus"
        )
        label = request.setting().label
        measured = calibration.get((topology, label))
        if measured is not None:
            return measured
    workload = make_workload(request.workload, scale=request.scale)
    try:
        return float(sum(workload.session_quotas().values()))
    except WorkloadError:
        # Closed-only (dependency-driven) workloads have no sessions; the
        # thread count scaled by message scale still ranks small probes
        # below big sweeps, which is all a policy needs.
        return float(workload.num_threads()) * request.scale
