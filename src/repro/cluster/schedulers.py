"""Pluggable job-stream schedulers.

All three schedulers share one interface: :meth:`Scheduler.launch_spec`
decides *how* a job would run (called once, at first arrival), and
:meth:`Scheduler.pick` chooses *which* queued job to start next given
the current placement state.  ``pick`` returns one job at a time and
is called repeatedly until it returns ``None``, so a scheduler never
mutates the grid itself — the engine owns allocation.

* :class:`FifoScheduler` — strict arrival order; the head of the queue
  blocks everything behind it until its sub-grid frees up.
* :class:`EasyBackfillScheduler` — classic EASY: the head gets a
  reservation at the earliest time enough running jobs (by predicted
  finish) will have drained, and later jobs may jump ahead only if
  their predicted runtime fits inside that reservation window.  The
  predicted runtimes come from the same estimate family the planner
  uses, so the schedulers and the planner agree on what a job costs.
* :class:`PlannerScheduler` — EASY's no-starvation skeleton, with two
  planner upgrades: launches come from ``plan_many`` (shape, algorithm,
  grid, blocking per job, closed-form fidelity for determinism and
  speed), and backfill candidates are scanned shortest-predicted-first
  instead of queue order.

Determinism: every tie in ``pick`` breaks on ``(arrival, jid)`` or
``(predicted, arrival, jid)``; the planner service memoises in process
and runs with the disk cache off, so repeated streams see identical
plans.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.cluster.jobs import JobSpec
from repro.cluster.placement import SlotGrid
from repro.cluster.programs import (
    LaunchSpec,
    launch_from_plan,
    launchable,
    naive_launch,
)
from repro.errors import ConfigurationError
from repro.mpi.comm import CollectiveOptions


class RunningAttempt(Protocol):
    """What schedulers may inspect about an in-flight attempt."""

    slots: tuple[int, ...]
    predicted_finish: float


class QueuedJob(Protocol):
    """What schedulers may inspect about a queued job."""

    job: JobSpec
    launch: LaunchSpec


class Scheduler:
    """Base class wiring the shared machine-model parameters."""

    name = "abstract"

    def __init__(self, *, alpha: float, beta: float, gamma: float) -> None:
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma

    def launch_spec(self, job: JobSpec,
                    options: CollectiveOptions | None = None) -> LaunchSpec:
        """How this scheduler would run ``job`` (grid, block, estimate)
        in a stream whose collectives default to ``options``."""
        return naive_launch(job, alpha=self.alpha, beta=self.beta,
                            gamma=self.gamma, options=options)

    def pick(self, queue: Sequence[QueuedJob], grid: SlotGrid, now: float,
             running: Sequence[RunningAttempt]):
        """The queued job to launch next, or ``None`` to wait."""
        raise NotImplementedError


class FifoScheduler(Scheduler):
    """Strict first-come-first-served."""

    name = "fifo"

    def pick(self, queue, grid, now, running):
        if not queue:
            return None
        head = queue[0]
        spec = head.launch
        if grid.find(spec.s, spec.t) is not None:
            return head
        return None


class EasyBackfillScheduler(Scheduler):
    """EASY backfilling: reserve for the head, backfill behind it."""

    name = "easy"

    def _backfill_candidates(self, queue):
        """Later jobs in the order backfill should try them."""
        return list(queue[1:])

    def pick(self, queue, grid, now, running):
        if not queue:
            return None
        head = queue[0]
        spec = head.launch
        if grid.find(spec.s, spec.t) is not None:
            return head
        # Shadow-release running attempts in predicted-finish order until
        # the head fits; that release time is the head's reservation.
        shadow = grid.clone()
        reserve_at = now
        fits_eventually = False
        for att in sorted(running,
                          key=lambda a: (a.predicted_finish, a.slots)):
            shadow.release(att.slots)
            reserve_at = max(reserve_at, att.predicted_finish)
            if shadow.find(spec.s, spec.t) is not None:
                fits_eventually = True
                break
        if not fits_eventually:
            # Estimates say the machine never drains enough (only when
            # predictions are inconsistent); fall back to pure FIFO.
            return None
        for rec in self._backfill_candidates(queue):
            cand = rec.launch
            if (grid.find(cand.s, cand.t) is not None
                    and now + cand.predicted <= reserve_at):
                return rec
        return None


class PlannerScheduler(EasyBackfillScheduler):
    """Planner-informed EASY: plans pick the launch, backfill goes
    shortest-predicted-first."""

    name = "planner"

    def __init__(self, *, alpha: float, beta: float, gamma: float) -> None:
        super().__init__(alpha=alpha, beta=beta, gamma=gamma)
        # Closed-form refinement: deterministic, no disk cache, and fast
        # enough to price every arrival; plans are memoised in process.
        from repro.planner.service import PlanService

        self._service = PlanService(cache_dir=None, refine="none")

    def launch_spec(self, job: JobSpec,
                    options: CollectiveOptions | None = None) -> LaunchSpec:
        from repro.planner.query import PlanQuery

        plan = self._service.plan(PlanQuery(
            n=job.n, p=job.p, alpha=self.alpha, beta=self.beta,
            gamma=self.gamma,
        ))
        if not launchable(plan):
            # At closed-form fidelity a 2.5D candidate can win the plan,
            # but its q x q x c layout has no rectangular slot-grid
            # placement; run the naive 2-D launch instead.
            return super().launch_spec(job, options)
        if job.algorithm is not None and plan.algorithm != job.algorithm:
            # The job pinned an algorithm the plan disagrees with; honour
            # the pin with the naive launch (the plan stays advisory).
            return super().launch_spec(job, options)
        return launch_from_plan(job, plan)

    def _backfill_candidates(self, queue):
        return sorted(queue[1:],
                      key=lambda r: (r.launch.predicted, r.job.arrival,
                                     r.job.jid))


SCHEDULERS = {
    "fifo": FifoScheduler,
    "easy": EasyBackfillScheduler,
    "planner": PlannerScheduler,
}


def resolve_scheduler(spec, *, alpha: float, beta: float,
                      gamma: float) -> Scheduler:
    """A scheduler instance from a name or a ready-made instance."""
    if isinstance(spec, Scheduler):
        return spec
    try:
        cls = SCHEDULERS[spec]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown scheduler {spec!r}; choose from {sorted(SCHEDULERS)}"
        ) from None
    return cls(alpha=alpha, beta=beta, gamma=gamma)
