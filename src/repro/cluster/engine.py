"""Multi-tenant discrete-event engine: many jobs, one event queue.

:class:`ClusterEngine` extends the single-run :class:`Engine` so that
several independent rank programs share one virtual clock and one
machine.  The split of responsibilities:

* Each job *attempt* binds a fresh, disjoint range of engine ranks
  (``ClusterNetwork.bind``); rank namespaces never overlap and never
  get reused, so no channel, endpoint or link bookkeeping can leak
  between jobs or between retries of one job, and an attempt's channels
  are dropped as soon as it ends (``_vacate``).
* An attempt's programs are built *at* its base
  (:func:`~repro.cluster.programs.build_programs`): the MPI layer,
  which already maps a communicator rank to a wire rank, folds the
  base into that map, so the point-to-point requests a job yields name
  engine ranks and nothing downstream rewrites a request.  Everything
  a job observes stays ``0..p-1``, and at base 0 the map is the
  standalone one — a 1-job stream is bit-identical to a standalone run.
* What the machine charges belongs to machine *slots*: the engine's
  one route per wire is keyed here by slot pair (``_route_key``), so a
  job placed where an earlier one ran shares its wire times and link
  cells and asks the machine nothing new.
* Scheduling is event-driven and happens *around* the engine, never
  inside its stepping loop: arrivals, attempt completions (counted by
  the :meth:`Engine._rank_finished` hook) and slot failures each
  trigger one dispatch round; the scheduler proposes one launch at a
  time until nothing more fits.
* Fail-stop faults hit machine *slots* at virtual times.  The owning
  attempt dies instantly (its ranks are marked finished, so the events
  still queued for them are dropped by the engine as stale), its slots
  free up, and the job is requeued at the back — or marked failed once
  its retry budget is exhausted.  Deaths are pushed before all arrivals
  so that at equal times a failure preempts a completion, matching the
  single-run engine's documented tie-break.

Everything is deterministic: the event queue is already FIFO within a
timestamp, schedulers break ties on explicit keys, and the only
randomness (Poisson arrivals) is seeded upstream.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.cluster.jobs import JobSpec, validate_stream
from repro.cluster.network import ClusterNetwork
from repro.cluster.placement import SlotGrid
from repro.cluster.programs import LaunchSpec, build_programs
from repro.cluster.schedulers import Scheduler
from repro.errors import ConfigurationError, SimulationError
from repro.mpi.comm import CollectiveOptions
from repro.network.model import Network
from repro.simulator.engine import Engine, _RankState
from repro.simulator.tracing import SimResult


class JobRecord:
    """Lifecycle of one job through the stream.

    ``status`` walks ``pending -> queued -> running -> done`` (or
    ``failed`` after exhausting retries, or ``rejected`` when the job
    can never fit the machine).  ``result`` carries the job's own
    :class:`SimResult` slice once done.
    """

    __slots__ = ("job", "launch", "status", "attempts", "first_start",
                 "finish", "retries_left", "failed_attempts", "result")

    def __init__(self, job: JobSpec, retries_left: int) -> None:
        self.job = job
        self.launch: LaunchSpec | None = None
        self.status = "pending"
        self.attempts: list[_Attempt] = []
        self.first_start: float | None = None
        self.finish: float | None = None
        self.retries_left = retries_left
        self.failed_attempts = 0
        self.result: SimResult | None = None

    @property
    def arrival(self) -> float:
        return self.job.arrival

    @property
    def queue_wait(self) -> float | None:
        """Seconds between submission and first start (None if never ran)."""
        if self.first_start is None:
            return None
        return self.first_start - self.job.arrival

    @property
    def latency(self) -> float | None:
        """Submission-to-completion seconds (None unless done/failed)."""
        if self.finish is None:
            return None
        return self.finish - self.job.arrival

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"JobRecord(jid={self.job.jid}, status={self.status!r}, "
                f"latency={self.latency})")


class _Attempt:
    """One launch of a job: a bound rank range on a slot block."""

    __slots__ = ("record", "base", "p", "slots", "start", "end",
                 "predicted_finish", "live", "dead")

    def __init__(self, record: JobRecord, base: int, slots: tuple[int, ...],
                 start: float, predicted_finish: float) -> None:
        self.record = record
        self.base = base
        self.p = len(slots)
        self.slots = slots
        self.start = start
        self.end: float | None = None
        self.predicted_finish = predicted_finish
        self.live = len(slots)   # unfinished ranks
        self.dead = False        # fail-stop hit


class ClusterEngine(Engine):
    """A DES hosting a whole job stream on one shared machine.

    Parameters
    ----------
    machine:
        The physical network whose ``nranks`` slots jobs are placed on.
    grid_shape:
        Logical ``(rows, cols)`` arrangement of those slots for
        rectangular placement (``rows * cols == machine.nranks``).
    capacity:
        Total engine ranks that may ever be bound (job sizes times
        allowed attempts); fixed up front because the base engine keys
        channels by ``src * nranks + dst``.
    scheduler:
        A :class:`repro.cluster.schedulers.Scheduler` instance.
    failures:
        Fail-stop events as ``(slot, time)`` pairs (already coerced by
        the driver).  Other fault classes are per-run mechanisms the
        stream does not inject.
    max_retries:
        Attempts allowed per job beyond the first.
    """

    #: The scheduler observes global time (an attempt's completion
    #: frees slots for whoever is queued *then*): a stream never
    #: replays a broadcast, it steps it (``Engine._step``, which keys an
    #: instance by its attempt's base rank: ``(cid, seq)`` repeats
    #: across jobs).
    _global_time = "job stream"

    def __init__(
        self,
        machine: Network,
        grid_shape: tuple[int, int],
        capacity: int,
        *,
        scheduler: Scheduler,
        gamma: float = 0.0,
        options: CollectiveOptions | None = None,
        contention: bool = True,
        collect_trace: bool = False,
        failures: Sequence[tuple[int, float]] = (),
        max_retries: int = 1,
        eager_threshold: int = 0,
        max_events: int = 200_000_000,
    ) -> None:
        rows, cols = grid_shape
        if rows * cols != machine.nranks:
            raise ConfigurationError(
                f"slot grid {rows}x{cols} does not cover a machine with "
                f"{machine.nranks} slots"
            )
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        super().__init__(
            ClusterNetwork(machine, capacity),
            contention=contention,
            collect_trace=collect_trace,
            max_events=max_events,
            eager_threshold=eager_threshold,
        )
        self.machine = machine
        self.scheduler = scheduler
        self.gamma = gamma
        self.options = options
        self.max_retries = max_retries
        self._grid = SlotGrid(rows, cols)
        self._failures = [(int(slot), float(t)) for slot, t in failures]
        for slot, _t in self._failures:
            if not (0 <= slot < machine.nranks):
                raise ConfigurationError(
                    f"failure targets slot {slot}, but the machine has "
                    f"{machine.nranks} slots"
                )

    # -- stream execution ---------------------------------------------------

    def serve(self, jobs: Iterable[JobSpec]) -> list[JobRecord]:
        """Run the whole stream; returns one record per job (jid order)."""
        jobs = validate_stream(list(jobs))
        records = [JobRecord(job, self.max_retries) for job in jobs]

        # Ranks are appended as attempts launch; self._attempts[r] maps
        # an engine rank back to its owning attempt.
        self._setup(self.network.nranks)
        self._attempts: list[_Attempt] = []
        self._queue: list[JobRecord] = []
        self._running: list[_Attempt] = []
        self._slot_owner: dict[int, _Attempt] = {}
        try:
            # Failures first: at equal virtual times a fail-stop preempts
            # arrivals and completions (same tie-break Engine.run
            # documents).
            for slot, t in self._failures:
                self._events.push(t, self._slot_failure, (slot, t))
            for record in records:
                self._events.push(record.job.arrival, self._job_arrival,
                                  (record, record.job.arrival))
            self._drain("job stream")
            stranded = [r.job.jid for r in self._queue]
        finally:
            self._release()
        if stranded:
            raise SimulationError(
                f"jobs {stranded} still queued after the machine drained "
                "(inconsistent scheduler/placement state)"
            )
        return sorted(records, key=lambda r: r.job.jid)

    # -- engine hooks -------------------------------------------------------

    def _rank_finished(self, state: _RankState, time: float) -> None:
        attempt = self._attempts[state.stats.rank]
        attempt.live -= 1
        if attempt.live == 0:
            # Defer completion to its own event so job teardown and
            # the next dispatch round never run in the middle of a
            # transfer-completion cascade.
            self._events.push(time, self._attempt_done, (attempt,))

    def _route_key(self, src: int, dst: int) -> tuple[int, int]:
        # Routes belong to machine slots, not to the engine ranks bound
        # to them.
        slots = self.network.slots
        return slots[src], slots[dst]

    # -- job lifecycle ------------------------------------------------------

    def _job_arrival(self, record: JobRecord, now: float) -> None:
        if record.launch is None:
            record.launch = self.scheduler.launch_spec(record.job,
                                                       self.options)
            if record.launch.s * record.launch.t != record.job.p:
                raise ConfigurationError(
                    f"scheduler proposed grid {record.launch.s}x"
                    f"{record.launch.t} for job {record.job.jid} with "
                    f"p={record.job.p}"
                )
        if not self._grid.fits_empty(record.launch.s, record.launch.t):
            record.status = "rejected"
            return
        record.status = "queued"
        self._queue.append(record)
        self._dispatch_jobs(now)

    def _dispatch_jobs(self, now: float) -> None:
        while self._queue:
            record = self.scheduler.pick(self._queue, self._grid, now,
                                         self._running)
            if record is None:
                return
            assert record.launch is not None
            slots = self._grid.allocate(record.launch.s, record.launch.t)
            if slots is None:
                raise SimulationError(
                    f"scheduler picked job {record.job.jid} but no "
                    f"{record.launch.s}x{record.launch.t} block is free"
                )
            self._queue.remove(record)
            self._launch(record, slots, now)

    def _launch(self, record: JobRecord, slots: tuple[int, ...],
                now: float) -> None:
        spec = record.launch
        assert spec is not None
        base = self.network.bind(slots)
        attempt = _Attempt(record, base, slots, now,
                           predicted_finish=now + spec.predicted)
        record.attempts.append(attempt)
        if record.first_start is None:
            record.first_start = now
        record.status = "running"
        self._running.append(attempt)
        for slot in slots:
            self._slot_owner[slot] = attempt
        programs = build_programs(record.job, spec, gamma=self.gamma,
                                  options=self.options,
                                  trace=self.collect_trace, base=base)
        states = [_RankState(base + offset, gen)
                  for offset, gen in enumerate(programs)]
        self._ranks.extend(states)
        self._attempts.extend([attempt] * len(states))
        for state in states:
            self._resume(state, None, now)

    def _attempt_done(self, attempt: _Attempt) -> None:
        if attempt.dead:
            return
        record = attempt.record
        finish = max(self._ranks[attempt.base + i].stats.clock
                     for i in range(attempt.p))
        attempt.end = finish
        for i in range(attempt.p):
            rank = attempt.base + i
            self._spans.finish(rank, self._ranks[rank].stats.clock)
        self._vacate(attempt)
        record.status = "done"
        record.finish = finish
        record.result = self._job_result(attempt)
        self._dispatch_jobs(finish)

    def _job_result(self, attempt: _Attempt) -> SimResult:
        base, p = attempt.base, attempt.p
        stats = [self._ranks[base + i].stats for i in range(p)]
        return_values = [self._ranks[base + i].retval for i in range(p)]
        trace = [t for t in self._trace if base <= t.src < base + p]
        spans = [s for s in self._spans.roots if base <= s.rank < base + p]
        return SimResult(stats=stats, return_values=return_values,
                         trace=trace, spans=spans)

    def _vacate(self, attempt: _Attempt) -> None:
        """Free the ended ``attempt``'s slots, its channels and the
        leg channels of its stepped broadcasts: engine ranks are never
        reused, so no later post can need them."""
        self._running.remove(attempt)
        self._grid.release(attempt.slots)
        for slot in attempt.slots:
            if self._slot_owner.get(slot) is attempt:
                del self._slot_owner[slot]
        base = attempt.base
        # A channel key is src * _rankmul + dst with dst < _rankmul.
        lo = base * self._rankmul
        hi = (base + attempt.p) * self._rankmul
        channels = self._channels
        for tag in list(channels):
            by_tag = channels[tag]
            for key in [k for k in by_tag if lo <= k < hi]:
                del by_tag[key]
            if not by_tag:
                del channels[tag]
        # Besides the memo entry (None) and the shape keys, _schedules
        # holds the leg channels of each (cid, base, shape key).
        schedules = self._schedules
        for key in [k for k in schedules
                    if k is not None and len(k) == 3 and k[1] == base]:
            del schedules[key]

    # -- fail-stop ----------------------------------------------------------

    def _slot_failure(self, slot: int, now: float) -> None:
        attempt = self._slot_owner.get(slot)
        if attempt is None or attempt.dead:
            return  # slot idle at failure time: the stream absorbs it
        attempt.dead = True
        attempt.end = now
        for i in range(attempt.p):
            rank = attempt.base + i
            state = self._ranks[rank]
            state.finished = True  # deadlock check must skip dead ranks
            self._spans.finish(rank, max(state.stats.clock, attempt.start))
        record = attempt.record
        self._vacate(attempt)
        record.failed_attempts += 1
        if record.retries_left > 0:
            record.retries_left -= 1
            record.status = "queued"
            # Requeue at the back: a failed job rejoins behind jobs that
            # arrived while it ran (documented retry policy).
            self._queue.append(record)
        else:
            record.status = "failed"
            record.finish = now
        self._dispatch_jobs(now)
