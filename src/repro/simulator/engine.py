"""Discrete-event engine executing SPMD rank programs over a network model.

Semantics
---------
* Rank programs are generators; the engine resumes them with the result
  of each yielded request.  Python control flow between yields costs
  zero virtual time — all cost comes from explicit
  :class:`~repro.simulator.requests.ComputeRequest`s and from message
  transfers.
* Point-to-point transfers are *rendezvous*: a send and its matching
  receive synchronise at ``max(post times)`` and both complete after
  the network's transfer time — the Hockney cost ``alpha + m*beta`` the
  paper builds on, with both endpoints occupied for the duration.
* Matching is MPI-like: FIFO per ``(src, dst, tag)`` channel; no
  wildcards (algorithms in this library always know their peers).
* With ``contention=True`` the engine serialises transfers that claim
  the same physical link (per :meth:`repro.network.Network.links`),
  which is how torus congestion effects enter.

The engine is single-threaded and fully deterministic: equal-time
events run in scheduling order.

Hot path
--------
This module is the bottom of every figure and test in the repository,
so its inner loop is written for speed without changing a single
observable bit (see ``docs/performance.md``):

* Requests dispatch through a table keyed on the request's class
  instead of an isinstance ladder.
* Events are ``(method, args)`` records in the
  :class:`~repro.simulator.events.EventQueue` — no closure is
  allocated per event.
* Every point-to-point operation — blocking, nonblocking and both legs
  of a fused ``SendRecvRequest`` — posts through one
  :meth:`Engine._post_send` / :meth:`Engine._post_recv` pair and
  completes through :meth:`Engine._transfer_done` (a blocking
  endpoint inline, a handle via :meth:`Engine._complete_handle`).
* Per-``(src, dst, tag)`` match state lives in interned
  :class:`_Channel` objects (one dict probe per post, each queue
  created by the first post that waits on it, the fault layer's
  ordinal inline).
* :class:`_Endpoint` objects, and the handles of fused sendrecvs, are
  pooled across transfers.
* One route per wire (:meth:`Engine._route`), shared by every channel
  and replayed leg on it, memoises the fault-free transfer time per
  message size (networks are pure cost models: the cached float is the
  exact float the network would return) and, under contention, the
  shared one-float cells of its links, each the time the link frees up.
* Under global time a broadcast is stepped from its recorded schedule
  (:meth:`Engine._step`): one event per leg, no endpoints, handles or
  generator frames.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Iterable

from repro.errors import DeadlockError, RankFailure, SimulationError
from repro.faults.schedule import chan_digest
from repro.network.model import Network
from repro.simulator import replay
from repro.simulator.events import EventQueue
from repro.simulator.requests import (
    RECV_TIMEOUT,
    CollectiveReply,
    CollectiveRequest,
    ComputeRequest,
    CounterRequest,
    IRecvRequest,
    ISendRequest,
    RecvRequest,
    RequestHandle,
    SendRecvRequest,
    SendRequest,
)
from repro.simulator.spans import SpanCloseRequest, SpanOpenRequest, SpanRecorder
from repro.simulator.tracing import RankStats, SimResult, TransferRecord

RankProgram = Generator[Any, Any, Any]

#: Returned by request handlers when the rank parked; never a payload.
_PARKED = object()

#: Marks a handle as the *last* leg of a pair wait: its completion
#: resumes the parked rank with the stashed ``resume_value`` (the first
#: leg's payload) instead of its own.
_PAIR_FINAL = object()

#: Upper bound on pooled endpoints (a pool can never grow past the
#: peak number of simultaneously pending operations anyway; the cap is
#: a belt-and-braces guard against pathological programs).
_EP_POOL_MAX = 4096

#: Cap on recycled sendrecv handles (two live per parked rank, so
#: even a 2048-rank run stays within the cap).
_RH_POOL_MAX = 4096

#: Why a run observes global time, for the reasons under which a
#: broadcast is stepped from its recorded schedule rather than through
#: its generators (the others — the eager protocol, a drain around an
#: unfilled broadcast — must see every message move; so must an eager
#: run whatever else it switches on, a schedule being rendezvous, and a
#: watched run, see ``Engine._observed``).
_STEPPING = frozenset({"contention", "transfer trace", "faults",
                       "span trace", "timed receive", "job stream"})

#: A stepped rank's fused shift whose receive leg is done: it now
#: waits on the send leg.
_AWAIT_SEND = object()

#: A recorded step's mode for a blocking send or receive.
_BLOCKING = replay.BLOCKING


class _Endpoint:
    """One side of a pending point-to-point operation."""

    __slots__ = ("rank", "post_time", "payload", "nbytes", "handle",
                 "eager_arrival", "span", "matched", "timed")

    def __init__(
        self,
        rank: int,
        post_time: float,
        payload: Any = None,
        nbytes: int = 0,
        handle: RequestHandle | None = None,
        span: str | None = None,
    ):
        self.rank = rank
        self.post_time = post_time
        self.payload = payload
        self.nbytes = nbytes
        self.handle = handle  # None => blocking operation
        self.eager_arrival: float | None = None  # set for in-flight eager sends
        self.span = span  # sender's open-span path at post time
        self.matched = False  # set when paired; gates timed-recv expiry
        self.timed = False  # a pending expiry event references this ep


class _Route:
    """The run's one route per wire (see :meth:`Engine._route`): ``tt``
    maps nbytes to the fault-free wire time (bulk-synchronous traffic
    repeats a handful of sizes per wire thousands of times), ``claims``
    holds the link cells under contention (see :meth:`Engine._claims`)."""

    __slots__ = ("tt", "claims")

    def __init__(self) -> None:
        self.tt: dict[int, float] = {}
        self.claims: tuple | None = None


class _Channel:
    """Interned match state of one ``(src, dst, tag)`` channel.

    Holds the FIFO send/recv queues plus the fault layer's per-channel
    message ordinal, so the hot matching path performs a single dict
    probe, and its wire's route.  A queue is created by the first post
    that has to wait on it: a stepped broadcast leg never queues, and a
    post whose partner is already waiting only pops, so most channels
    of a run under global time hold no queue (two empty deques are
    1.5 KB, six times the rest of the channel).
    """

    # __weakref__: tests hold that a finished run frees its channels.
    __slots__ = ("src", "dst", "tag", "sends", "recvs", "ordinal", "route",
                 "__weakref__")

    def __init__(self, src: int, dst: int, tag: Any, route: _Route):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.sends: deque[_Endpoint] | None = None
        self.recvs: deque[_Endpoint] | None = None
        self.ordinal = 0  # messages already charged to the fault layer
        self.route = route


class _RankState:
    __slots__ = ("gen", "stats", "blocked_on", "block_start", "finished",
                 "retval", "resume_value")

    def __init__(self, rank: int, gen: RankProgram):
        self.gen = gen
        self.stats = RankStats(rank=rank)
        self.blocked_on: Any = None
        self.block_start = 0.0
        self.finished = False
        self.retval: Any = None
        self.resume_value: Any = None  # stashed for _PAIR_FINAL wake-ups


class _Stepped:
    """One broadcast instance stepped from its recorded schedule (see
    :meth:`Engine._step`).

    ``steps`` and ``lanes`` are the schedule's (shared by the process);
    ``chans`` the run's channel of every leg.  Per rank, indexed by
    communicator rank: its state once it announced, its open span path,
    its next lane entry, and for a fused shift the send leg's finish
    (or ``_AWAIT_SEND``).  ``first`` holds the post clock of a leg's
    first side until its second side posts."""

    __slots__ = ("steps", "lanes", "chans", "reply", "states", "spans", "at",
                 "hold", "first", "joined")

    def __init__(self, steps: tuple, lanes: tuple, chans: tuple,
                 payload: Any) -> None:
        size = len(lanes)
        self.steps = steps
        self.lanes = lanes
        self.chans = chans
        self.reply = CollectiveReply(payload)
        self.states: list[Any] = [None] * size
        self.spans: list[str | None] = [None] * size
        self.at = [0] * size
        self.hold: list[Any] = [None] * size
        self.first: list[float | None] = [None] * len(steps)
        self.joined = 0

    def pending(self, state: "_RankState") -> Any:
        """The request expansion would show ``state`` blocked on."""
        me = self.states.index(state)
        entry = self.lanes[me][self.at[me] - 1]
        chan = self.chans[entry >> 2]
        kind = entry & 3
        if kind == 0:
            return SendRequest(chan.dst, chan.tag, None,
                               self.steps[entry >> 2][2])
        if kind == 1:
            return RecvRequest(chan.src, chan.tag)
        return RequestHandle(state.stats.rank, "send"
                             if self.hold[me] is _AWAIT_SEND else "recv")


def _pending_op_info(op: Any) -> dict:
    """Machine-readable description of a blocked rank's pending
    operation, for :class:`~repro.errors.DeadlockError`'s structured
    ``blocked`` payload.  ``peer`` is a world rank when the operation
    names one; tags are the wire tags the engine matches on."""
    info: dict[str, Any] = {"repr": repr(op)}
    cls = op.__class__
    if cls is RecvRequest:
        info.update(kind="recv", peer=op.src, tag=op.tag)
    elif cls is SendRequest:
        info.update(kind="send", peer=op.dst, tag=op.tag)
    elif cls is RequestHandle:
        info.update(kind=f"wait-{op.kind}", peer=None, tag=None)
    elif cls is tuple:
        info.update(kind="wait-pair", peer=None, tag=None)
    elif cls is CollectiveRequest:
        info.update(kind="collective", op=op.op, cid=op.cid, seq=op.seq,
                    participants=op.participants)
    elif cls is SendRecvRequest:
        info.update(kind="sendrecv", peer=op.src, tag=op.recvtag)
    else:
        info.update(kind="unknown")
    return info


class Engine:
    """Run a set of rank programs to completion over ``network``.

    Parameters
    ----------
    network:
        Cost model; must cover at least as many ranks as programs.
    contention:
        Serialise transfers sharing physical links. Off by default — the
        paper's analysis neglects congestion, and the homogeneous model
        has no shared links anyway.
    collect_trace:
        Record every completed transfer in the result (memory-heavy for
        large runs; meant for tests and debugging).
    max_events:
        Hard cap on processed events, guarding against runaway programs.
    eager_threshold:
        Messages of at most this many bytes use the MPI *eager*
        protocol: the send completes after injecting the message,
        without waiting for the matching receive (which later completes
        at ``max(recv post, arrival)``).  At the default 0 every message
        that carries bytes is a rendezvous, as the paper's model
        assumes; a zero-byte message (a ``None`` payload: barriers,
        acknowledgements) satisfies ``nbytes <= 0`` and is eager even
        then.  Real MPI implementations eagerly buffer small messages,
        which removes the send-send deadlocks rendezvous would have.
    faults:
        Optional :class:`repro.faults.FaultSchedule` injecting link
        degradation, message drops (with automatic retransmission),
        rank slowdowns and fail-stop deaths.  ``None`` (and an empty
        schedule) leaves every code path — including float operation
        order — bit-identical to the fault-free engine.
    """

    #: Advance compute requests inline instead of via a heap event.
    #: Times are identical either way; the discovery *order* of
    #: transfers (hence the pinned trace artifacts) is only guaranteed
    #: stable with the event, so the base DES keeps it off.
    _inline_compute = False

    #: May a repeated blocking broadcast be replayed from its recorded
    #: schedule (see :meth:`_filled`), or stepped from it under global
    #: time (see :meth:`_step`)?  The replay property tests' reference,
    #: :class:`ExpandingEngine`, says no: every message moves through
    #: the generators.
    _replay = True

    #: Is every rank program watched request by request (the verifier's
    #: recorder sets it on the instance for one run)?  A watched run
    #: replays a broadcast only if its schedule lays out each rank's
    #: legs (:meth:`repro.simulator.replay.Schedule.lanes`): the reply
    #: carries the schedule, and the watcher credits the rank its legs
    #: from it.  It never steps one: a stepped rank would show the
    #: watcher no request of its own, and a deadlock inside the
    #: broadcast would read as a wait on the collective.
    _observed = False

    #: Why every run of this class observes global time (None: only the
    #: switches of a run make it so); such a run never replays.
    _global_time: str | None = None

    #: What :meth:`_release` drops (subclasses add their own).
    _RUN_TABLES: tuple[str, ...] = (
        "_ranks", "_events", "_pending", "_schedules", "_routes", "_channels",
        "_link_free", "_ep_pool", "_rh_pool")

    def __init__(
        self,
        network: Network,
        *,
        contention: bool = False,
        collect_trace: bool = False,
        max_events: int = 200_000_000,
        eager_threshold: int = 0,
        faults: Any = None,
    ) -> None:
        self.network = network
        self.contention = contention
        self.collect_trace = collect_trace
        self.max_events = max_events
        if eager_threshold < 0:
            raise SimulationError(
                f"eager_threshold must be >= 0, got {eager_threshold}"
            )
        self.eager_threshold = eager_threshold
        if faults is not None and getattr(faults, "empty", False):
            faults = None  # empty schedule: take the fault-free fast path
        self._faults = faults
        # Request class -> bound handler; the unknown-subclass path
        # resolves through _resolve_handler and caches here.
        self._dispatch = {
            CollectiveRequest: self._handle_collective,
            ComputeRequest: self._handle_compute,
            SendRequest: self._handle_send,
            RecvRequest: self._handle_recv,
            SpanOpenRequest: self._handle_span_open,
            SpanCloseRequest: self._handle_span_close,
            CounterRequest: self._handle_counter,
            ISendRequest: self._handle_isend,
            IRecvRequest: self._handle_irecv,
            # A handle yielded as a request waits on itself.
            RequestHandle: self._handle_wait_handle,
            # A 2-tuple batches two operations into one resume: a pair
            # of nonblocking requests posts both, a pair of handles
            # waits on both in tuple order (see _handle_tuple).
            tuple: self._handle_tuple,
            # The fused shift primitive: both posts plus both waits in
            # one resume (see _handle_sendrecv).
            SendRecvRequest: self._handle_sendrecv,
        }

    # -- public API --------------------------------------------------------

    def run(self, programs: Iterable[RankProgram]) -> SimResult:
        """Execute ``programs`` (one generator per rank) and return stats."""
        gens = list(programs)
        if not gens:
            raise SimulationError("no rank programs supplied")
        if len(gens) > self.network.nranks:
            raise SimulationError(
                f"{len(gens)} programs but network only models "
                f"{self.network.nranks} ranks"
            )
        self._setup(len(gens))
        try:
            ranks = self._ranks
            ranks.extend(_RankState(i, g) for i, g in enumerate(gens))
            if self._faults is not None:
                # Deaths are pushed before the initial resumes so that at
                # equal virtual times a fail-stop preempts completions —
                # a deterministic, documented tie-break.  Deaths aimed at
                # ranks not in this run are ignored (a schedule may be
                # reused across runs of different sizes).
                for death in self._faults.death_events():
                    if death.rank < len(ranks):
                        self._events.push(death.time, self._rank_death,
                                          (death,))
            for state in ranks:
                self._resume(state, None, state.stats.clock)
            self._drain("simulation")
            for state in ranks:
                self._spans.finish(state.stats.rank, state.stats.clock)
            return SimResult(
                stats=[s.stats for s in ranks],
                return_values=[s.retval for s in ranks],
                trace=self._trace,
                spans=self._spans.roots,
                replay=self._report,
            )
        finally:
            self._release()

    # -- one execution: set-up, drain, release ------------------------------

    def _setup(self, nranks: int) -> None:
        """Fresh per-run tables for an execution spanning ``nranks``
        ranks; ``_ranks`` starts empty (a job stream appends as it
        launches).

        Count before adding one: an engine with more than 30 instance
        attributes loses CPython's key-sharing dictionary and every
        ``self.x`` of the hot path with it (8 % of a collapsed macro
        run, measured; ``tests/simulator/test_release.py`` pins it)."""
        self._ranks: list[_RankState] = []
        self._events = EventQueue()
        self._trace: list[TransferRecord] = []
        self._spans = SpanRecorder(nranks)
        self._nevents = 0
        #: (cid, seq) -> [(rank state, its request)]: ranks parked at a
        #: collective announcement until every participant has arrived.
        self._pending: dict[tuple, list] = {}
        # Replay needs a run without global time: each of these
        # switches introduces one (link occupancy, the discovery order
        # of the trace, fault windows, eager arrivals).
        self._expanding: str | None = (
            "expansion requested" if not self._replay
            else "contention" if self.contention
            else "transfer trace" if self.collect_trace
            else "faults" if self._faults is not None
            else "eager protocol" if self.eager_threshold
            else self._global_time)
        #: The run's replay table (see _filled): shape key (a tuple) ->
        #: recorded Schedule or the reason it has none.  Its key None
        #: holds the replay memos: (communicator id -> its placement
        #: class's memo, placement key -> that memo); a key ``(cid,
        #: base, shape key)`` the channels of a stepped shape's legs
        #: on that communicator (see _step).
        self._schedules: dict[tuple | None, Any] = {None: ({}, {})}
        #: Route key -> the run's route of that wire (see _route).
        self._routes: dict[Any, _Route] = {}
        self._report: dict | None = {
            "replayed": 0, "expanded": 0, "stepped": 0, "recorded": 0,
            "reasons": {}}
        self._setup_matching()

    def _setup_matching(self) -> None:
        """The tables of the point-to-point machinery (an engine that
        matches nothing itself — the collapsed macro engine — has
        none)."""
        # tag -> (src * nranks + dst) -> channel: the int inner key is
        # cheap to hash and spares a 3-tuple allocation per post.
        self._channels: dict[Any, dict[int, _Channel]] = {}
        self._rankmul = self.network.nranks
        #: link -> its one-float cell: the time the link frees up.
        self._link_free: dict[Any, list[float]] = {}
        self._ep_pool: list[_Endpoint] = []
        # Handles created by _handle_sendrecv never escape the engine,
        # so they are recycled once their pair wait resumes.
        self._rh_pool: list[RequestHandle] = []
        # Per-tag channel digests for deterministic drop decisions
        # (see repro.faults); the per-channel ordinal lives on _Channel.
        self._chan_digests: dict[Any, int] = {}

    def _drain(self, what: str) -> None:
        """Run the event queue dry; a rank still unfinished then is a
        deadlock of ``what``."""
        events = self._events
        max_events = self.max_events
        while True:
            while events:
                _time, batch = events.pop_batch()
                self._nevents += len(batch)
                if self._nevents > max_events:
                    raise SimulationError(
                        f"event cap of {max_events} exceeded; "
                        "likely a livelock in a rank program"
                    )
                for _t, _seq, fn, args in batch:
                    fn(*args)
            if not self._pending:
                break
            # A broadcast some participant never joined (or joins only
            # after hearing from a parked one): expand what is parked,
            # so a deadlock is reported in point-to-point terms.
            if self._expanding is None:
                self._stop_replaying("unfilled at drain")
            elif (self._expanding not in _STEPPING
                  or not self._release_unfilled()):
                break

        blocked = [
            (s.stats.rank, s.blocked_on.pending(s)
             if s.blocked_on.__class__ is _Stepped else s.blocked_on)
            for s in self._ranks
            if not s.finished
        ]
        if blocked:
            detail = ", ".join(f"rank {r} on {op!r}" for r, op in blocked[:8])
            more = "" if len(blocked) <= 8 else f" (+{len(blocked) - 8} more)"
            raise DeadlockError(
                f"{what} deadlocked: {detail}{more}",
                blocked={r: _pending_op_info(op) for r, op in blocked},
            )

    def _release(self) -> None:
        """Drop the tables of a finished execution.  An engine is a
        reference cycle (``_dispatch`` holds its bound methods), so
        whatever it still holds waits for the collector's next full
        pass; emptied here, rank states and channels go by reference
        count the moment the run returns."""
        for table in self._RUN_TABLES:
            self.__dict__.pop(table, None)

    # -- generator stepping -------------------------------------------------

    def _resume(self, state: _RankState, value: Any, time: float) -> None:
        """Resume ``state`` at virtual ``time`` with ``value``, then keep
        stepping it through zero-time requests until it blocks or ends.
        A finished rank is never stepped: an event still aimed at one
        (the ranks of a killed stream attempt are marked finished) is
        stale, and dropping it here spares scrubbing the heap."""
        if state.finished:
            return
        stats = state.stats
        if time > stats.clock:
            stats.clock = time
        elif time < stats.clock:
            # Woken by a completion earlier than its own clock — only
            # possible once ranks step out of time order, after a
            # replayed broadcast let some leave before the last
            # arrived.  A rank is stepped when the queue reaches its
            # clock, never ahead of it (a timed receive relies on it).
            self._events.push(stats.clock, self._resume,
                              (state, value, stats.clock))
            return
        # Handlers that park set blocked_on again; while the rank is
        # actively stepping it is by definition not blocked, so one
        # clear per resume replaces one per request.
        state.blocked_on = None
        send = state.gen.send
        dispatch = self._dispatch
        while True:
            try:
                request = send(value)
            except StopIteration as stop:
                state.finished = True
                state.retval = stop.value
                self._rank_finished(state, time)
                return
            try:
                handler = dispatch[request.__class__]
            except KeyError:
                handler = self._resolve_handler(state, request)
            value = handler(state, request, stats.clock)
            if value is _PARKED:
                return

    def _rank_finished(self, state: _RankState, time: float) -> None:
        """Hook: ``state``'s program returned during the resume at
        virtual ``time``."""

    def _resolve_handler(self, state: _RankState, request: Any):
        """Slow path: map an unseen request subclass to its handler."""
        for cls, handler in list(self._dispatch.items()):
            if isinstance(request, cls):
                self._dispatch[request.__class__] = handler
                return handler
        raise SimulationError(
            f"rank {state.stats.rank} yielded unknown request {request!r}"
        )

    # -- request handlers ---------------------------------------------------
    #
    # Each handler returns the value to feed back into the generator,
    # or the _PARKED sentinel when the rank blocked (the engine then
    # returns to the event loop; a later event resumes the rank).

    def _handle_collective(self, state: _RankState,
                           request: CollectiveRequest, now: float) -> Any:
        # Zero virtual time to *announce*: the request describes the
        # collective about to run.  Absorbed (resumed with None), the
        # communicator expands it into the exact point-to-point
        # schedule; parked (see _collective), the rank waits for the
        # other participants and for whatever _filled decides.
        if self._collective(state, request, now):
            return _PARKED
        return None

    def _handle_compute(self, state: _RankState, request: ComputeRequest,
                        now: float) -> Any:
        stats = state.stats
        seconds = request.seconds
        if self._faults is not None:
            factor = self._faults.compute_factor(stats.rank, now)
            if factor != 1.0:
                slowed = seconds * factor
                stats.fault_delay += slowed - seconds
                seconds = slowed
        stats.compute_time += seconds
        if self._inline_compute:
            # Purely local: advance this rank's clock without a wake-up
            # event.  Subclasses with no ordering-sensitive observers
            # (the macro backend) opt in; the base engine keeps the
            # event so the transfer trace's discovery order — a pinned
            # artifact — is unchanged.
            stats.clock = now + seconds
            return None
        state.blocked_on = request
        finish = now + seconds
        self._events.push(finish, self._resume, (state, None, finish))
        return _PARKED

    # Every point-to-point handler posts through _post_send /
    # _post_recv: pool an endpoint, probe the channel, match against
    # the opposite queue or queue up.  Against an inlined copy per
    # handler plus a fused fault-free path, the calls cost the
    # des_general benchmark 2.1 % of wall_s (1.235 -> 1.260 s, ten
    # pairs, 2-vCPU Xeon, CPython 3.11); its verified SUMMA, the one
    # operation that took the fused path, 5.5 %.  Putting every message
    # on the wire through one method (_occupy) instead of three inlined
    # copies cost the contended SUMMA of des_general 3.3 % (0.127 ->
    # 0.131 s, the change faster in 4 of 20 alternating pairs) and
    # des_general's wall_s 0.4 % (0.939 -> 0.943 s, 11 of 20), inside
    # the run-to-run spread (2-vCPU Xeon, CPython 3.11).
    #
    # Pool invariant (established at every release site): a pooled
    # endpoint has payload=None, handle=None, span=None,
    # eager_arrival=None, matched=False, timed=False.  Only rank,
    # post_time and nbytes are stale, so acquisition writes just the
    # fields the operation needs.

    def _handle_send(self, state: _RankState, request: SendRequest,
                     now: float) -> Any:
        rank = state.stats.rank
        dst = request.dst
        if dst == rank:
            raise SimulationError(
                f"rank {rank}: blocking send to self deadlocks"
            )
        state.blocked_on = request
        state.block_start = now
        self._post_send(rank, dst, request.tag, request.payload,
                        request.nbytes, None, now)
        return _PARKED

    def _handle_recv(self, state: _RankState, request: RecvRequest,
                     now: float) -> Any:
        timeout = request.timeout
        if timeout is not None and self._expanding is None:
            # A timed receive observes global time: a rank parked at a
            # broadcast must not hold back the send that would beat
            # the deadline.
            self._stop_replaying("timed receive")
        state.blocked_on = request
        state.block_start = now
        self._post_recv(state, request.src, request.tag, None, now, timeout)
        return _PARKED

    def _post_send(self, rank: int, dst: int, tag: Any, payload: Any,
                   nbytes: int, handle: RequestHandle | None,
                   now: float) -> None:
        """Post ``rank``'s send to ``dst`` (``handle`` None: blocking):
        start the transfer against the channel's oldest queued receive,
        or queue it — injected at once if it is eager-size."""
        spans = self._spans
        span = spans.current_path(rank) if spans.nopen else None
        pool = self._ep_pool
        if pool:
            ep = pool.pop()
            ep.rank = rank
            ep.post_time = now
            ep.payload = payload
            ep.nbytes = nbytes
            ep.handle = handle
            ep.span = span
        else:
            ep = _Endpoint(rank, now, payload, nbytes, handle, span)
        try:
            chan = self._channels[tag][rank * self._rankmul + dst]
        except KeyError:
            chan = self._make_channel(rank, dst, tag)
        queue = chan.recvs
        if queue:
            recv = queue.popleft()
            recv.matched = True
            self._start_transfer(chan, ep, recv)
            return
        if nbytes <= self.eager_threshold and rank != dst:
            self._eager_send(chan, ep)
        queue = chan.sends
        if queue is None:
            queue = chan.sends = deque()
        queue.append(ep)

    def _post_recv(self, state: _RankState, src: int, tag: Any,
                   handle: RequestHandle | None, now: float,
                   timeout: float | None = None) -> None:
        """Post ``state``'s receive from ``src`` (``handle`` None:
        blocking): start the transfer from the channel's oldest queued
        send, or queue it — with an expiry event if it is timed."""
        rank = state.stats.rank
        pool = self._ep_pool
        if pool:
            ep = pool.pop()
            ep.rank = rank
            ep.post_time = now
            ep.handle = handle
        else:
            ep = _Endpoint(rank, now, handle=handle)
        try:
            chan = self._channels[tag][src * self._rankmul + rank]
        except KeyError:
            chan = self._make_channel(src, rank, tag)
        queue = chan.sends
        # A queued send is normally older than this receive; one posted
        # past the deadline (by a rank stepped ahead of this one, after
        # a replayed broadcast) must not beat the deadline.
        if queue and (timeout is None or queue[0].post_time <= now + timeout):
            ep.matched = True
            self._start_transfer(chan, queue.popleft(), ep)
            return
        if not queue:
            queue = chan.recvs
            if queue is None:
                queue = chan.recvs = deque()
            queue.append(ep)
        if timeout is not None:
            # The deadline bounds *matching*, not completion: once a
            # send pairs up, the transfer always runs to the end (as on
            # a real wire).
            ep.timed = True
            deadline = now + timeout
            self._events.push(
                deadline, self._recv_timeout, (state, ep, chan, deadline)
            )

    def _handle_span_open(self, state: _RankState, request: SpanOpenRequest,
                          now: float) -> Any:
        # Zero virtual time: absorbed inline, no event scheduled, so
        # traced and untraced runs are bit-identical.  Root spans are
        # kept in opening order, which replay would permute.
        if self._expanding is None:
            self._stop_replaying("span trace")
        self._spans.open(state.stats.rank, request.name, request.attrs, now)
        return None

    def _handle_span_close(self, state: _RankState, request: SpanCloseRequest,
                           now: float) -> Any:
        self._spans.close(state.stats.rank, request.attrs, now)
        return None

    def _handle_counter(self, state: _RankState, request: CounterRequest,
                        now: float) -> Any:
        # Zero virtual time: the MPI layer reporting a recovery.
        stats = state.stats
        setattr(stats, request.name,
                getattr(stats, request.name) + request.amount)
        return None

    def _handle_isend(self, state: _RankState, request: ISendRequest,
                      now: float) -> Any:
        rank = state.stats.rank
        handle = RequestHandle(rank, "send")
        self._post_send(rank, request.dst, request.tag, request.payload,
                        request.nbytes, handle, now)
        return handle

    def _handle_irecv(self, state: _RankState, request: IRecvRequest,
                      now: float) -> Any:
        handle = RequestHandle(state.stats.rank, "recv")
        self._post_recv(state, request.src, request.tag, handle, now)
        return handle

    def _handle_wait_handle(self, state: _RankState, handle: RequestHandle,
                            now: float) -> Any:
        stats = state.stats
        if handle.rank != stats.rank:
            raise SimulationError(
                f"rank {stats.rank} waiting on rank {handle.rank}'s handle"
            )
        if handle.done and handle.finish_time <= now:
            return handle.payload
        return self._await(state, handle, None, now)

    def _await(self, state: _RankState, handle: RequestHandle, pair: Any,
               now: float) -> Any:
        """Park ``state`` at ``now`` as the waiter of ``handle`` (with
        ``pair`` as in :meth:`_handle_wait_pair`).  A handle that is
        done but finished *later* than ``now`` — possible only when
        ranks step out of time order, after a replayed broadcast — is
        delivered again at its finish time, so the wait is charged and
        the rank resumed exactly as if it had found the handle
        pending."""
        state.blocked_on = handle
        state.block_start = now
        handle._waiter = True
        handle._parked_state = state
        handle._pair = pair
        if handle.done:
            self._events.push(
                handle.finish_time, self._complete_handle,
                (handle, handle.finish_time, handle.payload))
        return _PARKED

    def _handle_tuple(self, state: _RankState, batch: tuple, now: float) -> Any:
        """Batched yield: two operations in one generator resume.

        ``(ISendRequest, IRecvRequest)`` posts both nonblocking
        operations and resumes with ``(handle, handle)``;
        ``(handle, handle)`` waits on both **in tuple order** with
        exactly the float operations of two sequential waits (see
        :meth:`_pair_continue`).  Each saves one full trip through the
        generator stack, which on deeply delegated collective loops
        (``summa -> bcast -> ring``) is the single largest remaining
        hot-path cost.
        """
        if len(batch) != 2:
            raise SimulationError(
                f"rank {state.stats.rank} yielded a {len(batch)}-tuple; "
                "batched yields are pairs"
            )
        a, b = batch
        if a.__class__ is RequestHandle and b.__class__ is RequestHandle:
            return self._handle_wait_pair(state, batch, now)
        dispatch = self._dispatch
        ha = dispatch.get(a.__class__) or self._resolve_handler(state, a)
        va = ha(state, a, now)
        hb = dispatch.get(b.__class__) or self._resolve_handler(state, b)
        vb = hb(state, b, now)
        if va is _PARKED or vb is _PARKED:
            raise SimulationError(
                f"rank {state.stats.rank} batched a blocking request; "
                "only nonblocking posts and completed waits may be batched"
            )
        return (va, vb)

    def _handle_wait_pair(self, state: _RankState, pair: tuple,
                          now: float) -> Any:
        """Wait on two handles in tuple order without an intermediate
        resume.  Resumes with the *first* handle's payload.
        Bit-identical to two sequential waits: the wait time of each
        handle is charged in tuple order with the same float
        operations."""
        first, second = pair
        stats = state.stats
        if first.rank != stats.rank or second.rank != stats.rank:
            raise SimulationError(
                f"rank {stats.rank} waiting on another rank's handle"
            )
        if first.done and first.finish_time <= now:
            if second.done and second.finish_time <= now:
                return first.payload
            # First already over: only the second leg remains.
            state.resume_value = first.payload
            return self._await(state, second, _PAIR_FINAL, now)
        self._await(state, first, second, now)
        state.blocked_on = pair
        return _PARKED

    def _pair_continue(self, parked: _RankState, second: RequestHandle,
                       now: float, value: Any) -> None:
        """Second half of a parked pair wait.  The first handle just
        completed (its wait already charged by the caller, its payload
        passed as ``value``); mirror the float operations of resuming
        the rank and immediately waiting on ``second`` — without
        actually resuming the generator."""
        stats = parked.stats
        if now > stats.clock:
            stats.clock = now
        if second.done and second.finish_time <= stats.clock:
            self._resume(parked, value, now)
            rpool = self._rh_pool
            if second._internal and len(rpool) < _RH_POOL_MAX:
                second.done = False
                second.payload = None
                second._parked_state = None
                rpool.append(second)
            return
        parked.resume_value = value
        self._await(parked, second, _PAIR_FINAL, stats.clock)

    def _handle_sendrecv(self, state: _RankState, request: SendRecvRequest,
                         now: float) -> Any:
        """Post the send, post the receive, wait on both (receive
        first) — _handle_isend, _handle_irecv and _handle_wait_pair in
        one resume.  Completions arrive via events, so neither handle
        can be done here: always park on the receive with the send as
        its pair.  Both handles come from a recycle pool: they never
        escape the engine, so their lifetime ends with the pair wait
        (see the ``_internal`` recycling in :meth:`_complete_handle`
        and :meth:`_pair_continue`)."""
        rank = state.stats.rank
        rpool = self._rh_pool
        if rpool:
            shandle = rpool.pop()
            shandle.rank = rank
            shandle.kind = "send"
        else:
            shandle = RequestHandle(rank, "send")
            shandle._internal = True
        if rpool:
            rhandle = rpool.pop()
            rhandle.rank = rank
            rhandle.kind = "recv"
        else:
            rhandle = RequestHandle(rank, "recv")
            rhandle._internal = True
        self._post_send(rank, request.dst, request.sendtag, request.payload,
                        request.nbytes, shandle, now)
        self._post_recv(state, request.src, request.recvtag, rhandle, now)
        return self._await(state, rhandle, shandle, now)

    def _collective(self, state: _RankState, request: CollectiveRequest,
                    now: float) -> bool:
        """Hook: park ``state`` at its announcement (:meth:`_park`) and
        return ``True`` — whoever resumes it later does so with a
        :class:`~repro.simulator.requests.CollectiveReply`, or with
        ``None`` to make it expand after all — or return ``False`` to
        absorb the announcement, so the communicator expands the
        collective into point-to-point messages now.

        The DES takes over broadcasts only (a reduction must keep its
        data-mode summation order): it parks them while nothing in the
        run observes global time, and steps them from their recorded
        schedules once something does (unless the run is watched: see
        :attr:`_observed`)."""
        if request.op != "bcast":
            return False
        reason = self._expanding
        if len(request.participants) > 1:
            if reason is None:
                self._park(state, request, now)
                return True
            if self._steps(reason):
                return self._step(state, request, now)
        if request.me == request.root:
            self._count_expanded(reason or "one-rank communicator")
        return False

    def _park(self, state: _RankState, request: CollectiveRequest,
              now: float) -> None:
        """Park ``state`` on its announcement; the participant that
        completes the collective hands it to :meth:`_filled`."""
        state.blocked_on = request
        state.block_start = now
        key = (request.cid, request.seq)
        entry = self._pending.get(key)
        if entry is None:
            entry = self._pending[key] = []
        entry.append((state, request))
        if len(entry) == len(request.participants):
            del self._pending[key]
            self._filled(entry)

    def _filled(self, entry: list[tuple[_RankState, CollectiveRequest]]
                ) -> None:
        """Every participant of a broadcast is parked: replay it from
        the schedule recorded for its shape, or release it to expand.
        The choice is made here, once per collective — never while one
        is half parked — so all its participants take one path.

        A replayed rank gets the engine's own float operations in the
        engine's order (:meth:`repro.simulator.replay.Schedule.replay`)
        and one event, at its own exit clock.

        Those floats are a function of the schedule, the wires and the
        inputs alone, and communicators with equal placement keys have
        bit-equal wires: so a shape on a placement class prices its legs
        once, and the last few distinct ``(arrival clocks, comm_time)``
        of it, compared with ``==``, hand back their exits."""
        req0 = entry[0][1]
        root = req0.root
        size = len(entry)
        clock = [0.0] * size
        comm = [0.0] * size
        payload = None
        for st, req in entry:
            clock[req.me] = st.stats.clock
            comm[req.me] = st.stats.comm_time
            if req.me == root:
                payload = req.payload
        key, schedule = self._recorded(req0, payload)
        if schedule.__class__ is str:
            self._release_parked(entry, schedule)
            return
        if self._observed:
            laid = schedule.lanes(root)
            if laid.__class__ is str:
                self._release_parked(entry, laid)
                return
        schedules = self._schedules
        parts = req0.participants
        base = entry[0][0].stats.rank - parts[req0.me]
        if base:  # contexts bound at a non-zero base: price engine ranks
            parts = [r + base for r in parts]
        by_cid, by_class = schedules[None]
        memo = by_cid.get(req0.cid)
        if memo is None:
            memo = by_cid[req0.cid] = by_class.setdefault(
                self.network.placement_key(parts), {})
        found = memo.get(key)
        if found is None:
            wires = []
            for s, r, nbytes, _smode, _rmode in schedule.steps:
                tt = self._route(parts[s], parts[r]).tt
                wire = tt.get(nbytes)
                if wire is None:
                    wire = tt[nbytes] = self.network.transfer_time(
                        parts[s], parts[r], nbytes)
                wires.append(wire)
            found = memo[key] = (wires, [])
        wires, seen = found
        for arrival, charged, exits, comms in seen:
            if arrival == clock and charged == comm:
                clock, comm = exits, comms
                break
        else:
            inputs = (clock[:], comm[:])
            schedule.replay(clock, comm, wires)
            seen.append(inputs + (clock, comm))
            if len(seen) > replay.MEMO_INPUTS:
                del seen[0]
        self._report["replayed"] += 1
        reply = CollectiveReply(payload, schedule)
        push = self._events.push
        resume = self._resume
        for st, req in entry:
            me = req.me
            stats = st.stats
            stats.comm_time = comm[me]
            stats.messages_sent += schedule.messages[me]
            stats.bytes_sent += schedule.nbytes[me]
            push(clock[me], resume, (st, reply, clock[me]))

    def _recorded(self, request: CollectiveRequest,
                  payload: Any) -> tuple[tuple | None, Any]:
        """``(shape key, recorded Schedule or the reason it has none)``
        of the broadcast ``request`` announces, ``payload`` its root's."""
        shape = replay.signature(payload)
        if shape is None:
            return None, "payload without an array signature"
        key = (request.algorithm, len(request.participants), request.root,
               request.segments) + shape
        schedules = self._schedules
        schedule = schedules.get(key)
        if schedule is None:
            schedule = schedules[key] = replay.record(*key)
            self._report["recorded"] += 1
        return key, schedule

    def _release_parked(self, entry: list, reason: str) -> None:
        """Resume the parked ranks of ``entry`` with None, each at its
        own clock: they expand the broadcast as if never parked."""
        if any(req.me == req.root for _st, req in entry):
            self._count_expanded(reason)  # else its root counts it
        for st, _req in entry:
            clock = st.stats.clock
            self._events.push(clock, self._resume, (st, None, clock))

    def _count_expanded(self, reason: str) -> None:
        report = self._report
        report["expanded"] += 1
        reasons = report["reasons"]
        reasons[reason] = reasons.get(reason, 0) + 1

    def _release_unfilled(self) -> bool:
        """At drain under stepping: let the non-roots still waiting for
        a root that never announced expand, so a deadlock reads as it
        would have.  False if none were waiting."""
        pending = self._pending
        waiting = [key for key, entry in pending.items()
                   if entry.__class__ is list]
        for key in waiting:
            self._release_parked(pending.pop(key), "unfilled at drain")
        return bool(waiting)

    def _stop_replaying(self, reason: str) -> None:
        """Something that observes global time entered the run (a timed
        receive, a span tree's recording order) or the queue drained
        around an unfilled broadcast: release everything parked and
        expand every broadcast from here on."""
        self._expanding = reason
        pending, self._pending = self._pending, {}
        for (cid, seq), entry in pending.items():
            self._release_parked(entry, reason)
            # Its participants still to come expand too; a stepped run
            # counts them for _step (one path per collective).
            st, req = entry[0]
            left = len(req.participants) - len(entry)
            if left and self._steps(reason):
                base = st.stats.rank - req.participants[req.me]
                self._pending[(cid, seq, base)] = left

    def _steps(self, reason: str | None) -> bool:
        """Does a run that does not replay, for ``reason``, step its
        broadcasts (:meth:`_step`)?  Never eager, never watched."""
        return (reason in _STEPPING and not self.eager_threshold
                and not self._observed)

    # -- stepping a broadcast under global time -------------------------------
    #
    # Each leg of the recorded schedule is one transfer on its run
    # channel.  A rank posts its legs op by op, as its generators would
    # have, and a leg starts the moment its second side posts: it goes
    # on the wire through _occupy, as every transfer does, and one event
    # completes it (_leg_done), sender first, like _transfer_done.  A
    # fused shift completes like _handle_sendrecv's pair wait.  After its
    # last leg a rank's own generator resumes with the root's payload.

    def _step(self, state: _RankState, request: CollectiveRequest,
              now: float) -> bool:
        """The :meth:`_collective` hook under global time.  The root's
        announcement decides, once per broadcast instance, whether it is
        stepped (parked: True) or expands (absorbed: False); a non-root
        that announces first waits, unposted, for that decision.  A
        stream's ``(cid, seq)`` repeats across jobs, so an instance is
        keyed by its engine base rank too."""
        me = request.me
        root = request.root
        if request.algorithm in replay.TIMED:
            if me == root:
                found = self._recorded(request, request.payload)[1]
                self._count_expanded(found if found.__class__ is str
                                     else self._expanding)
            return False
        parts = request.participants
        base = state.stats.rank - parts[me]
        key = (request.cid, request.seq, base)
        pending = self._pending
        entry = pending.get(key)
        if entry.__class__ is _Stepped:
            self._join(entry, state, me, now)
            if entry.joined == len(parts):
                del pending[key]
            return True
        if entry.__class__ is int:  # decided to expand; ranks to come
            if me == root:  # decided before the root announced
                self._count_expanded(self._expanding)
            if entry == 1:
                del pending[key]
            else:
                pending[key] = entry - 1
            return False
        if me != root:
            if entry is None:
                entry = pending[key] = []
            entry.append((state, request))
            state.blocked_on = request
            state.block_start = now
            return True
        parked = entry or ()
        shape, found = self._recorded(request, request.payload)
        if found.__class__ is not str:
            schedule = found
            found = schedule.lanes(root)
        if found.__class__ is str:
            self._count_expanded(found)
            # Expand the waiting ranks first: they post before the
            # root, at their own clocks, as if never held back.
            for st, _req in parked:
                self._resume(st, None, st.stats.clock)
            left = len(parts) - 1 - len(parked)
            if left:
                pending[key] = left
            elif parked:
                del pending[key]
            return False
        lanes = found[0]
        where = (request.cid, base, shape)
        chans = self._schedules.get(where)
        if chans is None:
            chans = self._schedules[where] = self._leg_channels(
                schedule, root, parts, base, request.cid)
        inst = _Stepped(schedule.steps, lanes, chans, request.payload)
        self._count_expanded(self._expanding)
        self._report["stepped"] += 1
        for st, req in parked:
            self._join(inst, st, req.me, st.stats.clock)
        self._join(inst, state, me, now)
        if inst.joined < len(parts):
            pending[key] = inst
        elif parked:
            del pending[key]
        return True

    def _leg_channels(self, schedule: replay.Schedule, root: int,
                      parts: Any, base: int, cid: tuple) -> tuple:
        """The run channel of every leg of ``schedule`` on communicator
        ``cid`` (members ``parts``, bound at engine ``base``)."""
        channels = self._channels
        mul = self._rankmul
        wire = [p + base for p in parts] if base else parts
        by_tag: dict[int, dict] = {}
        chans = []
        for src, dst, tag in schedule.endpoints(root, wire):
            inner = by_tag.get(tag)
            if inner is None:
                inner = by_tag[tag] = channels.setdefault((cid, tag), {})
            chan = inner.get(src * mul + dst)
            if chan is None:
                chan = self._make_channel(src, dst, (cid, tag))
            chans.append(chan)
        return tuple(chans)

    def _join(self, inst: _Stepped, state: _RankState, me: int,
              now: float) -> None:
        """``state`` (communicator rank ``me``) enters the stepped
        instance at ``now`` and posts its first op."""
        inst.states[me] = state
        if self.collect_trace:
            spans = self._spans
            inst.spans[me] = (spans.current_path(state.stats.rank)
                              if spans.nopen else None)
        inst.joined += 1
        self._step_on(inst, me, state, now)

    def _step_on(self, inst: _Stepped, me: int, state: _RankState,
                 now: float) -> None:
        """:meth:`_resume` for ``state``, rank ``me`` of a stepped
        broadcast: post its next op at ``now`` — its send leg, then (a
        fused shift) its receive leg — or, after its last, hand its
        generator the root's payload.  A leg whose other side is posted
        goes on the wire (:meth:`_occupy`).  A leg never
        finishes before its post, so ``now`` is never behind the
        rank's clock."""
        if state.finished:
            return
        stats = state.stats
        if now > stats.clock:
            stats.clock = now
        lane = inst.lanes[me]
        at = inst.at[me]
        if at == len(lane):
            self._resume(state, inst.reply, now)
            return
        state.blocked_on = inst
        state.block_start = now
        entry = lane[at]
        if entry & 3 == 2:
            inst.at[me] = at + 2
            legs: tuple = (entry >> 2, lane[at + 1] >> 2)
        else:
            inst.at[me] = at + 1
            legs = (entry >> 2,)
        first = inst.first
        for leg in legs:
            start = first[leg]
            if start is None:
                first[leg] = now
                continue
            if now > start:
                start = now
            sender, _r, nbytes, _smode, _rmode = inst.steps[leg]
            finish = self._occupy(inst.chans[leg], nbytes, start,
                                  inst.states[sender].stats,
                                  inst.spans[sender])
            self._events.push(finish, self._leg_done, (inst, leg, finish))

    def _leg_done(self, inst: _Stepped, leg: int, finish: float) -> None:
        """:meth:`_transfer_done` for one leg: the sender completes
        first.  A blocking op resumes its rank; a fused shift's legs
        complete as the handles of :meth:`_handle_sendrecv` do."""
        sender, receiver, _nbytes, smode, rmode = inst.steps[leg]
        states = inst.states
        hold = inst.hold
        state = states[sender]
        if smode == _BLOCKING:
            state.stats.comm_time += finish - state.block_start
            self._step_on(inst, sender, state, finish)
        elif hold[sender] is _AWAIT_SEND:
            hold[sender] = None
            if finish > state.block_start:
                state.stats.comm_time += finish - state.block_start
            self._step_on(inst, sender, state, finish)
        else:
            hold[sender] = finish
        state = states[receiver]
        stats = state.stats
        if rmode == _BLOCKING:
            stats.comm_time += finish - state.block_start
            self._step_on(inst, receiver, state, finish)
            return
        # The receive leg of a fused shift (_complete_handle, then
        # _pair_continue on the send leg).
        if finish > state.block_start:
            stats.comm_time += finish - state.block_start
        if finish > stats.clock:
            stats.clock = finish
        sent = hold[receiver]
        if sent is not None and sent <= stats.clock:
            hold[receiver] = None
            self._step_on(inst, receiver, state, finish)
            return
        hold[receiver] = _AWAIT_SEND
        state.block_start = stats.clock
        if sent is not None:  # done, but later than the clock
            self._events.push(sent, self._shift_sent, (inst, receiver, sent))

    def _shift_sent(self, inst: _Stepped, me: int, finish: float) -> None:
        """The send leg of ``me``'s fused shift, done earlier, is
        delivered again at its finish (see :meth:`_await`)."""
        inst.hold[me] = None
        state = inst.states[me]
        if finish > state.block_start:
            state.stats.comm_time += finish - state.block_start
        self._step_on(inst, me, state, finish)

    # -- matching -----------------------------------------------------------

    def _make_channel(self, src: int, dst: int, tag: Any) -> _Channel:
        """Slow path of the channel probe: first post on the channel
        (or the tag)."""
        by_tag = self._channels.get(tag)
        if by_tag is None:
            by_tag = self._channels[tag] = {}
        key = src * self._rankmul + dst
        chan = by_tag.get(key)
        if chan is None:
            chan = by_tag[key] = _Channel(src, dst, tag,
                                          self._route(src, dst))
        return chan

    def _route(self, src: int, dst: int) -> _Route:
        """The run's one route of the wire from ``src`` to ``dst``:
        every channel, tag and replayed leg on it shares its wire-time
        memo and its link cells."""
        key = self._route_key(src, dst)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = _Route()
        return route

    def _route_key(self, src: int, dst: int) -> Any:
        """What a route belongs to: its engine rank pair."""
        return src, dst

    def _eager_send(self, chan: _Channel, ep: _Endpoint) -> None:
        """Eager protocol: inject the message now; the sender completes
        at wire-clear time, the receive matches later.  The caller still
        queues ``ep`` on the channel's send FIFO."""
        ep.eager_arrival = finish = self._occupy(
            chan, ep.nbytes, ep.post_time, self._ranks[chan.src].stats,
            ep.span)
        self._events.push(finish, self._complete_endpoint,
                          (ep, finish, None))

    def _start_transfer(self, chan: _Channel, send: _Endpoint,
                        recv: _Endpoint) -> None:
        if send.eager_arrival is not None:
            # Already in flight (eager): the receive completes when the
            # message has arrived and the receive is posted; the sender
            # was completed at injection time.
            finish = max(recv.post_time, send.eager_arrival)
            self._events.push(finish, self._eager_recv_done,
                              (recv, send.payload, finish))
            return

        start = send.post_time
        if recv.post_time > start:
            if send.nbytes <= self.eager_threshold and chan.src != chan.dst:
                # An eager-size send found its receive already queued
                # yet posted later — only when ranks step out of time
                # order.  In time order the send would have come first
                # and gone out eagerly; so it does.
                self._eager_send(chan, send)
                self._start_transfer(chan, send, recv)
                return
            start = recv.post_time
        finish = self._occupy(chan, send.nbytes, start,
                              self._ranks[chan.src].stats, send.span)
        self._events.push(finish, self._transfer_done, (send, recv, finish))

    def _occupy(self, chan: _Channel, nbytes: int, start: float,
                stats: RankStats, span: str | None) -> float:
        """Put one message of ``nbytes`` on ``chan``'s wire no earlier
        than ``start`` and return its wire-clear time: wait for the
        route's links (under contention), price the wire (or its
        faulted form), hold the links until the finish, trace the
        transfer and charge it to the sender's ``stats``.  Every
        message a run moves — rendezvous, eager injection, stepped
        broadcast leg — goes through here.

        The wire time is memoised on the channel's route per size: the
        identical float the network model returns (networks are pure
        cost functions — see ``docs/performance.md``)."""
        route = chan.route
        cells = None
        if self.contention:
            cells = route.claims
            if cells is None:
                cells = self._claims(chan)
            for cell in cells:
                if cell[0] > start:
                    start = cell[0]
        try:
            wire = route.tt[nbytes]
        except KeyError:
            wire = route.tt[nbytes] = self.network.transfer_time(
                chan.src, chan.dst, nbytes)
        if self._faults is None:
            finish = start + wire
        else:
            finish = self._faulty_finish(chan, nbytes, start, stats, wire)
        if cells is not None:
            for cell in cells:
                cell[0] = finish
        if self.collect_trace:
            self._trace.append(TransferRecord(chan.src, chan.dst, chan.tag,
                                              nbytes, start, finish, span=span))
        stats.messages_sent += 1
        stats.bytes_sent += nbytes
        return finish

    def _claims(self, chan: _Channel) -> tuple:
        """The cells of ``chan``'s route, one per link, shared by every
        route that claims the link; asked of the network once per route
        (routes are static for the lifetime of a network model)."""
        link_free = self._link_free
        claims = chan.route.claims = tuple(
            link_free.setdefault(link, [0.0])
            for link in self.network.links(chan.src, chan.dst))
        return claims

    # -- fault injection ----------------------------------------------------

    def _faulty_finish(self, chan: _Channel, nbytes: int, start: float,
                       sender_stats: RankStats, clean: float) -> float:
        """One logical message under the fault schedule; ``clean`` is
        its fault-free wire time.

        Dropped attempts waste the (possibly degraded) wire time plus a
        backoff from the retry policy, then retransmit — the payload
        always arrives eventually, so numerics are untouched; only
        virtual time and the retry counters change.  Drop decisions
        hash structural coordinates (channel digest, per-channel
        ordinal, attempt), never the clock, so they replay identically
        across runs — see :mod:`repro.faults.schedule`.
        """
        faults = self._faults
        src, dst, tag = chan.src, chan.dst, chan.tag
        if src == dst:
            return start + clean
        ordinal = chan.ordinal
        chan.ordinal = ordinal + 1
        digest = self._chan_digests.get(tag)
        if digest is None:
            digest = self._chan_digests[tag] = chan_digest(tag)
        retry = faults.retry
        t = start
        attempt = 0
        while (attempt < retry.max_retransmits
               and faults.drop(src, dst, digest, ordinal, attempt, t)):
            t += faults.transfer_time(self.network, src, dst, nbytes, t,
                                      clean=clean)
            t += retry.backoff_delay(attempt)
            attempt += 1
            sender_stats.retries += 1
        finish = t + faults.transfer_time(self.network, src, dst, nbytes, t,
                                          clean=clean)
        sender_stats.fault_delay += finish - (start + clean)
        return finish

    # -- event callbacks ----------------------------------------------------
    #
    # Scheduled as (method, args) records on the EventQueue; no closure
    # is allocated per event.

    def _recv_timeout(self, state: _RankState, ep: _Endpoint,
                      chan: _Channel, deadline: float) -> None:
        if ep.matched:
            return  # a send paired up first; the transfer will finish
        queue = chan.recvs
        # Not queued when the channel's head was a send posted past the
        # deadline (see _post_recv): nothing matched it, and the
        # receive queue may never have been created.
        if queue and ep in queue:
            queue.remove(ep)
        ep.matched = True
        state.stats.timeouts += 1
        state.stats.comm_time += deadline - state.block_start
        self._resume(state, RECV_TIMEOUT, deadline)

    def _rank_death(self, death: Any) -> None:
        state = self._ranks[death.rank]
        if state.finished:
            return  # outlived its death time; nothing to kill
        raise RankFailure(death.rank, death.time)

    def _transfer_done(self, send: _Endpoint, recv: _Endpoint,
                       finish: float) -> None:
        # Order matters and is part of the pinned semantics: the sender
        # completes (and may resume) before the receiver.  A blocking
        # endpoint's completion is _complete_endpoint inlined (this
        # callback fires once per rendezvous transfer — the most common
        # event in any run); a handle's goes through _complete_handle.
        ranks = self._ranks
        handle = send.handle
        if handle is None:
            state = ranks[send.rank]
            state.stats.comm_time += finish - state.block_start
            self._resume(state, None, finish)
        else:
            self._complete_handle(handle, finish, None)
        payload = send.payload
        handle = recv.handle
        if handle is None:
            state = ranks[recv.rank]
            state.stats.comm_time += finish - state.block_start
            self._resume(state, payload, finish)
        else:
            self._complete_handle(handle, finish, payload)
        # Both rendezvous endpoints are dead here — nothing else
        # references them.  Timed receives are the exception: their
        # pending expiry event still holds the object, so they are
        # never recycled (the eager path keeps its own endpoints for
        # the same reason).  Releases restore the pool invariant (see
        # the point-to-point handlers).
        pool = self._ep_pool
        if len(pool) < _EP_POOL_MAX:
            send.payload = None
            send.handle = None
            send.span = None
            send.matched = False
            pool.append(send)
            if not recv.timed:
                recv.handle = None
                recv.matched = False
                pool.append(recv)

    def _eager_recv_done(self, recv: _Endpoint, payload: Any,
                         finish: float) -> None:
        self._complete_endpoint(recv, finish, payload)
        if not recv.timed and len(self._ep_pool) < _EP_POOL_MAX:
            recv.handle = None
            recv.matched = False
            self._ep_pool.append(recv)

    def _complete_endpoint(
        self, ep: _Endpoint, finish: float, payload: Any
    ) -> None:
        if ep.handle is None:
            # Blocking operation: the rank is parked on it right now.
            state = self._ranks[ep.rank]
            state.stats.comm_time += finish - state.block_start
            self._resume(state, payload, finish)
            return
        self._complete_handle(ep.handle, finish, payload)

    def _complete_handle(self, handle: RequestHandle, finish: float,
                         payload: Any) -> None:
        """``handle``'s operation finished at ``finish``: resume its
        waiter, or go on to the second leg of a pair wait
        (:meth:`_pair_continue`).  A sendrecv handle
        (``_internal``) is dead once its pair wait is over and goes
        back to the pool."""
        handle.done = True
        handle.finish_time = finish
        handle.payload = payload
        if not handle._waiter:
            return
        parked: _RankState = handle._parked_state
        handle._waiter = False
        second = handle._pair
        if finish > parked.block_start:
            parked.stats.comm_time += finish - parked.block_start
        if second is None:
            self._resume(parked, payload, finish)
            return
        handle._pair = None
        if second is _PAIR_FINAL:
            value = parked.resume_value
            parked.resume_value = None
            self._resume(parked, value, finish)
        else:
            self._pair_continue(parked, second, finish, payload)
        rpool = self._rh_pool
        if handle._internal and len(rpool) < _RH_POOL_MAX:
            handle.done = False
            handle.payload = None
            handle._parked_state = None
            rpool.append(handle)


class ExpandingEngine(Engine):
    """An engine that steps every message of every broadcast: the
    reference replay is compared with
    (``tests/property/test_replay_equals_expansion.py``)."""

    _replay = False
