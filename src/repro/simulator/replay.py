"""A blocking broadcast's message schedule, recorded once and replayed.

A fault-free, uncontended, untraced run without the eager protocol has
no global time: each ``(src, dst, tag)`` channel has one sender and one
receiver posting in program order and a rendezvous starts at the later
of the two post clocks, so every :class:`~repro.simulator.tracing.
RankStats` float is a function of the programs alone.  A broadcast that
is a straight line of blocking sends, receives and fused shifts is then
a fixed dataflow over its participants' arrival clocks, and the engine
(:meth:`repro.simulator.engine.Engine._filled`) prices every instance
after the first by walking that dataflow instead of stepping it.

:func:`record` obtains the dataflow from the one description there is —
the registered algorithm's own generators, run on a micro-world of the
broadcast's size — and :meth:`Schedule.replay` applies to each rank the
engine's float operations in the engine's order.  A schedule is kept
only if replaying it reproduces its own recording run bit for bit;
anything else is refused by name and expands as it always did.

A run that observes global time (contention, a transfer or span
trace, faults, a job stream) cannot skip a broadcast's messages, but it
need not step them through the algorithm's generators either: the
engine steps each rank's legs of the same recording
(:meth:`Schedule.lanes`, :meth:`repro.simulator.engine.Engine._step`),
one event per leg, exactly where expansion would have put it.

A recording depends on nothing but the algorithm function and the
shape, so it is kept for the life of the process: every run after the
first finds its shapes recorded (see :data:`CACHE_LEGS`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.payloads import PhantomArray
from repro.simulator.requests import RecvRequest, SendRecvRequest, SendRequest

#: Endpoint modes of a step: what a leg's finish time does to the rank
#: on that side.  A fused shift has two legs; whichever the schedule
#: evaluates first is held until the other completes the operation.
_BLOCKING, _HOLD, _SHIFT_RECV, _SHIFT_SEND = range(4)

#: The mode of a blocking endpoint, for the engine's stepped legs.
BLOCKING = _BLOCKING

#: Legs the process-wide recording cache may hold (a p = 256 Van de
#: Geijn schedule has about 65 k; a refusal counts as one).  The least
#: recently used recordings go first; one larger than the whole bound
#: serves the run that recorded it and is not kept.  Full, the cache
#: holds about 22 MB (four p = 256 Van de Geijn schedules, measured
#: with tracemalloc; process RSS 32 -> 60 MB while filling it).  A
#: schedule that has been stepped also holds its lanes, about 90 bytes
#: a leg.
CACHE_LEGS = 1 << 18

#: Broadcasts whose receives time out.  A non-root that announces one
#: before its root must post at once (its deadline runs from the post),
#: so it never waits for the root's shape and is never stepped.
TIMED = frozenset({"ft_binomial"})

#: (algorithm function, size, root, segments, count, itemsize) ->
#: Schedule or refusal, least recently used first.
_recorded: OrderedDict[tuple, "Schedule | str"] = OrderedDict()
_held = 0  # legs in _recorded

#: Distinct inputs remembered per shape and placement class of a run
#: (see :meth:`repro.simulator.engine.Engine._filled`).
MEMO_INPUTS = 4


class _Unreplayable(Exception):
    """Raised inside a recording run; ``args[0]`` is the reason key."""


def signature(payload: Any) -> tuple[int, int] | None:
    """``(element count, itemsize)`` — all a broadcast's message sizes
    depend on — or None for a payload the splitters do not cut that
    way."""
    if payload.__class__ is PhantomArray or isinstance(payload, np.ndarray):
        return (payload.size, payload.itemsize)
    return None


class Schedule:
    """The legs of one broadcast shape in a dataflow order.

    ``steps`` are ``(sender, receiver, nbytes, sender mode, receiver
    mode)`` over communicator ranks; ``tags`` the wire tag of each
    step as the recording saw it; ``messages`` / ``nbytes`` are each
    rank's send totals.  All are tuples: a schedule is shared by every
    run of the process."""

    __slots__ = ("steps", "tags", "messages", "nbytes", "_lanes", "_legs")

    def __init__(self, ops: list[list[tuple]]) -> None:
        """Pair the legs of per-rank op lists ``[(dst, sendtag, nbytes,
        src, recvtag), ...]`` (a missing leg is None) the way the
        engine would: a send leg and the matching receive leg meet when
        both belong to their ranks' current operation."""
        size = len(ops)
        steps: list[tuple] = []
        tags: list[Any] = []
        messages = [0] * size
        nbytes = [0] * size
        at = [-1] * size                # index of each rank's current op
        current: list[Any] = [None] * size
        to_send = [False] * size        # current op's send leg unpaired?
        to_recv = [False] * size

        def advance(rank: int) -> None:
            at[rank] += 1
            op = ops[rank][at[rank]] if at[rank] < len(ops[rank]) else None
            current[rank] = op
            to_send[rank] = op is not None and op[0] is not None
            to_recv[rank] = op is not None and op[3] is not None
            work.append(rank)

        def meet(s: int, r: int) -> None:
            send, recv = current[s], current[r]
            if not (to_send[s] and to_recv[r] and send[0] == r
                    and recv[3] == s and send[1] == recv[4]):
                return
            to_send[s] = to_recv[r] = False
            smode = (_BLOCKING if send[3] is None
                     else _HOLD if to_recv[s] else _SHIFT_SEND)
            rmode = (_BLOCKING if recv[0] is None
                     else _HOLD if to_send[r] else _SHIFT_RECV)
            steps.append((s, r, send[2], smode, rmode))
            tags.append(send[1])
            messages[s] += 1
            nbytes[s] += send[2]
            for rank in {s, r}:
                if not (to_send[rank] or to_recv[rank]):
                    advance(rank)

        work: list[int] = []
        for rank in range(size):
            advance(rank)
        while work:
            me = work.pop()
            if to_send[me]:
                meet(me, current[me][0])
            if to_recv[me]:
                meet(current[me][3], me)
        if any(op is not None for op in current):
            raise _Unreplayable("non-blocking schedule")
        self.steps = tuple(steps)
        self.tags = tuple(tags)
        self.messages = tuple(messages)
        self.nbytes = tuple(nbytes)
        self._lanes: Any = None
        self._legs: list[Any] | None = None

    def lanes(self, root: int) -> "tuple[tuple, tuple] | str":
        """``(lanes, tags)`` for stepping this schedule under global
        time, or the reason it cannot be stepped; built on first use
        and kept (``root`` is the one this schedule was recorded for).

        ``lanes[rank]`` lists the rank's legs in posting order, each as
        ``4 * step + kind``: kind 0 a blocking send, 1 a blocking
        receive, 2 the send leg of a fused shift (its receive leg,
        kind 3, follows).  ``tags[step]`` is the step's tag within the
        communicator.

        A non-root must open with a receive: one that announces before
        its root waits for the root's shape without posting, which is
        exact only if nothing it would have posted could match yet."""
        found = self._lanes
        if found is None:
            found = self._lanes = self._lay(root)
        return found

    def legs(self, root: int, me: int) -> tuple:
        """Rank ``me``'s lane (see :meth:`lanes`, which must not have
        refused) decoded: ``(step, receives, fused)`` per leg in
        posting order — the step, whether this is its receive leg, and
        whether it belongs to a fused shift.  Built once per rank."""
        legs = self._legs
        if legs is None:
            legs = self._legs = [None] * len(self.messages)
        mine = legs[me]
        if mine is None:
            mine = legs[me] = tuple(
                (entry >> 2, entry & 1 == 1, entry & 2 == 2)
                for entry in self.lanes(root)[0][me])
        return mine

    def endpoints(self, root: int, ranks: Sequence[int]) -> Iterator[tuple]:
        """``(sender, receiver, tag)`` of every step in order: its
        communicator ranks mapped through ``ranks`` and its tag within
        the communicator (see :meth:`lanes`, which must not have
        refused)."""
        tags = self.lanes(root)[1]
        for (s, r, _nbytes, _smode, _rmode), tag in zip(self.steps, tags):
            yield ranks[s], ranks[r], tag

    def _lay(self, root: int) -> "tuple[tuple, tuple] | str":
        tags = []
        for tag in self.tags:
            if tag.__class__ is not tuple or len(tag) != 2 or tag[0] != ():
                return "tags outside the communicator"
            tags.append(tag[1])
        legs: list[list[int]] = [[] for _ in self.messages]
        for step, (s, r, _nbytes, smode, rmode) in enumerate(self.steps):
            if s == r:
                return "send to self"
            legs[s].append(4 * step + (0 if smode == _BLOCKING else 2))
            legs[r].append(4 * step + (1 if rmode == _BLOCKING else 3))
        lanes = []
        for rank, mine in enumerate(legs):
            # A rank's legs come op by op, so the two legs of a fused
            # shift are neighbours; the send leg is posted first.
            lane: list[int] = []
            at = 0
            while at < len(mine):
                leg = mine[at]
                if leg & 2:
                    other = mine[at + 1]
                    lane += (other, leg) if leg & 1 else (leg, other)
                    at += 2
                else:
                    lane.append(leg)
                    at += 1
            if not lane:
                return "a rank without legs"
            if rank != root and lane[0] & 3 != 1:
                return "a non-root sends first"
            lanes.append(tuple(lane))
        return tuple(lanes), tuple(tags)

    def replay(self, clock: list[float], comm: list[float],
               wires: Sequence[float]) -> None:
        """Advance ``clock`` (arrival clocks in, exit clocks out) and
        ``comm`` (running ``comm_time``), both indexed by communicator
        rank, through the schedule; ``wires[i]`` is the fault-free wire
        time of step ``i`` (the engine prices it once, on the run's one
        route per wire).  The float operations are the engine's, in its
        order: a blocking operation charges ``finish - post``; a fused
        shift charges its receive leg from the post, then the send
        leg's tail past the receive."""
        hold = [0.0] * len(clock)
        for (s, r, _nbytes, smode, rmode), wire in zip(self.steps, wires):
            cs = clock[s]
            cr = clock[r]
            finish = (cs if cs >= cr else cr) + wire
            if smode == _BLOCKING:
                comm[s] += finish - cs
                clock[s] = finish
            elif smode == _HOLD:
                hold[s] = finish
            else:
                _shift_done(clock, comm, s, hold[s], finish)
            if rmode == _BLOCKING:
                comm[r] += finish - cr
                clock[r] = finish
            elif rmode == _HOLD:
                hold[r] = finish
            else:
                _shift_done(clock, comm, r, finish, hold[r])


def _shift_done(clock: list[float], comm: list[float], rank: int,
                recv_finish: float, send_finish: float) -> None:
    charged = comm[rank] + (recv_finish - clock[rank])
    if send_finish > recv_finish:
        charged += send_finish - recv_finish
        recv_finish = send_finish
    comm[rank] = charged
    clock[rank] = recv_finish


def _tap(gen: Any, log: list[tuple]) -> Any:
    """Drive ``gen`` unchanged while logging what it yields; requests
    are copied field by field (the Van de Geijn ring re-yields one
    mutated request every round)."""
    value = None
    while True:
        try:
            request = gen.send(value)
        except StopIteration:
            return
        cls = request.__class__
        if cls is SendRecvRequest:
            op = (request.dst, request.sendtag, request.nbytes,
                  request.src, request.recvtag)
        elif cls is SendRequest:
            op = (request.dst, request.tag, request.nbytes, None, None)
        elif cls is RecvRequest and request.timeout is None:
            op = (None, None, None, request.src, request.tag)
        else:
            raise _Unreplayable("non-blocking schedule")
        if op[2] == 0:
            # A zero-byte message is eager even at eager_threshold 0:
            # its sender does not wait for the receive, which no
            # rendezvous dataflow reproduces under staggered arrivals.
            raise _Unreplayable("zero-byte send")
        log.append(op)
        value = yield request


def record(algorithm: str, size: int, root: int, segments: int | None,
           count: int, itemsize: int) -> "Schedule | str":
    """The schedule of one broadcast shape, or the reason (a key of
    ``SimResult.replay["reasons"]``) it cannot be replayed.

    Runs the broadcast row's ``algorithm(name)`` (see
    :data:`repro.collectives.COLLECTIVES`) — the algorithm function, not
    ``Comm.bcast`` — for every rank of a ``size``-rank micro-world on a
    phantom payload through a plain engine, then checks that replaying
    the log at simultaneous arrival reproduces that run exactly.

    Answers from the process-wide cache when it can; the cache is keyed
    by the function the name resolves to, so a re-registered or wrapped
    broadcast records afresh."""
    global _held
    from repro.collectives import COLLECTIVES

    key = (COLLECTIVES["bcast"].algorithm(algorithm), size, root, segments,
           count, itemsize)
    found = _recorded.get(key)
    if found is not None:
        _recorded.move_to_end(key)
        return found
    found = _record(*key)
    legs = _legs(found)
    if legs <= CACHE_LEGS:
        _recorded[key] = found
        _held += legs
        while _held > CACHE_LEGS:
            _held -= _legs(_recorded.popitem(last=False)[1])
    return found


def _legs(found: "Schedule | str") -> int:
    return len(found.steps) if found.__class__ is Schedule else 1


def _record(algo: Callable, size: int, root: int, segments: int | None,
            count: int, itemsize: int) -> "Schedule | str":
    from repro.mpi.comm import make_contexts
    from repro.network.homogeneous import HomogeneousNetwork
    from repro.simulator.engine import Engine
    from repro.simulator.runtime import DEFAULT_PARAMS

    payload = PhantomArray((count,), itemsize)
    logs: list[list[tuple]] = [[] for _ in range(size)]
    network = HomogeneousNetwork(size, DEFAULT_PARAMS)
    try:
        sim = Engine(network).run([
            _tap(algo(ctx.world, payload if ctx.rank == root else None, root,
                      segments=segments), logs[ctx.rank])
            for ctx in make_contexts(size)
        ])
        schedule = Schedule(logs)
    except _Unreplayable as refused:
        return refused.args[0]
    clock = [0.0] * size
    comm = [0.0] * size
    schedule.replay(clock, comm, [network.transfer_time(s, r, nbytes)
                                  for s, r, nbytes, _s, _r in schedule.steps])
    for rank, stats in enumerate(sim.stats):
        if (clock[rank], comm[rank], schedule.messages[rank],
                schedule.nbytes[rank]) != (
                    stats.clock, stats.comm_time, stats.messages_sent,
                    stats.bytes_sent):
            return "recording not reproduced"
    return schedule
