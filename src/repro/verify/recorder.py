"""Observation layer: build a match graph of a run without touching it.

The recorder wraps each rank program's generator.  Every request the
program yields is observed *before* it reaches the engine, and every
value the engine resumes the program with is observed on the way back
— so the recorder sees exactly the engine's post order (the engine
handles a request in the same step that yields it) and can reconstruct
its FIFO matching from the program side alone.

Nothing is injected into the run: no extra requests, no virtual time,
no change to the values flowing either way.  A verified run is
bit-identical to an unverified one; with verification off the wrapper
is not even installed.

Matching reconstruction
-----------------------
The engine matches FIFO per ``(src, dst, tag)`` channel; a timed
receive that expires is removed from its queue (and its program resumes
with ``RECV_TIMEOUT``).  From the program side the pairing is therefore
exact: on each channel, zip the sends in post order against the
receives that did not time out, in post order.  Leftovers are the
unmatched operations the structural checks classify at finalize.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.simulator.requests import (
    RECV_TIMEOUT,
    CollectiveRequest,
    IRecvRequest,
    ISendRequest,
    RecvRequest,
    RequestHandle,
    SendRecvRequest,
    SendRequest,
)


class OpRecord:
    """One observed point-to-point operation (one side of a message)."""

    __slots__ = ("rank", "kind", "peer", "tag", "nbytes", "blocking",
                 "fused", "handle", "index", "resumed", "timed_out",
                 "waited", "matched", "timeout")

    def __init__(self, rank: int, kind: str, peer: int, tag: Any,
                 nbytes: int, *, blocking: bool, index: int,
                 fused: bool = False, timeout: float | None = None):
        self.rank = rank
        self.kind = kind  # "send" | "recv"
        self.peer = peer
        self.tag = tag
        self.nbytes = nbytes
        self.blocking = blocking
        self.fused = fused  # leg of a SendRecvRequest
        self.handle: RequestHandle | None = None
        self.index = index  # per-rank observation ordinal
        self.resumed = False  # generator got a value back for this op
        self.timed_out = False  # recv resumed with RECV_TIMEOUT
        self.waited = False  # a wait was issued on the handle
        self.matched = False  # set by reconstruction at finalize
        self.timeout = timeout

    def describe(self) -> str:
        arrow = "->" if self.kind == "send" else "<-"
        mode = "" if self.blocking else "i"
        return (f"rank {self.rank}: {mode}{self.kind} {arrow} rank "
                f"{self.peer} tag={self.tag!r} nbytes={self.nbytes}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"OpRecord({self.describe()})"


class ChannelRecord:
    """Post-order operation lists of one ``(src, dst, tag)`` channel."""

    __slots__ = ("src", "dst", "tag", "sends", "recvs")

    def __init__(self, src: int, dst: int, tag: Any):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.sends: list[OpRecord] = []
        self.recvs: list[OpRecord] = []


class CollectiveGroup:
    """All announcements observed for one ``(cid, seq)`` collective."""

    __slots__ = ("cid", "seq", "by_rank", "order")

    def __init__(self, cid: tuple, seq: int):
        self.cid = cid
        self.seq = seq
        #: world rank -> the CollectiveRequest it announced
        self.by_rank: dict[int, CollectiveRequest] = {}
        self.order: list[int] = []  # announcement order (world ranks)

    @property
    def participants(self) -> tuple:
        """Declared membership (world ranks) of the first announcement."""
        first = self.by_rank[self.order[0]]
        return first.participants

    @property
    def missing(self) -> list[int]:
        """Declared participants that never announced."""
        return [r for r in self.participants if r not in self.by_rank]


class RankObservation:
    """Per-rank recorder state."""

    __slots__ = ("rank", "nops", "pending", "posted", "posted_pair",
                 "finished", "crashed", "handles", "retval")

    def __init__(self, rank: int):
        self.rank = rank
        self.nops = 0
        #: the request observed but not yet resumed (None when idle)
        self.pending: Any = None
        #: the records of the pending request: its point-to-point post,
        #: or the two posts of a request pair (None where a member
        #: posts nothing); its resume is credited to these
        self.posted: OpRecord | None = None
        self.posted_pair: tuple[OpRecord | None, OpRecord | None] = (
            None, None)
        self.finished = False
        self.crashed = False
        #: id(handle) -> OpRecord for program-visible handles (identity
        #: keyed; handles returned to programs are fresh objects, never
        #: engine-pooled, so ids stay unique while referenced here)
        self.handles: dict[int, OpRecord] = {}
        self.retval: Any = None


class Recorder:
    """Record one run's communication structure via generator wrapping.

    Use :meth:`wrap` on every rank program before handing the set to
    the engine; after the run (clean or not), hand the recorder to
    :func:`repro.verify.checks.run_structural_checks` or to the
    deadlock diagnoser.
    """

    def __init__(self, nranks: int):
        self.nranks = nranks
        self.ranks = [RankObservation(r) for r in range(nranks)]
        self.channels: dict[tuple, ChannelRecord] = {}
        self.collectives: dict[tuple, CollectiveGroup] = {}
        #: (check, message, ranks, detail) found at observe time
        self.immediate: list[tuple[str, str, tuple, dict]] = []
        self._reconstructed = False

    # -- wrapping -----------------------------------------------------------

    def wrap(self, rank: int, gen: Generator) -> Generator:
        """Wrap ``gen`` so every request/resume pair is observed.

        The wrapper is transparent: requests and resume values pass
        through unchanged, the program's return value is re-raised via
        ``StopIteration``, and exceptions propagate untouched.
        """
        return self._wrapped(self.ranks[rank], gen)

    def _wrapped(self, obs: RankObservation, gen: Generator) -> Generator:
        send = gen.send
        value: Any = None
        while True:
            try:
                request = send(value)
            except StopIteration as stop:
                obs.finished = True
                obs.pending = None
                obs.retval = stop.value
                return stop.value
            except BaseException:
                obs.crashed = True
                raise
            self._observe(obs, request)
            value = yield request
            self._observe_result(obs, request, value)

    # -- observation --------------------------------------------------------

    def _observe(self, obs: RankObservation, request: Any) -> OpRecord | None:
        """Record ``request``; return the OpRecord for p2p posts."""
        obs.pending = request
        cls = request.__class__
        if cls is SendRequest:
            return self._obs_send(obs, request.dst, request.tag,
                                  request.nbytes, blocking=True)
        if cls is RecvRequest:
            return self._obs_recv(obs, request.src, request.tag,
                                  blocking=True, timeout=request.timeout)
        if cls is ISendRequest:
            return self._obs_send(obs, request.dst, request.tag,
                                  request.nbytes, blocking=False)
        if cls is IRecvRequest:
            return self._obs_recv(obs, request.src, request.tag,
                                  blocking=False)
        if cls is SendRecvRequest:
            self._obs_send(obs, request.dst, request.sendtag, request.nbytes,
                           blocking=True, fused=True)
            self._obs_recv(obs, request.src, request.recvtag, blocking=True,
                           fused=True)
            return None
        if cls is RequestHandle:
            self._obs_wait(obs, request)
            return None
        if cls is tuple and len(request) == 2:
            a, b = request
            if a.__class__ is RequestHandle and b.__class__ is RequestHandle:
                self._obs_wait(obs, a)
                self._obs_wait(obs, b)
            else:
                ra = self._observe(obs, a)
                rb = self._observe(obs, b)
                obs.posted_pair = (ra, rb)
                obs.pending = request
            return None
        if cls is CollectiveRequest:
            self._obs_collective(obs, request)
        # ComputeRequest, CounterRequest, span requests: no comm content.
        return None

    def _observe_result(self, obs: RankObservation, request: Any,
                        value: Any) -> None:
        obs.pending = None
        cls = request.__class__
        # A blocking request resumes after other ranks have posted: its
        # records are the ones this rank posted, not the latest posts.
        if cls is SendRequest:
            obs.posted.resumed = True
        elif cls is RecvRequest:
            rec = obs.posted
            rec.resumed = True
            if value is RECV_TIMEOUT:
                rec.timed_out = True
        elif cls is ISendRequest or cls is IRecvRequest:
            self._bind_handle(obs, obs.posted, value)
        elif cls is SendRecvRequest:
            # The fused wait covers both legs; a resume means both ran.
            chan_s = self._channel(obs.rank, request.dst, request.sendtag)
            chan_s.sends[-1].resumed = True
            chan_r = self._channel(request.src, obs.rank, request.recvtag)
            chan_r.recvs[-1].resumed = True
        elif cls is tuple and len(request) == 2:
            ra, rb = obs.posted_pair
            if ((ra is not None or rb is not None)
                    and isinstance(value, tuple) and len(value) == 2):
                if ra is not None:
                    self._bind_handle(obs, ra, value[0])
                if rb is not None:
                    self._bind_handle(obs, rb, value[1])
            obs.posted_pair = (None, None)
        # Waits were fully handled at observe time.

    def _obs_send(self, obs: RankObservation, dst: int, tag: Any,
                  nbytes: int, *, blocking: bool,
                  fused: bool = False) -> OpRecord:
        rank = obs.rank
        rec = OpRecord(rank, "send", dst, tag, nbytes, blocking=blocking,
                       index=obs.nops, fused=fused)
        obs.nops += 1
        obs.posted = rec
        if blocking and not fused and dst == rank:
            self.immediate.append((
                "self-send",
                f"rank {rank}: blocking send to self on tag {tag!r} "
                "can never match (rendezvous semantics)",
                (rank,),
                {"tag": repr(tag), "nbytes": nbytes},
            ))
        self._channel(rank, dst, tag).sends.append(rec)
        return rec

    def _obs_recv(self, obs: RankObservation, src: int, tag: Any, *,
                  blocking: bool, fused: bool = False,
                  timeout: float | None = None) -> OpRecord:
        rank = obs.rank
        rec = OpRecord(rank, "recv", src, tag, 0, blocking=blocking,
                       index=obs.nops, fused=fused, timeout=timeout)
        obs.nops += 1
        obs.posted = rec
        self._channel(src, rank, tag).recvs.append(rec)
        return rec

    def _obs_wait(self, obs: RankObservation, handle: RequestHandle) -> None:
        rec = obs.handles.get(id(handle))
        if rec is not None:
            rec.waited = True
            rec.resumed = True

    def _obs_collective(self, obs: RankObservation,
                        request: CollectiveRequest) -> None:
        key = (request.cid, request.seq)
        group = self.collectives.get(key)
        if group is None:
            group = self.collectives[key] = CollectiveGroup(
                request.cid, request.seq
            )
        world = request.participants[request.me]
        if world not in group.by_rank:
            group.order.append(world)
        group.by_rank[world] = request

    def _bind_handle(self, obs: RankObservation, rec: OpRecord,
                     value: Any) -> None:
        if value.__class__ is RequestHandle:
            rec.handle = value
            obs.handles[id(value)] = rec
        rec.resumed = True

    def _channel(self, src: int, dst: int, tag: Any) -> ChannelRecord:
        key = (src, dst, tag)
        chan = self.channels.get(key)
        if chan is None:
            chan = self.channels[key] = ChannelRecord(src, dst, tag)
        return chan

    # -- reconstruction -----------------------------------------------------

    def reconstruct_matching(self) -> None:
        """Pair sends with receives per channel, mirroring the engine.

        Idempotent; called by the structural checks and the deadlock
        diagnoser before they read ``matched`` flags.
        """
        if self._reconstructed:
            return
        self._reconstructed = True
        for chan in self.channels.values():
            live_recvs = [r for r in chan.recvs if not r.timed_out]
            for send, recv in zip(chan.sends, live_recvs):
                send.matched = True
                recv.matched = True

    # -- convenience views --------------------------------------------------

    def pending_ops(self) -> dict[int, Any]:
        """Rank -> the request it was blocked in when the run ended."""
        return {obs.rank: obs.pending for obs in self.ranks
                if obs.pending is not None and not obs.finished}

    def op_for_handle(self, rank: int, handle: Any) -> OpRecord | None:
        """The OpRecord a program-visible handle belongs to, if known."""
        return self.ranks[rank].handles.get(id(handle))

    def total_ops(self) -> int:
        return sum(obs.nops for obs in self.ranks)
