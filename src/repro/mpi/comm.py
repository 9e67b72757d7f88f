"""Communicators and collective dispatch for the simulated MPI layer.

Design notes
------------
* **Per-rank objects.**  Each simulated rank owns its own
  :class:`MpiContext` and :class:`Comm` instances; ranks share nothing,
  exactly like separate MPI processes.
* **Context isolation.**  Messages are matched on ``(src, dst, tag)``
  where the effective tag is ``(communicator context id, user tag)``.
  Context ids are hierarchical — each communicator hands out sequence
  numbers to the communicators derived from it — so as long as derived
  communicators are created *collectively* (every member of the parent
  executes the same construction calls in the same order, the normal
  SPMD discipline and an MPI requirement too), identical ids on
  different ranks always denote the same communicator.
* **Local splits.**  ``split_by`` takes a function of the member rank,
  evaluated identically on every member, so membership is computed
  without messages.  Real MPI_Comm_split exchanges colors; its cost is
  negligible and amortised, and the paper's model ignores it as well.
"""

from __future__ import annotations

import dataclasses
import itertools
import numbers
from typing import Any, Callable, Generator, Sequence

from repro.collectives import COLLECTIVES, ROOT, SIGNATURE, Collective
from repro.errors import (
    CollectiveMismatchError,
    CommunicatorError,
    ConfigurationError,
    FaultToleranceError,
)
from repro.faults.schedule import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.simulator.requests import (
    RECV_TIMEOUT,
    CollectiveRequest,
    ComputeRequest,
    CounterRequest,
    IRecvRequest,
    ISendRequest,
    RecvRequest,
    RequestHandle,
    SendRecvRequest,
    SendRequest,
    payload_nbytes,
)
from repro.simulator.spans import SpanCloseRequest, SpanOpenRequest
from repro.util.validation import require_finite

Gen = Generator[Any, Any, Any]


def _wire_size(payload: Any) -> int | None:
    """Payload wire size for span annotations; None when unknowable."""
    try:
        return payload_nbytes(payload)
    except Exception:
        return None


@dataclasses.dataclass(frozen=True)
class CollectiveOptions:
    """Default algorithm choices for collective operations.

    ``bcast``, ``allgather``, ``reduce`` and ``allreduce`` each name an
    algorithm of the op's row in :data:`repro.collectives.COLLECTIVES`
    (the row's ``option`` is the field).  ``bcast_segments`` is the
    pipeline depth ``s``: the segment count for the pipelined /
    segmented broadcast family (None = auto).
    """

    bcast: str = "binomial"
    bcast_segments: int | None = None
    allgather: str = "ring"
    reduce: str = "binomial"
    allreduce: str = "recursive_doubling"

    def __post_init__(self) -> None:
        depth = self.bcast_segments
        if depth is not None and (isinstance(depth, bool) or not isinstance(
                depth, numbers.Integral) or depth < 1):
            raise ConfigurationError(
                f"bcast_segments must be None or an int >= 1, got {depth!r}")

    def replace(self, **kwargs: Any) -> "CollectiveOptions":
        return dataclasses.replace(self, **kwargs)


class _RankShared:
    """State shared across the per-rank contexts of one SPMD run.

    Ranks behave like separate MPI processes, but each Python process
    simulating p ranks would otherwise hold p copies of the world rank
    tuple (O(p^2) memory at p=16384) and recompute every ``split_by``
    partition p times (O(p^2) color evaluations).  Sharing is sound
    because both are pure functions of collectively-executed calls: the
    SPMD discipline already requires every member to derive identical
    memberships, so the first rank's answer is every rank's answer.

    It also knows which ranks this run *built* (each
    :class:`MpiContext` marks itself): a collapsed run constructs only
    its probe set, and only a built rank can ever announce a
    collective.

    The contexts sharing one instance are all bound at one ``base``
    (:func:`context_factory`), so a membership has one wire tuple.
    """

    __slots__ = ("world_ranks", "splits", "wires", "collectives", "built",
                 "announcers")

    def __init__(self, nranks: int) -> None:
        self.world_ranks = tuple(range(nranks))
        #: child cid -> {color: ordered world-rank tuple}
        self.splits: dict[tuple, dict[int, tuple[int, ...]]] = {}
        #: world-rank tuple -> the same members as wire ranks, for a run
        #: bound at a non-zero base (one tuple per communicator, not
        #: one per member).
        self.wires: dict[tuple[int, ...], tuple[int, ...]] = {}
        #: (cid, seq) -> [signature tuple, ranks seen]: the collective
        #: announcement registry.  The first announcement of a slot
        #: seeds it; every later announcement must match field for
        #: field, so a wrong root or a desynchronised call order fails
        #: at the *call site* of the second rank instead of as a
        #: downstream payload error or deadlock.  Entries are dropped
        #: once every participant this run built has announced, keeping
        #: the registry O(concurrent collectives).
        self.collectives: dict[tuple, list] = {}
        #: built[r] == 1 once rank r's context exists.
        self.built = bytearray(nranks)
        #: cid -> how many members of that communicator are built (the
        #: announcements that retire one of its registry slots),
        #: counted at the communicator's first announcement: every
        #: engine builds the ranks it steps before it steps any.
        self.announcers: dict[tuple, int] = {}

    def count_announcers(self, cid: tuple, world_ranks: tuple) -> int:
        count = self.announcers[cid] = sum(
            map(self.built.__getitem__, world_ranks))
        return count

    def wire(self, world_ranks: tuple[int, ...], base: int) -> tuple[int, ...]:
        wire = self.wires.get(world_ranks)
        if wire is None:
            wire = self.wires[world_ranks] = tuple(
                r + base for r in world_ranks)
        return wire


def context_factory(
    nranks: int,
    options: CollectiveOptions | None = None,
    gamma: float = 0.0,
    trace: bool = False,
    retry: RetryPolicy | None = None,
    base: int = 0,
) -> Callable[[int], "MpiContext"]:
    """``rank -> MpiContext`` for one SPMD run: every context it builds
    shares one :class:`_RankShared` (world/partition storage O(p)
    instead of O(p^2)), and a rank costs nothing until it is asked for
    — :func:`repro.core.launch.rank_programs` builds only the ranks a
    backend steps.

    ``base`` is where the run's ranks sit in the engine that steps them
    (a job of a :mod:`repro.cluster` stream is one of many in one
    engine; a standalone run is at 0).  The run itself stays
    ``0..nranks-1`` in everything it can observe; only the peers of
    the point-to-point requests its communicators yield are offset
    (see :class:`Comm`)."""
    shared = _RankShared(nranks)
    opts = options or CollectiveOptions()

    def context(rank: int) -> MpiContext:
        return MpiContext(rank, nranks, options=opts, gamma=gamma,
                          trace=trace, shared=shared, retry=retry, base=base)

    return context


def make_contexts(
    nranks: int,
    options: CollectiveOptions | None = None,
    gamma: float = 0.0,
    trace: bool = False,
    retry: RetryPolicy | None = None,
) -> list["MpiContext"]:
    """One :class:`MpiContext` per rank, all built now and sharing
    membership caches (:func:`context_factory` over every rank) — for
    callers that hand each context to a program themselves
    (``run_spmd``, the heterogeneous runner, the schedule recorder)."""
    context = context_factory(nranks, options, gamma, trace, retry)
    return [context(rank) for rank in range(nranks)]


class MpiContext:
    """Per-rank execution context: identity plus collective defaults.

    Parameters
    ----------
    rank, nranks:
        This rank's world identity.
    options:
        Collective algorithm defaults for all communicators.
    gamma:
        Seconds per floating-point operation, used by
        :meth:`compute_flops`.  The paper's model charges ``2*n^3/p``
        flops at ``gamma`` each.
    trace:
        Emit tracing spans (:mod:`repro.simulator.spans`).  Off by
        default; when off the span helpers yield nothing, so untraced
        runs carry zero overhead and bit-identical timings.
    shared:
        Membership caches shared across the ranks of one run (see
        :func:`make_contexts`).  A private one is created when omitted.
    retry:
        :class:`repro.faults.RetryPolicy` governing timed receives and
        the fault-tolerant broadcast on this rank's communicators.
        Defaults to :data:`repro.faults.DEFAULT_RETRY_POLICY`.
    base:
        Engine rank of this run's rank 0 (see :func:`context_factory`).
    """

    def __init__(
        self,
        rank: int,
        nranks: int,
        options: CollectiveOptions | None = None,
        gamma: float = 0.0,
        trace: bool = False,
        shared: _RankShared | None = None,
        retry: RetryPolicy | None = None,
        base: int = 0,
    ) -> None:
        if not (0 <= rank < nranks):
            raise CommunicatorError(f"rank {rank} outside world of {nranks}")
        self.rank = rank
        self.nranks = nranks
        self.base = base
        self.options = options or CollectiveOptions()
        require_finite(gamma, "gamma")
        if gamma < 0:
            raise CommunicatorError(f"gamma must be >= 0, got {gamma}")
        self.gamma = gamma
        self.trace = trace
        self.retry = retry or DEFAULT_RETRY_POLICY
        if shared is None or len(shared.world_ranks) != nranks:
            shared = _RankShared(nranks)
        self._shared = shared
        shared.built[rank] = 1
        self.world = Comm(self, shared.world_ranks, cid=(), _index=rank)

    def compute(self, seconds: float) -> Sequence[Any]:
        """Charge ``seconds`` of local computation (drive with
        ``yield from``)."""
        return (ComputeRequest(seconds),)

    def compute_flops(self, flops: float) -> Sequence[Any]:
        """Charge ``flops`` floating-point operations at ``gamma`` s/flop
        (drive with ``yield from``)."""
        return (ComputeRequest(flops * self.gamma),)

    # -- tracing spans ------------------------------------------------------
    #
    # span/end_span return plain request tuples rather than generators:
    # they are driven with ``yield from`` on every step of the hottest
    # rank-program loops, and an empty tuple costs no frame when tracing
    # is off.

    def span(self, name: str, **attrs: Any) -> Sequence[Any]:
        """Open a named span at the rank's current virtual time.

        Usage (always paired with :meth:`end_span`)::

            yield from ctx.span("bcast.inter", step=k)
            ...
            yield from ctx.end_span()

        A no-op (nothing yielded) when tracing is disabled.
        """
        if self.trace:
            return (SpanOpenRequest(name, attrs),)
        return ()

    def end_span(self, **attrs: Any) -> Sequence[Any]:
        """Close the innermost open span, merging ``attrs`` into it."""
        if self.trace:
            return (SpanCloseRequest(attrs),)
        return ()

    def in_span(self, name: str, gen: Gen, **attrs: Any) -> Gen:
        """Run generator ``gen`` inside a span; returns its result."""
        if not self.trace:
            result = yield from gen
            return result
        yield SpanOpenRequest(name, attrs)
        result = yield from gen
        yield SpanCloseRequest()
        return result


class Comm:
    """A communicator: an ordered subset of world ranks.

    Only member ranks hold a ``Comm`` object for a given communicator.
    ``rank``/``size`` are relative to the communicator; all public
    methods take communicator-relative ranks.

    Two tuples map a communicator rank outward.  ``_world_ranks`` is
    the member's rank in its own run — what ``world_ranks``, collective
    announcements and ``CollectiveRequest.participants`` carry.
    ``_wire`` is its rank in the engine stepping the run — the peer of
    every point-to-point request.  They are the same object unless the
    context is bound at a non-zero base.
    """

    def __init__(
        self,
        ctx: MpiContext,
        world_ranks: Sequence[int],
        cid: tuple,
        _index: int | None = None,
    ):
        self._ctx = ctx
        self._world_ranks = tuple(world_ranks)
        if _index is not None:
            # Fast path for internally-constructed communicators whose
            # membership is known valid (world, cached splits): skips
            # the O(size) duplicate check and index scan that dominate
            # setup cost at p=16384.
            self.rank = _index
        else:
            if len(set(self._world_ranks)) != len(self._world_ranks):
                raise CommunicatorError(
                    f"duplicate ranks in {self._world_ranks}"
                )
            try:
                self.rank = self._world_ranks.index(ctx.rank)
            except ValueError:
                raise CommunicatorError(
                    f"world rank {ctx.rank} is not a member of "
                    f"{self._world_ranks}"
                ) from None
        self.size = len(self._world_ranks)
        base = ctx.base
        self._wire = (ctx._shared.wire(self._world_ranks, base) if base
                      else self._world_ranks)
        self._cid = cid
        self._child_seq = itertools.count()
        self._coll_seq = itertools.count()
        self._ft_seq = itertools.count()  # ft-bcast invocation salts
        self._tag_cache: dict[int, tuple] = {}

    # -- identity -----------------------------------------------------------

    @property
    def ctx(self) -> MpiContext:
        return self._ctx

    @property
    def options(self) -> CollectiveOptions:
        return self._ctx.options

    def world_rank(self, comm_rank: int) -> int:
        """Translate a communicator rank to the world rank."""
        self._check_rank(comm_rank)
        return self._world_ranks[comm_rank]

    @property
    def world_ranks(self) -> tuple[int, ...]:
        return self._world_ranks

    def _check_rank(self, r: int) -> None:
        if not (0 <= r < self.size):
            raise CommunicatorError(
                f"rank {r} out of range for communicator of size {self.size}"
            )

    def _tag(self, tag: int) -> tuple:
        # Wire tags repeat across the steps of bulk-synchronous
        # algorithms; interning the (cid, tag) tuple keeps the engine's
        # channel-table probes on identical objects (equal either way —
        # this is purely an allocation saving).
        wire = self._tag_cache.get(tag)
        if wire is None:
            wire = self._tag_cache[tag] = (self._cid, tag)
        return wire

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Comm(size={self.size}, rank={self.rank}, cid={self._cid})"

    # -- point-to-point ------------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0, nbytes: int | None = None) -> Gen:
        """Blocking send of ``obj`` to communicator rank ``dest``."""
        self._check_rank(dest)
        yield SendRequest(self._wire[dest], self._tag(tag), obj, nbytes)

    def recv(self, source: int, tag: int = 0,
             timeout: float | None = None) -> Gen:
        """Blocking receive from communicator rank ``source``.

        With ``timeout`` set, returns :data:`repro.simulator.requests.
        RECV_TIMEOUT` if no matching send was posted within that much
        virtual time (the building block of the recovery protocols —
        see :meth:`recv_retry` and :mod:`repro.collectives.ft`).
        """
        self._check_rank(source)
        payload = yield RecvRequest(self._wire[source], self._tag(tag),
                                    timeout=timeout)
        return payload

    def recv_retry(self, source: int, tag: int = 0,
                   policy: RetryPolicy | None = None) -> Gen:
        """Receive with timeout-and-retry: re-post the receive with
        exponentially growing windows until a message arrives.

        Counts one *recovery* in the rank's stats when the receive
        succeeds after at least one expiry.  Raises
        :class:`repro.errors.FaultToleranceError` once
        ``policy.max_attempts`` windows have all expired — by then the
        peer is presumed dead, not slow.
        """
        self._check_rank(source)
        policy = policy or self._ctx.retry
        wire_tag = self._tag(tag)
        src = self._wire[source]
        for attempt in range(policy.max_attempts):
            payload = yield RecvRequest(
                src, wire_tag, timeout=policy.escalation_timeout(attempt)
            )
            if payload is not RECV_TIMEOUT:
                if attempt > 0:
                    yield CounterRequest("recoveries")
                return payload
        raise FaultToleranceError(
            f"recv from rank {source} (tag {tag}): all "
            f"{policy.max_attempts} timed attempts expired"
        )

    def isend(self, obj: Any, dest: int, tag: int = 0, nbytes: int | None = None) -> Gen:
        """Nonblocking send; returns a handle for :meth:`wait`."""
        self._check_rank(dest)
        handle = yield ISendRequest(self._wire[dest], self._tag(tag), obj, nbytes)
        return handle

    def irecv(self, source: int, tag: int = 0) -> Gen:
        """Nonblocking receive; returns a handle for :meth:`wait`."""
        self._check_rank(source)
        handle = yield IRecvRequest(self._wire[source], self._tag(tag))
        return handle

    # A RequestHandle yielded to the engine waits on itself (see the
    # engine's dispatch table).

    def wait(self, handle: RequestHandle) -> Gen:
        """Block until ``handle`` completes; returns irecv payload."""
        payload = yield handle
        return payload

    def waitall(self, handles: Sequence[RequestHandle]) -> Gen:
        """Wait on every handle; returns payloads in handle order."""
        results = []
        for handle in handles:
            payload = yield handle
            results.append(payload)
        return results

    def sendrecv(
        self,
        sendobj: Any,
        dest: int,
        source: int,
        sendtag: int = 0,
        recvtag: int = 0,
        nbytes: int | None = None,
    ) -> Gen:
        """Simultaneous send+receive (the Cannon/Fox shift primitive)."""
        self._check_rank(dest)
        self._check_rank(source)
        wire = self._wire
        # The engine's fused shift primitive: both posts plus both
        # waits (receive first, send second) in one resume — identical
        # on the wire and in every charged wait time to the explicit
        # isend/irecv/wait sequence.
        payload = yield SendRecvRequest(
            wire[dest], wire[source], self._tag(sendtag),
            self._tag(recvtag), sendobj, nbytes,
        )
        return payload

    # -- collectives ----------------------------------------------------------
    #
    # Every collective first yields a CollectiveRequest announcing the
    # operation.  The discrete-event backend absorbs it (resumes with
    # None) and the method expands the collective into point-to-point
    # messages exactly as before; the macro backend instead satisfies
    # the request from a cost oracle and resumes with a
    # CollectiveReply carrying the op's result, skipping the expansion.
    #
    # When the context traces, every collective call wraps itself in a
    # ``coll.*`` span annotated with the resolved algorithm name, the
    # communicator size and (at close, once known on every rank) the
    # payload's wire size — so span trees self-document which collective
    # ran where without the algorithms knowing about tracing at all.

    def _announce(
        self,
        op: str,
        algorithm: str,
        payload: Any,
        root: int | None = None,
        segments: int | None = None,
    ) -> CollectiveRequest:
        seq = next(self._coll_seq)
        sig = (self._world_ranks, op, root, algorithm, segments)
        shared = self._ctx._shared
        registry = shared.collectives
        key = (self._cid, seq)
        entry = registry.get(key)
        if entry is None:
            entry = registry[key] = [sig, 1]
        else:
            if entry[0] != sig:
                self._reject_announcement(key, entry[0], sig)
            entry[1] += 1
        announcers = shared.announcers.get(self._cid)
        if announcers is None:
            announcers = shared.count_announcers(self._cid, self._world_ranks)
        if entry[1] >= announcers:
            del registry[key]
        return CollectiveRequest(
            op,
            algorithm,
            self._cid,
            seq,
            self._world_ranks,
            self.rank,
            root,
            payload,
            segments,
        )

    def _reject_announcement(self, key: tuple, expected: tuple,
                             observed: tuple) -> None:
        """A second rank announced collective slot ``key`` with a
        different signature: name the first differing field and fail
        eagerly with the verification check id a verifier would
        assign."""
        names = [name for name, _ in SIGNATURE]
        exp = dict(zip(names, expected))
        obs = dict(zip(names, observed))
        for name, check in SIGNATURE:
            if exp[name] != obs[name]:
                raise CollectiveMismatchError(
                    f"rank {self._ctx.rank}: collective #{key[1]} on "
                    f"communicator {key[0] or '()'} announced "
                    f"{name}={obs[name]!r} but another participant "
                    f"announced {name}={exp[name]!r} ({check})",
                    check=check, cid=key[0], seq=key[1],
                    expected=exp, observed=obs,
                )
        raise CollectiveMismatchError(  # pragma: no cover - defensive
            f"inconsistent collective announcement for {key}",
            check="collective-arg-mismatch", cid=key[0], seq=key[1],
            expected=exp, observed=obs,
        )

    def _collective(
        self,
        row: Collective,
        obj: Any,
        root: int | None = None,
        algorithm: str | None = None,
        segments: int | None = None,
    ) -> Gen:
        """The one path of every collective call: open its ``coll.*``
        span, announce it, expand it unless the backend replied with
        the result, close the span."""
        ctx = self._ctx
        name = algorithm or (getattr(ctx.options, row.option) if row.option
                             else next(iter(row.algorithms)))
        from_root = row.size == ROOT
        if ctx.trace:
            attrs = {"comm_size": self.size, "algorithm": name}
            if row.rooted:
                attrs["root"] = root
            yield SpanOpenRequest(row.span, attrs)
        reply = yield self._announce(
            row.op, name, None if from_root and self.rank != root else obj,
            root=root, segments=segments,
        )
        if reply is None:
            # Algorithm lookup deferred to the expansion path: the
            # macro backend answers most announcements without it.
            algo = row.algorithm(name)
            if row.size is None:
                result = yield from algo(self)
            elif not row.rooted:
                result = yield from algo(self, obj)
            elif segments is None:
                result = yield from algo(self, obj, root)
            else:
                result = yield from algo(self, obj, root, segments=segments)
        else:
            result = reply.value
        if ctx.trace:
            yield SpanCloseRequest(
                {"nbytes": _wire_size(result if from_root else obj)})
        return result

    def bcast(self, obj: Any, root: int, algorithm: str | None = None) -> Gen:
        """Broadcast ``obj`` from ``root``; returns the object on every rank.

        ``algorithm`` overrides the context default for this call.
        """
        self._check_rank(root)
        return self._collective(COLLECTIVES["bcast"], obj, root, algorithm,
                                self._ctx.options.bcast_segments)

    def scatter(self, parts: Sequence[Any] | None, root: int) -> Gen:
        """Scatter ``parts[i]`` to rank ``i``; ``parts`` given on root only."""
        self._check_rank(root)
        if self.rank == root:
            # Early argument validation: fail at the call site instead
            # of as a downstream IndexError inside the scatter tree.
            if parts is None:
                raise CommunicatorError(
                    f"scatter root {root} must supply the parts sequence"
                )
            if len(parts) < self.size:
                raise CommunicatorError(
                    f"scatter root {root} supplied {len(parts)} parts for a "
                    f"communicator of size {self.size}"
                )
        return self._collective(COLLECTIVES["scatter"], parts, root)

    def gather(self, obj: Any, root: int) -> Gen:
        """Gather every rank's ``obj`` to ``root`` (list indexed by rank)."""
        self._check_rank(root)
        return self._collective(COLLECTIVES["gather"], obj, root)

    def allgather(self, obj: Any, algorithm: str | None = None) -> Gen:
        """All ranks end with the list of every rank's contribution."""
        return self._collective(COLLECTIVES["allgather"], obj,
                                algorithm=algorithm)

    def reduce(self, obj: Any, root: int) -> Gen:
        """Element-wise sum onto ``root`` (None elsewhere)."""
        self._check_rank(root)
        return self._collective(COLLECTIVES["reduce"], obj, root)

    def allreduce(self, obj: Any, algorithm: str | None = None) -> Gen:
        """Element-wise sum delivered to every rank."""
        return self._collective(COLLECTIVES["allreduce"], obj,
                                algorithm=algorithm)

    def barrier(self) -> Gen:
        """Dissemination barrier."""
        return self._collective(COLLECTIVES["barrier"], None)

    # -- derived communicators -------------------------------------------------

    def _next_cid(self) -> tuple:
        return self._cid + (next(self._child_seq),)

    def dup(self) -> "Comm":
        """Duplicate with a fresh context (collective over members)."""
        return Comm(self._ctx, self._world_ranks, self._next_cid())

    def split_by(
        self,
        color_of: Callable[[int], int],
        key_of: Callable[[int], int] | None = None,
    ) -> "Comm":
        """Split into disjoint communicators by color (collective call).

        ``color_of(r)`` and ``key_of(r)`` are evaluated for every member
        rank ``r`` of this communicator and must be pure functions so
        all members derive identical memberships.  Returns the new
        communicator containing this rank, ordered by ``(key, rank)``.

        The full partition is computed once per run and shared across
        ranks (keyed by the collectively-unique child context id) —
        sound for exactly the reason the split is collective: every
        member evaluates the same functions over the same members, so
        the first rank's partition is every rank's partition.
        """
        cid = self._next_cid()
        my_color = color_of(self.rank)
        partition = self._ctx._shared.splits.get(cid)
        if partition is None:
            by_color: dict[int, list[int]] = {}
            for r in range(self.size):
                by_color.setdefault(color_of(r), []).append(r)
            partition = {}
            for color, members in by_color.items():
                if key_of is not None:
                    members.sort(key=lambda r: (key_of(r), r))
                partition[color] = tuple(
                    self._world_ranks[r] for r in members
                )
            self._ctx._shared.splits[cid] = partition
        world = partition[my_color]
        return Comm(
            self._ctx,
            world,
            cid + (my_color,),
            _index=world.index(self._ctx.rank),
        )

    def subset(self, comm_ranks: Sequence[int]) -> "Comm | None":
        """Communicator over ``comm_ranks`` (collective over members).

        Returns ``None`` on ranks outside the subset; every member of
        *this* communicator must call it with the same list.
        """
        cid = self._next_cid()
        for r in comm_ranks:
            self._check_rank(r)
        if self.rank not in comm_ranks:
            return None
        world = [self._world_ranks[r] for r in comm_ranks]
        return Comm(self._ctx, world, cid)
