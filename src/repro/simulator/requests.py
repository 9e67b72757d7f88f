"""Request objects yielded by rank programs to the simulation engine.

A rank program is a generator; each ``yield`` hands the engine one of
the request types below and (for blocking requests) suspends the rank
until the operation completes.  Nonblocking requests resume immediately
with a :class:`RequestHandle`; yielding the handle waits on it.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SimulationError


def payload_nbytes(payload: Any) -> int:
    """Best-effort wire size of ``payload`` in bytes.

    Knows numpy arrays (``.nbytes``), objects exposing ``nbytes``
    (phantom blocks), ``bytes``/``bytearray``, ``None`` (control
    message: 0 bytes), and Python floats/ints (8 bytes).  Anything else
    must pass an explicit size — guessing pickled sizes would make the
    model silently depend on pickle internals.
    """
    if payload is None:
        return 0
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, (tuple, list)):
        return sum(payload_nbytes(item) for item in payload)
    if isinstance(payload, dict):
        # Data volume only; keys are indexing metadata.
        return sum(payload_nbytes(v) for v in payload.values())
    raise SimulationError(
        f"cannot infer wire size of {type(payload).__name__}; pass nbytes explicitly"
    )


class _Request:
    """Base marker for everything a rank may yield."""

    __slots__ = ()


class SendRequest(_Request):
    """Blocking send: resumes when the matching receive has completed
    the transfer (rendezvous semantics, as in the paper's model where
    both endpoints are busy for ``alpha + m*beta``)."""

    __slots__ = ("dst", "tag", "payload", "nbytes")

    def __init__(self, dst: int, tag: int, payload: Any, nbytes: int | None = None):
        self.dst = dst
        self.tag = tag
        self.payload = payload
        self.nbytes = payload_nbytes(payload) if nbytes is None else int(nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Send(dst={self.dst}, tag={self.tag}, nbytes={self.nbytes})"


class RecvRequest(_Request):
    """Blocking receive from ``src`` with ``tag``; resumes with the payload.

    With ``timeout`` set, the receive expires after that much virtual
    time if no matching send has been *posted* by then, resuming the
    rank with the :data:`RECV_TIMEOUT` sentinel instead of a payload
    (the fault-tolerance primitive — see ``docs/robustness.md``).  Once
    a send has matched, the transfer always completes, even past the
    deadline.
    """

    __slots__ = ("src", "tag", "timeout")

    def __init__(self, src: int, tag: int, timeout: float | None = None):
        self.src = src
        self.tag = tag
        if timeout is not None and timeout <= 0:
            raise SimulationError(f"recv timeout must be > 0, got {timeout}")
        self.timeout = timeout

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        extra = "" if self.timeout is None else f", timeout={self.timeout:.3g}"
        return f"Recv(src={self.src}, tag={self.tag}{extra})"


class _RecvTimeout:
    """Singleton sentinel a timed receive resumes with on expiry."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "RECV_TIMEOUT"


#: Returned by ``yield RecvRequest(..., timeout=...)`` when it expires.
RECV_TIMEOUT = _RecvTimeout()


class CounterRequest(_Request):
    """Bump a named fault counter on this rank's stats (zero time).

    The MPI layer uses it to report recoveries (a receive that
    succeeded after at least one timeout/escalation) without the
    engine having to understand the protocol.
    """

    __slots__ = ("name", "amount")

    #: Counters a rank program may bump (RankStats field names).
    ALLOWED = frozenset({"recoveries"})

    def __init__(self, name: str, amount: int = 1):
        if name not in self.ALLOWED:
            raise SimulationError(
                f"unknown counter {name!r}; allowed: {sorted(self.ALLOWED)}"
            )
        self.name = name
        self.amount = amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}+={self.amount})"


class ISendRequest(_Request):
    """Nonblocking send; resumes immediately with a :class:`RequestHandle`."""

    __slots__ = ("dst", "tag", "payload", "nbytes")

    def __init__(self, dst: int, tag: int, payload: Any, nbytes: int | None = None):
        self.dst = dst
        self.tag = tag
        self.payload = payload
        self.nbytes = payload_nbytes(payload) if nbytes is None else int(nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ISend(dst={self.dst}, tag={self.tag}, nbytes={self.nbytes})"


class IRecvRequest(_Request):
    """Nonblocking receive; resumes immediately with a :class:`RequestHandle`."""

    __slots__ = ("src", "tag")

    def __init__(self, src: int, tag: int):
        self.src = src
        self.tag = tag

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IRecv(src={self.src}, tag={self.tag})"


class SendRecvRequest(_Request):
    """Fused shift primitive: post a nonblocking send to ``dst`` and a
    nonblocking receive from ``src``, then block until both complete.

    Semantically identical to isend + irecv + wait(recv) + wait(send)
    — same posting order, same charged wait times — but the engine
    satisfies it in a single generator resume, which matters in ring
    loops (Cannon shifts, the Van de Geijn allgather).  Resumes with
    the received payload.
    """

    __slots__ = ("dst", "src", "sendtag", "recvtag", "payload", "nbytes")

    def __init__(self, dst: int, src: int, sendtag: int, recvtag: int,
                 payload: Any, nbytes: int | None = None):
        self.dst = dst
        self.src = src
        self.sendtag = sendtag
        self.recvtag = recvtag
        self.payload = payload
        self.nbytes = payload_nbytes(payload) if nbytes is None else int(nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SendRecv(dst={self.dst}, src={self.src}, "
                f"nbytes={self.nbytes})")


class CollectiveRequest(_Request):
    """Structured description of one collective call, yielded by the
    MPI layer *before* expanding into point-to-point messages.

    The discrete-event backend absorbs it (resuming the rank with
    ``None``), upon which the communicator expands the collective into
    the exact per-message schedule — bit-identical to the pre-request
    behaviour.  The macro backend instead satisfies the request
    directly from a cost oracle and resumes every participant with a
    :class:`CollectiveReply`, skipping the expansion entirely.

    Attributes
    ----------
    op:
        Operation name: a key of :data:`repro.collectives.COLLECTIVES`.
    algorithm:
        Resolved algorithm registry name for ``op``.
    cid:
        Hierarchical context id of the communicator; identical across
        ranks for the same communicator (SPMD discipline).
    seq:
        Per-communicator collective sequence number; ``(cid, seq)`` is
        the cross-rank matching key.
    participants:
        World ranks of the communicator, in communicator-rank order.
    me:
        This rank's communicator rank (index into ``participants``).
    root:
        Communicator rank of the root for rooted operations, else None.
    payload:
        This rank's payload under the op's size convention (only the
        root supplies one for a ``ROOT``-sized op; None otherwise).
    segments:
        Segment count for segmented algorithms (pipelined broadcast),
        or None.
    """

    __slots__ = ("op", "algorithm", "cid", "seq", "participants", "me",
                 "root", "payload", "nbytes", "segments")

    def __init__(
        self,
        op: str,
        algorithm: str,
        cid: tuple,
        seq: int,
        participants: tuple,
        me: int,
        root: int | None,
        payload: Any,
        segments: int | None = None,
    ):
        self.op = op
        self.algorithm = algorithm
        self.cid = cid
        self.seq = seq
        self.participants = participants
        self.me = me
        self.root = root
        self.payload = payload
        self.nbytes = payload_nbytes(payload)
        self.segments = segments

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        root = "" if self.root is None else f", root={self.root}"
        return (f"Collective({self.op}/{self.algorithm}, "
                f"p={len(self.participants)}{root}, cid={self.cid}, "
                f"seq={self.seq})")


class CollectiveReply:
    """A backend's answer to a :class:`CollectiveRequest`.

    Wrapping the value distinguishes "the collective was satisfied and
    its result is None" (e.g. a reduce on a non-root rank) from "expand
    the collective yourself" (the plain ``None`` the discrete-event
    backend resumes with).

    ``schedule`` is the recorded :class:`~repro.simulator.replay.
    Schedule` of a broadcast the DES replayed (the legs it stands in
    for, which a verifier's recorder credits to the rank); None for an
    answer that moved no messages, such as the macro backend's.
    """

    __slots__ = ("value", "schedule")

    def __init__(self, value: Any, schedule: Any = None):
        self.value = value
        self.schedule = schedule

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CollectiveReply({self.value!r})"


class ComputeRequest(_Request):
    """Advance the rank's clock by ``seconds`` of local computation."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float):
        if seconds < 0:
            raise SimulationError(f"compute time must be >= 0, got {seconds}")
        self.seconds = float(seconds)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Compute({self.seconds:.3g}s)"


class RequestHandle:
    """Completion token for a nonblocking operation.

    Attributes
    ----------
    done:
        True once the transfer has finished.
    finish_time:
        Virtual completion time (valid once ``done``).
    payload:
        Delivered object for irecv handles (valid once ``done``).
    """

    __slots__ = ("rank", "kind", "done", "finish_time", "payload", "_waiter",
                 "_parked_state", "_pair", "_internal")

    def __init__(self, rank: int, kind: str):
        self.rank = rank
        self.kind = kind  # "send" | "recv"
        self.done = False
        self.finish_time = 0.0
        self.payload: Any = None
        self._waiter = False  # rank parked on this handle?
        self._parked_state: Any = None  # engine-internal: the parked rank
        self._pair: Any = None  # second handle of a parked pair wait
        self._internal = False  # engine-owned (never seen by a program)?

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "pending"
        return f"Handle({self.kind}, rank={self.rank}, {state})"
