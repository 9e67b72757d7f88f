"""Broadcast algorithms.

All algorithms work on arbitrary communicator sizes and roots by
operating on *relative* ranks ``vr = (rank - root) mod size`` so the
root is always relative rank 0.  Internal messages use the reserved
negative tag :data:`TAG_BCAST`.

Cost recap under Hockney (``p`` ranks, message ``m`` bytes), matching
:func:`repro.costs.bcast_time`:

==============  =======================================================
flat            ``(p-1) * (alpha + m*beta)``
chain           ``(p-1) * (alpha + m*beta)``
binomial        ``ceil(log2 p) * (alpha + m*beta)``
binary          ``~2*depth * (alpha + m*beta)``
pipelined       ``(p-2+S) * (alpha + (m/S)*beta)``, S segments
segmented       ``(fill(p)-2+2S) * (alpha + (m/S)*beta)``, binary tree
fourcolor       ``(p-2+S) * (alpha + (m/(2S))*beta)``, bidirectional ring
hypersystolic   ``(D(p)+S-1) * (alpha + (m/S)*beta)``, stride-K ring
vandegeijn      ``(log2 p + p - 1)*alpha + 2*(p-1)/p * m*beta``
==============  =======================================================

The last one is the Van de Geijn/Barnett scatter–ring-allgather used by
the paper's Table II; binomial is Table I.  The segmented family
(middle three rows) lives in :mod:`repro.collectives.pipelined`:
``fill(p)`` is the pipelined binary tree's fill depth
(:func:`repro.costs.segmented_fill_slots`), ``D(p)`` the
hyper-systolic two-level ring depth at the registry's optimal stride
(:func:`repro.costs.hypersystolic_depth`).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import ConfigurationError
from repro.collectives.scatter import range_scatter_rel
from repro.payloads import join_payload, split_payload
from repro.simulator.requests import SendRecvRequest

Gen = Generator[Any, Any, Any]

#: Reserved tags (negative so user tags >= 0 never collide).
TAG_BCAST = -1
TAG_BCAST_PIPE = -2
TAG_SCATTER = -3
TAG_ALLGATHER = -4


def _rel(rank: int, root: int, size: int) -> int:
    return (rank - root) % size


def _abs(vrank: int, root: int, size: int) -> int:
    return (vrank + root) % size


def bcast_flat(comm: Any, obj: Any, root: int, *, segments: int | None = None) -> Gen:
    """Flat tree: the root sends to every other rank, one at a time."""
    if comm.size == 1:
        return obj
    if comm.rank == root:
        for vr in range(1, comm.size):
            yield from comm.send(obj, _abs(vr, root, comm.size), tag=TAG_BCAST)
        return obj
    obj = yield from comm.recv(root, tag=TAG_BCAST)
    return obj


def bcast_binomial(
    comm: Any, obj: Any, root: int, *, segments: int | None = None
) -> Gen:
    """Binomial tree: ``ceil(log2 p)`` rounds, message doubled per round.

    In round ``k`` every relative rank ``vr < 2**k`` sends to
    ``vr + 2**k`` (when that rank exists).
    """
    size = comm.size
    if size == 1:
        return obj
    vr = _rel(comm.rank, root, size)
    nrounds = (size - 1).bit_length()
    # Receive exactly once: in the round where my high bit is the sender's.
    if vr != 0:
        high = 1 << (vr.bit_length() - 1)
        parent = vr - high
        obj = yield from comm.recv(_abs(parent, root, size), tag=TAG_BCAST)
        start_round = vr.bit_length()  # first round after my arrival
    else:
        start_round = 0
    for k in range(start_round, nrounds):
        child = vr + (1 << k)
        if child < size:
            yield from comm.send(obj, _abs(child, root, size), tag=TAG_BCAST)
    return obj


def bcast_binary(comm: Any, obj: Any, root: int, *, segments: int | None = None) -> Gen:
    """Balanced binary tree: relative rank ``vr`` has children
    ``2vr+1`` and ``2vr+2``; inner nodes forward to both children."""
    size = comm.size
    if size == 1:
        return obj
    vr = _rel(comm.rank, root, size)
    if vr != 0:
        parent = (vr - 1) // 2
        obj = yield from comm.recv(_abs(parent, root, size), tag=TAG_BCAST)
    for child in (2 * vr + 1, 2 * vr + 2):
        if child < size:
            yield from comm.send(obj, _abs(child, root, size), tag=TAG_BCAST)
    return obj


def bcast_chain(comm: Any, obj: Any, root: int, *, segments: int | None = None) -> Gen:
    """Linear chain without segmentation: ``vr`` receives from ``vr-1``
    and forwards to ``vr+1``."""
    size = comm.size
    if size == 1:
        return obj
    vr = _rel(comm.rank, root, size)
    if vr > 0:
        obj = yield from comm.recv(_abs(vr - 1, root, size), tag=TAG_BCAST)
    if vr + 1 < size:
        yield from comm.send(obj, _abs(vr + 1, root, size), tag=TAG_BCAST)
    return obj


def bcast_pipelined(
    comm: Any, obj: Any, root: int, *, segments: int | None = None
) -> Gen:
    """Pipelined chain: the message is cut into segments that stream
    down the chain, overlapping each hop's send with the next segment's
    arrival.

    ``segments=None`` picks a size-oblivious default of
    ``max(4, ceil(log2 p))`` — callers who know the platform's
    ``alpha/beta`` should pass
    :func:`repro.costs.optimal_pipeline_segments`.
    """
    size = comm.size
    if size == 1:
        return obj
    vr = _rel(comm.rank, root, size)
    nseg = segments if segments is not None else max(4, (size - 1).bit_length())
    if nseg < 1:
        raise ConfigurationError(f"segments must be >= 1, got {segments}")

    prev_rank = _abs(vr - 1, root, size)
    next_rank = _abs(vr + 1, root, size)
    has_prev = vr > 0
    has_next = vr + 1 < size

    if not has_prev:
        parts = split_payload(obj, nseg)
        for k, part in enumerate(parts):
            yield from comm.send(part, next_rank, tag=TAG_BCAST_PIPE + -10 * k)
        return obj

    # Post every receive up front so upstream transfers overlap with our
    # forwarding sends (the engine matches them as upstream posts).
    handles = []
    for k in range(nseg):
        h = yield from comm.irecv(prev_rank, tag=TAG_BCAST_PIPE + -10 * k)
        handles.append(h)
    parts = []
    for k in range(nseg):
        part = yield from comm.wait(handles[k])
        parts.append(part)
        if has_next:
            yield from comm.send(part, next_rank, tag=TAG_BCAST_PIPE + -10 * k)
    return join_payload(parts)


def bcast_vandegeijn(
    comm: Any, obj: Any, root: int, *, segments: int | None = None
) -> Gen:
    """Van de Geijn broadcast: binomial *scatter* of ``p`` pieces, then
    ring *allgather* — the large-message algorithm of Table II.

    Latency ``(ceil(log2 p) + p - 1) * alpha``; each byte crosses the
    wire about twice: bandwidth term ``2*(p-1)/p * m * beta``.
    """
    size = comm.size
    if size == 1:
        return obj
    vr = _rel(comm.rank, root, size)

    # ---- tree scatter: relative rank vr ends with segment vr -----------
    held = split_payload(obj, size) if vr == 0 else None
    my_segment = yield from range_scatter_rel(comm, held, root, tag=TAG_SCATTER)

    # ---- ring allgather of the p segments -------------------------------
    # The hottest loop of every large-message broadcast: the sendrecv
    # helper is replaced by the engine's fused SendRecvRequest
    # (identical on the wire and in every charged wait time, but one
    # engine resume per round instead of four, with the per-call rank
    # checks and tag interning hoisted out of the loop).
    segs: list[Any] = [None] * size
    segs[vr] = my_segment
    world = comm._wire
    right = world[_abs(vr + 1, root, size)]
    left = world[_abs(vr - 1, root, size)]
    wire_tag = comm._tag(TAG_ALLGATHER)
    carry = my_segment
    carry_index = vr
    # One request object reused every round: the engine consumes the
    # fields synchronously within the resume and never stores the
    # request, so mutating payload/nbytes between yields is safe.
    # carry is always a _Segment here, so .nbytes is its cached wire
    # size (nbytes_of would compute the same int).
    req = SendRecvRequest(right, left, wire_tag, wire_tag,
                          carry, carry.nbytes)
    for _round in range(size - 1):
        carry = yield req
        req.payload = carry
        req.nbytes = carry.nbytes
        carry_index = carry_index - 1 if carry_index else size - 1
        segs[carry_index] = carry

    return join_payload(segs)
