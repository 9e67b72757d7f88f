"""Additional collectives: Bruck allgather, reduce-scatter, and the
Rabenseifner allreduce.

These round out the library to the set a production MPI implements and
give the 2.5D/3D baselines better reduction paths:

* :func:`allgather_bruck` — ``ceil(log2 p)`` rounds for *any* p;
  beats the ring on latency for small payloads.
* :func:`reduce_scatter_ring` — bandwidth-optimal ring: each rank ends
  with one combined chunk, ``(p-1)/p`` of the data crossing each link.
* :func:`allreduce_rabenseifner` — reduce-scatter + allgather; for
  large messages this halves the bandwidth term of the
  reduce-then-broadcast approach.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.payloads import (
    combine_payloads,
    join_payload,
    split_payload,
)

Gen = Generator[Any, Any, Any]

TAG_BRUCK = -80
TAG_RSCAT = -81
TAG_RAG = -82


def allgather_bruck(comm: Any, obj: Any) -> Gen:
    """Bruck's allgather: in round ``k`` rank ``r`` sends everything it
    has to ``r - 2^k`` and receives from ``r + 2^k``; after
    ``ceil(log2 p)`` rounds every rank holds all ``p`` items (then
    locally rotates them into rank order)."""
    size = comm.size
    me = comm.rank
    items: dict[int, Any] = {0: obj}  # keyed by offset from me
    if size == 1:
        return [obj]
    dist = 1
    while dist < size:
        dst = (me - dist) % size
        src = (me + dist) % size
        # Send the offsets I currently hold that the partner lacks:
        # in the last round only the ``size - dist`` it still needs.
        bundle = [(off, val) for off, val in items.items()
                  if off < min(dist, size - dist)]
        incoming = yield from comm.sendrecv(
            bundle, dst, src, sendtag=TAG_BRUCK, recvtag=TAG_BRUCK
        )
        for off, val in incoming:
            items[off + dist] = val
        dist *= 2
    out = [None] * size
    for off, val in items.items():
        out[(me + off) % size] = val
    return out


def reduce_scatter_ring(comm: Any, obj: Any) -> Gen:
    """Ring reduce-scatter of the element-wise sum.

    ``obj`` (same shape on every rank) is cut into ``p`` chunks; after
    ``p-1`` rounds rank ``r`` returns the fully reduced chunk with
    index ``(r+1) mod p`` as a segment object (whose ``.index`` carries
    the chunk position, so :func:`repro.payloads.join_payload`
    reassembles regardless of which rank held what).
    """
    size = comm.size
    me = comm.rank
    chunks = split_payload(obj, size)
    if size == 1:
        return chunks[0]
    right = (me + 1) % size
    left = (me - 1) % size
    # Round q: send the (partially reduced) chunk for index
    # (me - q) mod p to the right; receive and fold (me - q - 1) mod p.
    acc = {idx: seg for idx, seg in enumerate(chunks)}
    carry_idx = me
    for _q in range(size - 1):
        outgoing = acc.pop(carry_idx)
        incoming = yield from comm.sendrecv(
            outgoing, right, left, sendtag=TAG_RSCAT, recvtag=TAG_RSCAT
        )
        carry_idx = (carry_idx - 1) % size
        mine = acc[carry_idx]
        merged_data = combine_payloads(mine.data, incoming.data)
        acc[carry_idx] = type(mine)(
            index=mine.index, total=mine.total, data=merged_data,
            shape=mine.shape, phantom=mine.phantom,
        )
    return acc[carry_idx]


def allreduce_rabenseifner(comm: Any, obj: Any) -> Gen:
    """Reduce-scatter + allgather allreduce (Rabenseifner's algorithm).

    Bandwidth ``~2 (p-1)/p * m * beta`` — half of reduce+broadcast's —
    at ``2(p-1)`` latency; the large-message allreduce of choice.
    """
    size = comm.size
    if size == 1:
        return obj
    my_segment = yield from reduce_scatter_ring(comm, obj)
    # Ring allgather of the reduced segments.
    right = (comm.rank + 1) % size
    left = (comm.rank - 1) % size
    segments = {comm.rank: my_segment}
    carry = my_segment
    carry_idx = comm.rank
    for _q in range(size - 1):
        incoming = yield from comm.sendrecv(
            carry, right, left, sendtag=TAG_RAG, recvtag=TAG_RAG
        )
        carry = incoming
        carry_idx = (carry_idx - 1) % size
        segments[carry_idx] = incoming
    ordered = [segments[i] for i in range(size)]
    return join_payload(ordered)
