"""Allgather: every rank ends with the list of all contributions."""

from __future__ import annotations

from typing import Any, Generator

from repro.payloads import nbytes_of

Gen = Generator[Any, Any, Any]

TAG_AG_RING = -40


def allgather_ring(comm: Any, obj: Any) -> Gen:
    """Bucket/ring allgather: ``p-1`` rounds, each rank forwards the
    newest item to its right neighbour.  Latency ``(p-1)*alpha``,
    bandwidth-optimal ``(p-1)/p * total_bytes * beta``."""
    size = comm.size
    out: list[Any] = [None] * size
    out[comm.rank] = obj
    if size == 1:
        return out
    right = (comm.rank + 1) % size
    left = (comm.rank - 1) % size
    carry = obj
    carry_index = comm.rank
    for _ in range(size - 1):
        incoming = yield from comm.sendrecv(
            carry,
            right,
            left,
            sendtag=TAG_AG_RING,
            recvtag=TAG_AG_RING,
            nbytes=nbytes_of(carry) if hasattr(carry, "nbytes") else None,
        )
        carry = incoming
        carry_index = (carry_index - 1) % size
        out[carry_index] = incoming
    return out

