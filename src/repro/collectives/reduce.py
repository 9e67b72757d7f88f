"""Reductions (element-wise sum) and allreduce.

Used by the 3-D and 2.5-D baseline algorithms to combine partial C
contributions across replication layers.  Reduction arithmetic is
charged zero virtual compute time: in every algorithm here the
reduction flops are a lower-order term next to the ``2n^3/p`` gemm
cost, and the paper's model ignores them too.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.payloads import combine_payloads

Gen = Generator[Any, Any, Any]

TAG_REDUCE = -50
TAG_ALLRED = -51


def reduce_binomial(comm: Any, obj: Any, root: int) -> Gen:
    """Binomial-tree reduce: mirror image of the binomial broadcast,
    ``ceil(log2 p)`` rounds."""
    size = comm.size
    if size == 1:
        return obj
    vr = (comm.rank - root) % size
    acc = obj
    nrounds = (size - 1).bit_length()
    for k in range(nrounds):
        bit = 1 << k
        if vr & bit:
            parent = ((vr - bit) + root) % size
            yield from comm.send(acc, parent, tag=TAG_REDUCE)
            return None
        child = vr + bit
        if child < size:
            other = yield from comm.recv((child + root) % size, tag=TAG_REDUCE)
            acc = combine_payloads(acc, other)
    return acc


def allreduce_rd(comm: Any, obj: Any) -> Gen:
    """Recursive-doubling allreduce for power-of-two sizes,
    reduce-then-broadcast otherwise."""
    size = comm.size
    if size == 1:
        return obj
    if size & (size - 1) != 0:
        acc = yield from reduce_binomial(comm, obj, 0)
        acc = yield from comm.bcast(acc, 0)
        return acc
    acc = obj
    dist = 1
    while dist < size:
        partner = comm.rank ^ dist
        other = yield from comm.sendrecv(
            acc, partner, partner, sendtag=TAG_ALLRED, recvtag=TAG_ALLRED
        )
        acc = combine_payloads(acc, other)
        dist *= 2
    return acc
