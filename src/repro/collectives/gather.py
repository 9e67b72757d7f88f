"""Gather: collect every rank's contribution onto the root.

The tree gather replays the scatter's range-splitting tree bottom-up:
each "mid" rank bundles its half-range and hands it to the "lo" rank
one level up, so the root receives ``ceil(log2 p)`` bundles.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.collectives.scatter import split_path

Gen = Generator[Any, Any, Any]

TAG_GATHER_OP = -30


def gather_binomial(comm: Any, obj: Any, root: int) -> Gen:
    """Range-splitting tree gather, mirror of the tree scatter.

    Returns the list indexed by communicator rank on the root, ``None``
    elsewhere.
    """
    size = comm.size
    if size == 1:
        return [obj]
    vr = (comm.rank - root) % size
    held: dict[int, Any] = {vr: obj}

    for lo, mid, hi in reversed(split_path(size, vr)):
        if vr == mid:
            bundle = [held[i] for i in range(mid, hi)]
            yield from comm.send(bundle, (lo + root) % size, tag=TAG_GATHER_OP)
            return None  # contributed; done
        if vr == lo:
            bundle = yield from comm.recv((mid + root) % size, tag=TAG_GATHER_OP)
            for i, val in zip(range(mid, hi), bundle):
                held[i] = val

    assert vr == 0
    out: list[Any] = [None] * size
    for i, val in held.items():
        out[(i + root) % size] = val
    return out
