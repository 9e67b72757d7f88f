"""Scatter: distribute ``parts[i]`` from the root to rank ``i``.

The tree scatter uses *range splitting*: the holder of a contiguous
range of parts repeatedly sends the upper half to the first rank of
that half, halving its own range, until every rank holds exactly its
own part.  This gives ``ceil(log2 p)`` rounds on the critical path and
moves each byte only along its own root-to-leaf path — the classic
MPI_Scatter tree, and the scatter phase of the Van de Geijn broadcast.
"""

from __future__ import annotations

from typing import Any, Generator, Sequence

from repro.errors import ConfigurationError

Gen = Generator[Any, Any, Any]

TAG_SCATTER_OP = -20


def split_path(size: int, vr: int) -> list[tuple[int, int, int]]:
    """The sequence of ``(lo, mid, hi)`` range splits on relative rank
    ``vr``'s root-to-leaf path in the range-splitting tree over
    ``[0, size)``.  Shared by scatter (top-down) and gather (replayed
    bottom-up)."""
    path = []
    lo, hi = 0, size
    while hi - lo > 1:
        mid = lo + (hi - lo + 1) // 2
        path.append((lo, mid, hi))
        if vr < mid:
            hi = mid
        else:
            lo = mid
    return path


def range_scatter_rel(
    comm: Any, held: list[Any] | None, root: int, tag: int = TAG_SCATTER_OP
) -> Gen:
    """Scatter ``held`` (given on the root, indexed by *relative* rank)
    down the range-splitting tree; returns this rank's item."""
    size = comm.size
    vr = (comm.rank - root) % size
    if size == 1:
        if held is None or len(held) != 1:
            raise ConfigurationError("scatter root needs exactly 1 part")
        return held[0]
    if vr == 0:
        if held is None or len(held) != size:
            raise ConfigurationError(
                f"scatter root needs exactly {size} parts, got "
                f"{None if held is None else len(held)}"
            )
        held = list(held)

    lo, hi = 0, size
    while hi - lo > 1:
        mid = lo + (hi - lo + 1) // 2
        if vr < mid:
            if vr == lo:
                yield from comm.send(
                    held[mid - lo : hi - lo], (mid + root) % size, tag=tag
                )
                held = held[: mid - lo]
            hi = mid
        else:
            if vr == mid:
                held = yield from comm.recv((lo + root) % size, tag=tag)
                held = list(held)
            lo = mid
    assert held is not None and len(held) == 1
    return held[0]


def scatter_binomial(comm: Any, parts: Sequence[Any] | None, root: int) -> Gen:
    """Tree scatter; ``parts`` (on the root) is indexed by communicator
    rank.  Returns this rank's part everywhere."""
    size = comm.size
    held = None
    if comm.rank == root:
        if parts is None or len(parts) != size:
            raise ConfigurationError(
                f"scatter root needs exactly {size} parts, got "
                f"{None if parts is None else len(parts)}"
            )
        # Reorder so relative rank i's part sits at index i.
        held = [parts[(i + root) % size] for i in range(size)]
    result = yield from range_scatter_rel(comm, held, root)
    return result
