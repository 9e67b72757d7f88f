"""Rank-to-node mappings.

Topology models place *nodes* in a physical structure (torus
coordinates, switch membership).  A :class:`RankMapping` decides which
MPI-style rank lives on which node — e.g. BlueGene/P VN mode packs four
ranks per node.  The mapping strongly affects topology-aware costs: the
paper's Figure 8 "zigzags" come precisely from group layouts that map
unevenly onto the torus.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.errors import TopologyError


class RankMapping:
    """Immutable mapping from rank to node index.

    Parameters
    ----------
    node_of:
        Sequence where ``node_of[rank]`` is the node hosting ``rank``.
    nnodes:
        Total node count (must cover every entry of ``node_of``).
    """

    def __init__(self, node_of: Sequence[int], nnodes: int) -> None:
        node_of = tuple(int(n) for n in node_of)
        if nnodes <= 0:
            raise TopologyError(f"nnodes must be >= 1, got {nnodes}")
        for rank, node in enumerate(node_of):
            if not (0 <= node < nnodes):
                raise TopologyError(
                    f"rank {rank} mapped to node {node}, outside [0, {nnodes})"
                )
        self._node_of = node_of
        self._nnodes = nnodes

    @property
    def nranks(self) -> int:
        return len(self._node_of)

    @property
    def nnodes(self) -> int:
        return self._nnodes

    def node(self, rank: int) -> int:
        """Node hosting ``rank``."""
        try:
            return self._node_of[rank]
        except IndexError:
            raise TopologyError(
                f"rank {rank} out of range for {self.nranks} ranks"
            ) from None

    def colocated(self, a: int, b: int) -> bool:
        """True if both ranks share a node (intra-node communication)."""
        return self.node(a) == self.node(b)

    def ranks_on(self, node: int) -> list[int]:
        """All ranks hosted on ``node``."""
        return [r for r, n in enumerate(self._node_of) if n == node]


def subgrid_order(s: int, t: int, I: int, J: int) -> tuple[int, ...]:
    """Zigzag enumeration of an ``s x t`` grid cut into ``I x J`` groups.

    Position ``k`` of the result is the row-major grid rank visited
    ``k``-th when walking group-by-group (groups row-major) and, inside
    each ``(s/I) x (t/J)`` group, row-major again.  This is the paper's
    Figure-8 group layout: consecutive positions share a group, so any
    consumer that deals consecutive positions onto consecutive resources
    (nodes, placement slots) keeps each group contiguous.

    Identity-pinned: :func:`repro.core.grouping.group_aligned_mapping`
    consumes this exact order and the cluster placement layer walks its
    aligned candidates in it; tests pin both against the historical
    inline enumeration.
    """
    if s < 1 or t < 1 or I < 1 or J < 1:
        raise TopologyError(f"need s,t,I,J >= 1; got {s}, {t}, {I}, {J}")
    if s % I or t % J:
        raise TopologyError(f"group grid {I}x{J} does not divide {s}x{t}")
    si, tj = s // I, t // J
    order = []
    for x in range(I):
        for y in range(J):
            for ii in range(si):
                for jj in range(tj):
                    order.append((x * si + ii) * t + (y * tj + jj))
    return tuple(order)


def subgrid_blocks(s: int, t: int, I: int, J: int) -> tuple[tuple[int, ...], ...]:
    """:func:`subgrid_order` cut per group: entry ``x*J + y`` lists the
    grid ranks of group ``(x, y)`` in row-major within-group order.

    This is the placement layer's candidate list when carving aligned
    ``(s/I) x (t/J)`` sub-grids out of an ``s x t`` machine: each block
    is rectangular, and its tuple order is exactly the row-major rank
    order a job expects.
    """
    order = subgrid_order(s, t, I, J)
    size = (s // I) * (t // J)
    return tuple(order[k:k + size] for k in range(0, len(order), size))


def identity_mapping(nranks: int) -> RankMapping:
    """One rank per node (SMP effects disabled)."""
    return RankMapping(range(nranks), nranks)


def block_mapping(nranks: int, ranks_per_node: int) -> RankMapping:
    """Consecutive ranks share a node: ranks ``[k*c, (k+1)*c)`` on node ``k``.

    This is the default placement of most MPI launchers and of
    BlueGene/P VN mode (``ranks_per_node = 4``).
    """
    if ranks_per_node <= 0:
        raise TopologyError(f"ranks_per_node must be >= 1, got {ranks_per_node}")
    nnodes = -(-nranks // ranks_per_node)
    return RankMapping([r // ranks_per_node for r in range(nranks)], nnodes)


def round_robin_mapping(nranks: int, nnodes: int) -> RankMapping:
    """Cyclic placement: rank ``r`` on node ``r % nnodes``."""
    if nnodes <= 0:
        raise TopologyError(f"nnodes must be >= 1, got {nnodes}")
    return RankMapping([r % nnodes for r in range(nranks)], nnodes)


def shuffled_mapping(nranks: int, ranks_per_node: int, seed: int) -> RankMapping:
    """Random placement (deterministic per ``seed``).

    Useful as the adversarial baseline in the topology-aware-grouping
    ablation: a shuffled mapping destroys any locality HSUMMA's groups
    would otherwise enjoy.
    """
    base = block_mapping(nranks, ranks_per_node)
    order = list(range(nranks))
    random.Random(seed).shuffle(order)
    return RankMapping([base.node(order[r]) for r in range(nranks)], base.nnodes)


MappingFactory = Callable[[int], RankMapping]
