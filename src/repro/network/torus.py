"""Three-dimensional torus network in the style of BlueGene/P.

BlueGene/P interconnects compute nodes with a 3-D point-to-point torus;
the BG-MPI implementation routes messages dimension-ordered (X then Y
then Z), with wraparound links closing each dimension.  We model a
wormhole-routed torus: per-hop latency adds to the base latency while
the bandwidth term is independent of distance,

``T(m, hops) = alpha + (hops - 1) * alpha_hop + m * beta``  (hops >= 1)

Messages between ranks on the same node (VN mode packs 4 ranks/node)
use separate, much cheaper intra-node parameters.

The :meth:`links` method exposes the physical links along the route so
the simulator can serialise transfers sharing a wire — this is what
re-creates the "zigzags" of the paper's Figure 8 when HSUMMA's group
layout folds badly onto the torus.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Sequence

from repro.errors import TopologyError
from repro.network.mapping import RankMapping, block_mapping
from repro.network.model import HockneyParams, LinkClaim, Network
from repro.util.validation import require_finite


@dataclasses.dataclass(frozen=True)
class TorusCoord:
    """Coordinate of a node in the 3-D torus."""

    x: int
    y: int
    z: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


def _signed_hop(src: int, dst: int, extent: int) -> tuple[int, int]:
    """Shortest signed walk from ``src`` to ``dst`` around a ring of
    ``extent`` positions.  Returns ``(distance, direction)`` with
    direction in {-1, 0, +1}; ties between the two directions go the
    positive way (deterministic routing).
    """
    if extent == 1 or src == dst:
        return (0, 0)
    fwd = (dst - src) % extent
    back = (src - dst) % extent
    if fwd <= back:
        return (fwd, +1)
    return (back, -1)


class Torus3D(Network):
    """Wormhole-routed 3-D torus with dimension-ordered (XYZ) routing.

    Parameters
    ----------
    dims:
        Torus extents ``(X, Y, Z)``; the node count is their product.
    params:
        Hockney parameters of one torus link. ``alpha`` is the base
        injection latency for the first hop.
    ranks_per_node:
        How many ranks share a node (4 for BG/P VN mode).
    alpha_hop:
        Extra latency per additional hop beyond the first.  Defaults to
        5% of ``params.alpha`` — small, as wormhole routing makes the
        distance term minor but not zero.
    intra_params:
        Hockney parameters for on-node messages; defaults to 1/10 the
        latency and 1/4 the per-byte cost of a torus link (shared-memory
        copy through the node's DDR).
    mapping:
        Rank placement; defaults to block mapping, i.e. consecutive
        ranks fill a node, nodes fill X, then Y, then Z.
    """

    def __init__(
        self,
        dims: tuple[int, int, int],
        params: HockneyParams,
        *,
        ranks_per_node: int = 1,
        alpha_hop: float | None = None,
        intra_params: HockneyParams | None = None,
        mapping: RankMapping | None = None,
    ) -> None:
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise TopologyError(f"torus dims must be 3 positive ints, got {dims}")
        self.dims = (int(dims[0]), int(dims[1]), int(dims[2]))
        nnodes = self.dims[0] * self.dims[1] * self.dims[2]
        nranks = nnodes * ranks_per_node
        super().__init__(nranks)
        self.params = params
        self.alpha_hop = params.alpha * 0.05 if alpha_hop is None else alpha_hop
        require_finite(self.alpha_hop, "alpha_hop")
        if self.alpha_hop < 0:
            raise TopologyError(f"alpha_hop must be >= 0, got {self.alpha_hop}")
        self.intra_params = intra_params or HockneyParams(
            alpha=params.alpha / 10.0, beta=params.beta / 4.0
        )
        self.mapping = mapping or block_mapping(nranks, ranks_per_node)
        if self.mapping.nranks != nranks or self.mapping.nnodes > nnodes:
            raise TopologyError(
                f"mapping covers {self.mapping.nranks} ranks on "
                f"{self.mapping.nnodes} nodes; torus has {nranks} ranks on {nnodes} nodes"
            )

    # -- geometry ---------------------------------------------------------

    def coord(self, node: int) -> TorusCoord:
        """Coordinates of ``node`` (x fastest-varying)."""
        X, Y, _Z = self.dims
        if not (0 <= node < X * Y * self.dims[2]):
            raise TopologyError(f"node {node} outside torus {self.dims}")
        x = node % X
        y = (node // X) % Y
        z = node // (X * Y)
        return TorusCoord(x, y, z)

    def node_index(self, coord: TorusCoord) -> int:
        """Inverse of :meth:`coord`."""
        X, Y, Z = self.dims
        if not (0 <= coord.x < X and 0 <= coord.y < Y and 0 <= coord.z < Z):
            raise TopologyError(f"coordinate {coord} outside torus {self.dims}")
        return coord.x + X * (coord.y + Y * coord.z)

    def hops(self, src: int, dst: int) -> int:
        self._check_pair(src, dst)
        a = self.mapping.node(src)
        b = self.mapping.node(dst)
        if a == b:
            return 0
        ca, cb = self.coord(a), self.coord(b)
        total = 0
        for sa, sb, extent in zip(ca.as_tuple(), cb.as_tuple(), self.dims):
            dist, _ = _signed_hop(sa, sb, extent)
            total += dist
        return total

    # -- costing ----------------------------------------------------------

    def transfer_time(self, src: int, dst: int, nbytes: float) -> float:
        self._check_pair(src, dst)
        if src == dst:
            return 0.0
        h = self.hops(src, dst)
        if h == 0:  # co-located ranks, shared-memory path
            return self.intra_params.transfer_time(nbytes)
        return (
            self.params.alpha
            + (h - 1) * self.alpha_hop
            + nbytes * self.params.beta
        )

    def links(self, src: int, dst: int) -> Sequence[LinkClaim]:
        """Directed physical links along the XYZ dimension-ordered route.

        Each claim is ``("torus", node, dim, direction)`` identifying the
        outgoing wire of ``node`` in dimension ``dim`` (0..2), direction
        ``+1``/``-1``.
        """
        self._check_pair(src, dst)
        a = self.mapping.node(src)
        b = self.mapping.node(dst)
        if a == b:
            return ()
        cur = list(self.coord(a).as_tuple())
        target = self.coord(b).as_tuple()
        claims: list[LinkClaim] = []
        for dim in range(3):
            extent = self.dims[dim]
            dist, direction = _signed_hop(cur[dim], target[dim], extent)
            for _ in range(dist):
                node = self.node_index(TorusCoord(*cur))
                claims.append(("torus", node, dim, direction))
                cur[dim] = (cur[dim] + direction) % extent
        return tuple(claims)

    def placement_key(self, ranks: Sequence[int]) -> Hashable:
        """Per rank, its node's coordinate offset from the first rank's
        node, modulo the extents.  :func:`_signed_hop` reads only
        differences mod extent, so hops, times and the XYZ route are
        translation-invariant; equal offsets mean one shared node."""
        coords = [self.coord(self.mapping.node(r)).as_tuple() for r in ranks]
        return tuple(
            tuple((c - o) % d for c, o, d in zip(coord, coords[0], self.dims))
            for coord in coords
        )
