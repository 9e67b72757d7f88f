"""Switched commodity cluster in the style of Grid5000's Graphene site.

Graphene is a classical Ethernet/Infiniband cluster: nodes hang off
edge switches which connect through an aggregation layer.  We model two
levels:

* ranks on the same node — shared-memory parameters;
* nodes under the same edge switch — one switch traversal;
* nodes under different switches — edge switch, core, edge switch.

Each traversal adds latency; bandwidth is set by the slowest segment
(we use a single ``beta`` since the paper's model has one bandwidth).
Uplinks may be exposed as shared links for contention studies.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.errors import TopologyError
from repro.network.mapping import RankMapping, block_mapping
from repro.network.model import HockneyParams, LinkClaim, Network
from repro.util.validation import require_finite


class SwitchedCluster(Network):
    """Two-level switched cluster.

    Parameters
    ----------
    nnodes:
        Number of compute nodes.
    nodes_per_switch:
        Nodes attached to each edge switch.
    params:
        Hockney parameters of a node's NIC link (one switch traversal).
    ranks_per_node:
        Ranks sharing a node.
    switch_hop_alpha:
        Extra latency for crossing the core between two edge switches.
        Defaults to ``params.alpha`` (a second traversal of comparable
        cost).
    intra_params:
        Parameters for on-node messages; defaults to 1/20 latency and
        1/8 per-byte cost of the NIC link.
    mapping:
        Rank placement, defaults to block mapping.
    """

    def __init__(
        self,
        nnodes: int,
        nodes_per_switch: int,
        params: HockneyParams,
        *,
        ranks_per_node: int = 1,
        switch_hop_alpha: float | None = None,
        intra_params: HockneyParams | None = None,
        mapping: RankMapping | None = None,
    ) -> None:
        if nnodes < 1 or nodes_per_switch < 1:
            raise TopologyError(
                f"need nnodes >= 1 and nodes_per_switch >= 1, got {nnodes}, {nodes_per_switch}"
            )
        nranks = nnodes * ranks_per_node
        super().__init__(nranks)
        self.nnodes = nnodes
        self.nodes_per_switch = nodes_per_switch
        self.params = params
        self.switch_hop_alpha = (
            params.alpha if switch_hop_alpha is None else switch_hop_alpha
        )
        require_finite(self.switch_hop_alpha, "switch_hop_alpha")
        if self.switch_hop_alpha < 0:
            raise TopologyError(
                f"switch_hop_alpha must be >= 0, got {self.switch_hop_alpha}"
            )
        self.intra_params = intra_params or HockneyParams(
            alpha=params.alpha / 20.0, beta=params.beta / 8.0
        )
        self.mapping = mapping or block_mapping(nranks, ranks_per_node)
        if self.mapping.nranks != nranks:
            raise TopologyError(
                f"mapping covers {self.mapping.nranks} ranks, cluster has {nranks}"
            )

    def switch_of(self, node: int) -> int:
        """Edge switch index of ``node``."""
        if not (0 <= node < self.nnodes):
            raise TopologyError(f"node {node} outside cluster of {self.nnodes}")
        return node // self.nodes_per_switch

    def hops(self, src: int, dst: int) -> int:
        self._check_pair(src, dst)
        a, b = self.mapping.node(src), self.mapping.node(dst)
        if a == b:
            return 0
        return 1 if self.switch_of(a) == self.switch_of(b) else 2

    def transfer_time(self, src: int, dst: int, nbytes: float) -> float:
        self._check_pair(src, dst)
        if src == dst:
            return 0.0
        h = self.hops(src, dst)
        if h == 0:
            return self.intra_params.transfer_time(nbytes)
        extra = self.switch_hop_alpha * (h - 1)
        return self.params.alpha + extra + nbytes * self.params.beta

    def links(self, src: int, dst: int) -> Sequence[LinkClaim]:
        """NIC links and, across switches, the shared uplinks.

        Claims: ``("nic", node, dir)`` for the endpoints' NIC wires and
        ``("uplink", switch, dir)`` for edge-to-core uplinks (shared by
        every node under that switch — the contended resource).
        """
        self._check_pair(src, dst)
        a, b = self.mapping.node(src), self.mapping.node(dst)
        if a == b:
            return ()
        claims: list[LinkClaim] = [("nic", a, "out")]
        sa, sb = self.switch_of(a), self.switch_of(b)
        if sa != sb:
            claims.append(("uplink", sa, "up"))
            claims.append(("uplink", sb, "down"))
        claims.append(("nic", b, "in"))
        return tuple(claims)

    def placement_key(self, ranks: Sequence[int]) -> Hashable:
        """Per rank, its node and edge switch, each numbered by first
        appearance: hops, and so times and claims, read nothing else."""
        nodes: dict[int, int] = {}
        switches: dict[int, int] = {}
        key = []
        for rank in ranks:
            node = self.mapping.node(rank)
            switch = self.switch_of(node)
            key.append((nodes.setdefault(node, len(nodes)),
                        switches.setdefault(switch, len(switches))))
        return tuple(key)
