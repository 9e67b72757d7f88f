"""Fully-connected homogeneous network — the paper's analytical model.

Every pair of distinct ranks is connected by an identical, un-shared
Hockney link.  Optionally, ranks co-located on a node (per a
:class:`~repro.network.mapping.RankMapping`) communicate with cheaper
intra-node parameters, which matters on BlueGene/P VN mode where four
ranks share a compute node.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.network.mapping import RankMapping
from repro.network.model import HockneyParams, LinkClaim, Network


class HomogeneousNetwork(Network):
    """No-contention, all-pairs-equal network.

    Parameters
    ----------
    nranks:
        Number of ranks.
    params:
        Hockney parameters for inter-node messages.
    intra_params:
        Optional cheaper parameters for messages between ranks on the
        same node; requires ``mapping``.
    mapping:
        Optional rank-to-node mapping (defaults to one rank per node).
    """

    def __init__(
        self,
        nranks: int,
        params: HockneyParams,
        *,
        intra_params: HockneyParams | None = None,
        mapping: RankMapping | None = None,
    ) -> None:
        super().__init__(nranks)
        self.params = params
        self.intra_params = intra_params
        self.mapping = mapping
        if intra_params is not None and mapping is None:
            # Intra-node params are meaningless without knowing who is
            # co-located; default to everyone on their own node would
            # silently disable them, so refuse instead.
            from repro.errors import TopologyError

            raise TopologyError("intra_params requires a rank mapping")

    def transfer_time(self, src: int, dst: int, nbytes: float) -> float:
        self._check_pair(src, dst)
        if src == dst:
            return 0.0
        if (
            self.intra_params is not None
            and self.mapping is not None
            and self.mapping.colocated(src, dst)
        ):
            return self.intra_params.transfer_time(nbytes)
        return self.params.transfer_time(nbytes)

    def links(self, src: int, dst: int) -> Sequence[LinkClaim]:
        # Dedicated link per ordered pair: never contended.
        self._check_pair(src, dst)
        if src == dst:
            return ()
        return ((src, dst),)

    def placement_key(self, ranks: Sequence[int]) -> Hashable:
        # Without intra-node parameters every pair costs the same on
        # its own dedicated link: only the count matters.
        if self.intra_params is None:
            return len(ranks)
        return super().placement_key(ranks)
