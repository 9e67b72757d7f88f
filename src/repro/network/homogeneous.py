"""Fully-connected homogeneous network — the paper's analytical model.

Every pair of distinct ranks is connected by an identical, un-shared
Hockney link: the uniform wire of the paper's cost equations.  Ranks
that share a node and talk over cheaper on-node links (BlueGene/P VN
mode packs four ranks a node) are a one-switch
:class:`~repro.network.tree.SwitchedCluster`.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.network.model import HockneyParams, LinkClaim, Network


class HomogeneousNetwork(Network):
    """No-contention, all-pairs-equal network.

    Parameters
    ----------
    nranks:
        Number of ranks.
    params:
        Hockney parameters of every link.
    """

    def __init__(self, nranks: int, params: HockneyParams) -> None:
        super().__init__(nranks)
        self.params = params

    def transfer_time(self, src: int, dst: int, nbytes: float) -> float:
        self._check_pair(src, dst)
        if src == dst:
            return 0.0
        return self.params.transfer_time(nbytes)

    def links(self, src: int, dst: int) -> Sequence[LinkClaim]:
        # Dedicated link per ordered pair: never contended.
        self._check_pair(src, dst)
        if src == dst:
            return ()
        return ((src, dst),)

    def placement_key(self, ranks: Sequence[int]) -> Hashable:
        # Every pair costs the same on its own dedicated link: only the
        # count matters.
        return len(ranks)
