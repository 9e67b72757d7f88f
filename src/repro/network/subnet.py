"""A communicator-sized view of a larger network.

Micro-simulations of a single collective run an engine over just the
participant ranks; :class:`SubNetwork` translates those dense indices
back to the world ranks so topology-aware costs stay exact.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.errors import TopologyError
from repro.network.model import LinkClaim, Network


class SubNetwork(Network):
    """View of ``base`` restricted to ``world_ranks`` (dense re-indexing)."""

    def __init__(self, base: Network, world_ranks: Sequence[int]):
        world_ranks = tuple(world_ranks)
        if len(set(world_ranks)) != len(world_ranks):
            raise TopologyError(f"duplicate ranks in subnetwork: {world_ranks}")
        for r in world_ranks:
            if not (0 <= r < base.nranks):
                raise TopologyError(
                    f"world rank {r} outside base network of {base.nranks}"
                )
        super().__init__(len(world_ranks))
        self.base = base
        self.world_ranks = world_ranks

    def transfer_time(self, src: int, dst: int, nbytes: float) -> float:
        self._check_pair(src, dst)
        return self.base.transfer_time(
            self.world_ranks[src], self.world_ranks[dst], nbytes
        )

    def links(self, src: int, dst: int) -> Sequence[LinkClaim]:
        self._check_pair(src, dst)
        return self.base.links(self.world_ranks[src], self.world_ranks[dst])

    def hops(self, src: int, dst: int) -> int:
        self._check_pair(src, dst)
        return self.base.hops(self.world_ranks[src], self.world_ranks[dst])

    def placement_key(self, ranks: Sequence[int]) -> Hashable:
        return self.base.placement_key([self.world_ranks[r] for r in ranks])
