"""Shared-machine network view for multi-job streams.

Every job attempt gets a *fresh, disjoint* range of engine ranks (a
rank namespace), but all of them charge their transfers to — and claim
links on — the **same underlying machine**.  :class:`ClusterNetwork`
is that adapter: engine rank ``r`` is bound to machine slot
``slots[r]`` at launch time, ``transfer_time``/``links``/``hops``
delegate through the binding, and because ``links`` returns the
*machine's* link claims, the engine's contention accounting serialises
transfers from different jobs that cross the same physical link —
cross-job interference falls out of the existing single-run machinery.

Engine ranks are never reused: a retried job binds a new range, so no
channel or link state can leak between attempts.  Capacity is sized up
front (sum over jobs of ``p * (1 + max_retries)``) because the engine
fixes its rank multiplier at setup.

Slots *are* reused, and costs belong to them: ``slots`` lets the
engine key its one route per wire by slot pair, so the route's memo of
the machine's wire times and link claims serves every job placed on
that pair.  A job placed where an earlier one ran costs the machine no
new question.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import TopologyError
from repro.network.model import LinkClaim, Network


class ClusterNetwork(Network):
    """A ``capacity``-rank namespace multiplexed onto one machine.

    Parameters
    ----------
    machine:
        The shared physical network (e.g. :class:`Torus3D` for honest
        link sharing, :class:`HomogeneousNetwork` for a contention-free
        fabric).
    capacity:
        Total engine ranks that can ever be bound — the sum of job
        sizes times allowed attempts.
    """

    def __init__(self, machine: Network, capacity: int) -> None:
        super().__init__(capacity)
        self.machine = machine
        #: Machine slot of every bound engine rank, in bind order.
        self.slots: list[int] = []

    def bind(self, slots: Sequence[int]) -> int:
        """Bind the next ``len(slots)`` engine ranks to machine slots;
        returns the base engine rank of the new range."""
        base = len(self.slots)
        if base + len(slots) > self.nranks:
            raise TopologyError(
                f"cluster rank capacity exhausted: {base} bound, "
                f"{len(slots)} requested, capacity {self.nranks}"
            )
        for slot in slots:
            if not (0 <= slot < self.machine.nranks):
                raise TopologyError(
                    f"slot {slot} outside machine with "
                    f"{self.machine.nranks} slots"
                )
        self.slots.extend(slots)
        return base

    def transfer_time(self, src: int, dst: int, nbytes: float) -> float:
        return self.machine.transfer_time(self.slots[src], self.slots[dst],
                                          nbytes)

    def links(self, src: int, dst: int) -> Sequence[LinkClaim]:
        return self.machine.links(self.slots[src], self.slots[dst])

    def hops(self, src: int, dst: int) -> int:
        return self.machine.hops(self.slots[src], self.slots[dst])
