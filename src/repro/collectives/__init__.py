"""Collective communication algorithms over simulated communicators.

The paper's key observation is that SUMMA's communication is all
broadcast, so the broadcast algorithm determines the constant factors.
This package implements the broadcast algorithms the paper analyses
(binomial tree and Van de Geijn scatter-allgather) plus the classical
alternatives (flat, binary, chain, pipelined chain), and one algorithm
for each other collective: the binomial reduce of the 2.5D and 3-D
baselines, the scatter, gather and allreduce of QR, and the ring
allgather and dissemination barrier of the communicator.

Every algorithm is a generator function over a duck-typed communicator
(:class:`repro.mpi.Comm`), so they run unchanged inside the full
discrete-event simulator and inside the step-model micro-simulations.
:data:`COLLECTIVES` declares each op once: its algorithms, its size
convention and what each rank gets back.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Generator, Sequence

from repro.errors import ConfigurationError
from repro.collectives.bcast import (
    bcast_binary,
    bcast_binomial,
    bcast_chain,
    bcast_flat,
    bcast_pipelined,
    bcast_vandegeijn,
)
from repro.collectives.barrier import barrier_dissemination
from repro.collectives.ft import bcast_ft
from repro.collectives.gather import gather_binomial
from repro.collectives.pipelined import (
    bcast_fourcolor,
    bcast_hypersystolic,
    bcast_segmented,
    fourcolor_schedule,
    validate_link_coloring,
)
from repro.collectives.allgather import allgather_ring
from repro.collectives.reduce import allreduce_rd, reduce_binomial
from repro.collectives.scatter import scatter_binomial
from repro.costs import (
    bcast_bandwidth_factor,
    bcast_latency_factor,
    bcast_time,
)
from repro.payloads import combine_payloads

Gen = Generator[Any, Any, Any]

#: Size conventions: what one call's ``nbytes`` measures.  ``ROOT``:
#: the root's payload (the other ranks pass None); ``CONTRIBUTION``:
#: one rank's contribution, the largest when they differ.  An op with
#: no payload (the barrier) has size None.
ROOT = "root"
CONTRIBUTION = "contribution"


@dataclasses.dataclass(frozen=True)
class Collective:
    """What one MPI collective op is, for every layer that runs it:
    ``Comm`` announces and expands a call from its row, the macro
    backend prices it and hands each rank its result, the micro-DES
    coster builds its stand-in payload and the verifier reads which
    ops need uniform payloads.

    ``op`` is the name a ``CollectiveRequest`` carries, ``noun`` how an
    error names it.  ``algorithms`` maps names to generator functions:
    a rooted op's take ``(comm, obj, root)``, the others ``(comm,
    obj)``, the barrier's ``(comm,)``; a broadcast's also take
    ``segments=``.  Every op but the broadcast has one algorithm; a
    broadcast runs the one its call names, else the
    :class:`~repro.mpi.CollectiveOptions` ``bcast``.  ``size`` is the
    size convention.  The result rule is ``result`` — ``"payload"``
    (the root's), ``"list"`` (every contribution in rank order),
    ``"sum"`` (their element-wise sum) or None — delivered ``to``
    ``"all"``, ``"root"`` (None elsewhere) or ``"each"`` (rank ``i``
    gets item ``i``).  ``uniform`` ops need contributions of one size
    (their combine step requires identical shapes).
    """

    op: str
    noun: str
    algorithms: dict[str, Callable[..., Gen]]
    rooted: bool
    size: str | None
    result: str | None
    to: str
    uniform: bool = False
    #: The span a traced call opens, ``coll.<op>``: one string per row,
    #: not one per call.
    span: str = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "span", "coll." + self.op)

    def algorithm(self, name: str) -> Callable[..., Gen]:
        """The generator function registered as ``name``."""
        try:
            return self.algorithms[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.noun} algorithm {name!r}; "
                f"choose from {sorted(self.algorithms)}"
            ) from None

    def message_size(self, root: int | None, sizes: Sequence[int]) -> int:
        """One call's ``nbytes`` from each rank's payload size."""
        if self.size == ROOT:
            return sizes[root]
        if self.size == CONTRIBUTION:
            return max(sizes)
        return 0

    def results(self, root: int | None, payloads: list[Any]) -> list[Any]:
        """Each rank's return value from each rank's payload: what the
        expanded algorithms return."""
        p = len(payloads)
        if self.result == "payload":
            value = payloads[root]
        elif self.result == "list":
            value = payloads
        elif self.result == "sum":
            value = functools.reduce(combine_payloads, payloads)
        else:
            value = None
        if self.to == "all":
            return [value] * p
        if self.to == "root":
            return [value if i == root else None for i in range(p)]
        return [value[i] for i in range(p)]


#: Every collective op, keyed by name.
COLLECTIVES: dict[str, Collective] = {row.op: row for row in (
    Collective("bcast", "broadcast", {
        "flat": bcast_flat, "binomial": bcast_binomial,
        "binary": bcast_binary, "chain": bcast_chain,
        "pipelined": bcast_pipelined, "segmented": bcast_segmented,
        "fourcolor": bcast_fourcolor, "hypersystolic": bcast_hypersystolic,
        "vandegeijn": bcast_vandegeijn, "ft_binomial": bcast_ft,
    }, rooted=True, size=ROOT, result="payload", to="all"),
    Collective("scatter", "scatter", {"binomial": scatter_binomial},
               rooted=True, size=ROOT, result="payload", to="each"),
    Collective("gather", "gather", {"binomial": gather_binomial},
               rooted=True, size=CONTRIBUTION, result="list", to="root"),
    Collective("allgather", "allgather", {"ring": allgather_ring},
               rooted=False, size=CONTRIBUTION, result="list", to="all"),
    Collective("reduce", "reduce", {"binomial": reduce_binomial},
               rooted=True, size=CONTRIBUTION, result="sum", to="root",
               uniform=True),
    Collective("allreduce", "allreduce", {"recursive_doubling": allreduce_rd},
               rooted=False, size=CONTRIBUTION, result="sum", to="all",
               uniform=True),
    Collective("barrier", "barrier", {"dissemination": barrier_dissemination},
               rooted=False, size=None, result=None, to="all"),
)}

#: The fields a collective call announces, in announcement order, with
#: the verification check id a disagreement in each maps to (compared
#: in order; the first difference wins).
SIGNATURE = (
    ("participants", "collective-comm-mismatch"),
    ("op", "collective-op-mismatch"),
    ("root", "collective-root-mismatch"),
    ("algorithm", "collective-arg-mismatch"),
    ("segments", "collective-arg-mismatch"),
)


__all__ = [
    "COLLECTIVES",
    "CONTRIBUTION",
    "Collective",
    "ROOT",
    "SIGNATURE",
    "bcast_flat",
    "bcast_binomial",
    "bcast_binary",
    "bcast_chain",
    "bcast_pipelined",
    "bcast_segmented",
    "bcast_fourcolor",
    "bcast_hypersystolic",
    "bcast_vandegeijn",
    "bcast_ft",
    "fourcolor_schedule",
    "validate_link_coloring",
    "allgather_ring",
    "reduce_binomial",
    "allreduce_rd",
    "bcast_time",
    "bcast_latency_factor",
    "bcast_bandwidth_factor",
]
