"""Collective communication algorithms over simulated communicators.

The paper's key observation is that SUMMA's communication is all
broadcast, so the broadcast algorithm determines the constant factors.
This package implements the broadcast algorithms the paper analyses
(binomial tree and Van de Geijn scatter-allgather) plus the classical
alternatives (flat, binary, chain, pipelined chain), and the other
collectives the baseline matmul algorithms need (scatter, gather,
allgather, reduce, allreduce, barrier).

Every algorithm is a generator function over a duck-typed communicator
(:class:`repro.mpi.Comm`), so they run unchanged inside the full
discrete-event simulator and inside the step-model micro-simulations.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.errors import ConfigurationError
from repro.collectives.bcast import (
    bcast_binary,
    bcast_binomial,
    bcast_chain,
    bcast_flat,
    bcast_pipelined,
    bcast_vandegeijn,
)
from repro.collectives.ft import bcast_ft
from repro.collectives.pipelined import (
    bcast_fourcolor,
    bcast_hypersystolic,
    bcast_segmented,
    fourcolor_schedule,
    validate_link_coloring,
)
from repro.collectives.allgather import allgather_rd, allgather_ring
from repro.collectives.extra import (
    allgather_bruck,
    allreduce_rabenseifner,
    reduce_scatter_ring,
)
from repro.collectives.reduce import allreduce_rd, reduce_binomial, reduce_flat
from repro.costs import (
    bcast_bandwidth_factor,
    bcast_latency_factor,
    bcast_time,
)

Gen = Generator[Any, Any, Any]

#: Registry of broadcast algorithms by name.
BROADCAST_ALGORITHMS: dict[str, Callable[..., Gen]] = {
    "flat": bcast_flat,
    "binomial": bcast_binomial,
    "binary": bcast_binary,
    "chain": bcast_chain,
    "pipelined": bcast_pipelined,
    "segmented": bcast_segmented,
    "fourcolor": bcast_fourcolor,
    "hypersystolic": bcast_hypersystolic,
    "vandegeijn": bcast_vandegeijn,
    "ft_binomial": bcast_ft,
}

ALLGATHER_ALGORITHMS: dict[str, Callable[..., Gen]] = {
    "ring": allgather_ring,
    "recursive_doubling": allgather_rd,
    "bruck": allgather_bruck,
}

REDUCE_ALGORITHMS: dict[str, Callable[..., Gen]] = {
    "binomial": reduce_binomial,
    "flat": reduce_flat,
}

ALLREDUCE_ALGORITHMS: dict[str, Callable[..., Gen]] = {
    "recursive_doubling": allreduce_rd,
    "rabenseifner": allreduce_rabenseifner,
}


def get_allreduce(name: str) -> Callable[..., Gen]:
    """Look up an allreduce algorithm by registry name."""
    try:
        return ALLREDUCE_ALGORITHMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown allreduce algorithm {name!r}; "
            f"choose from {sorted(ALLREDUCE_ALGORITHMS)}"
        ) from None


def get_broadcast(name: str) -> Callable[..., Gen]:
    """Look up a broadcast algorithm by registry name."""
    try:
        return BROADCAST_ALGORITHMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown broadcast algorithm {name!r}; "
            f"choose from {sorted(BROADCAST_ALGORITHMS)}"
        ) from None


def get_allgather(name: str) -> Callable[..., Gen]:
    """Look up an allgather algorithm by registry name."""
    try:
        return ALLGATHER_ALGORITHMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown allgather algorithm {name!r}; "
            f"choose from {sorted(ALLGATHER_ALGORITHMS)}"
        ) from None


def get_reduce(name: str) -> Callable[..., Gen]:
    """Look up a reduce algorithm by registry name."""
    try:
        return REDUCE_ALGORITHMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown reduce algorithm {name!r}; "
            f"choose from {sorted(REDUCE_ALGORITHMS)}"
        ) from None


__all__ = [
    "BROADCAST_ALGORITHMS",
    "ALLGATHER_ALGORITHMS",
    "REDUCE_ALGORITHMS",
    "ALLREDUCE_ALGORITHMS",
    "get_broadcast",
    "get_allgather",
    "get_reduce",
    "get_allreduce",
    "allgather_bruck",
    "allreduce_rabenseifner",
    "reduce_scatter_ring",
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
    "allgather_rd",
    "reduce_binomial",
    "reduce_flat",
    "allreduce_rd",
    "bcast_time",
    "bcast_latency_factor",
    "bcast_bandwidth_factor",
]
