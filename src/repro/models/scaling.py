"""Strong/weak scaling analysis — the paper's motivating premise.

Section I argues that "as HPC moves towards exascale, the cost of
matrix multiplication will be dominated by communication cost".  These
closed-form curves quantify that: per processor count they report the
compute time (``2n^3/p * gamma``), the communication time of SUMMA and
of best-G HSUMMA, and the communication *fraction* of the total.

Two regimes:

* :func:`strong_scaling` — fixed problem, growing machine: compute
  shrinks like ``1/p`` while SUMMA's Van-de-Geijn latency term *grows*
  like ``sqrt(p)``, so the comm fraction inevitably crosses 1/2;
  :func:`scalability_limit` returns that crossing, and HSUMMA pushes it
  out (its latency grows only like ``p^(1/4)``) — the paper's "more
  scalable" claim as a number.
* :func:`weak_scaling` — fixed memory per rank (``n ∝ sqrt(p)``):
  compute per rank is then ``~sqrt(p)`` but balanced against
  communication that grows slower, the regime where 2-D algorithms
  live comfortably.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

from repro.costs import (
    VANDEGEIJN_MODEL,
    BroadcastModel,
    summa_communication_cost,
    summa_computation_cost,
)
from repro.errors import ModelError
from repro.models.optimizer import optimal_group_count


@dataclasses.dataclass(frozen=True)
class ScalingPoint:
    """One processor count on a scaling curve."""

    p: int
    n: int
    compute: float
    summa_comm: float
    hsumma_comm: float
    best_groups: int

    @property
    def summa_total(self) -> float:
        return self.compute + self.summa_comm

    @property
    def hsumma_total(self) -> float:
        return self.compute + self.hsumma_comm

    @property
    def summa_comm_fraction(self) -> float:
        return self.summa_comm / self.summa_total

    @property
    def hsumma_comm_fraction(self) -> float:
        return self.hsumma_comm / self.hsumma_total


def _point(
    n: int, p: int, b: int, alpha: float, beta: float, gamma: float,
    model: BroadcastModel,
) -> ScalingPoint:
    compute = summa_computation_cost(n, p, gamma)
    s_comm = summa_communication_cost(n, p, b, alpha, beta, model)
    g, h_comm = optimal_group_count(n, p, b, alpha, beta, model)
    return ScalingPoint(p=p, n=n, compute=compute, summa_comm=s_comm,
                        hsumma_comm=h_comm, best_groups=g)


def strong_scaling(
    n: int,
    procs: Sequence[int],
    b: int,
    alpha: float,
    beta: float,
    gamma: float,
    model: BroadcastModel = VANDEGEIJN_MODEL,
) -> list[ScalingPoint]:
    """Fixed ``n``, growing ``p`` (``beta`` per element)."""
    if not procs:
        raise ModelError("need at least one processor count")
    return [_point(n, p, b, alpha, beta, gamma, model) for p in procs]


def weak_scaling(
    n_per_rank_sq: int,
    procs: Sequence[int],
    b: int,
    alpha: float,
    beta: float,
    gamma: float,
    model: BroadcastModel = VANDEGEIJN_MODEL,
) -> list[ScalingPoint]:
    """Fixed tile memory: ``n = n_per_rank_sq * sqrt(p)`` (rounded to a
    multiple of ``b``)."""
    if n_per_rank_sq <= 0:
        raise ModelError(f"n_per_rank_sq must be >= 1, got {n_per_rank_sq}")
    out = []
    for p in procs:
        n = int(round(n_per_rank_sq * math.sqrt(p)))
        n = max(b, (n // b) * b)
        out.append(_point(n, p, b, alpha, beta, gamma, model))
    return out


def scalability_limit(
    n: int,
    b: int,
    alpha: float,
    beta: float,
    gamma: float,
    *,
    algorithm: str = "summa",
    model: BroadcastModel = VANDEGEIJN_MODEL,
    p_max: int = 1 << 30,
) -> int:
    """Smallest power-of-two ``p`` at which communication exceeds half
    the total time — the practical strong-scaling limit.

    Returns ``p_max`` if the fraction never crosses 1/2 (communication
    never dominates in range).
    """
    if algorithm not in ("summa", "hsumma"):
        raise ModelError(f"algorithm must be summa or hsumma, got {algorithm!r}")
    p = 4
    while p <= p_max:
        point = _point(n, p, b, alpha, beta, gamma, model)
        fraction = (
            point.summa_comm_fraction
            if algorithm == "summa"
            else point.hsumma_comm_fraction
        )
        if fraction > 0.5:
            return p
        p *= 2
    return p_max
