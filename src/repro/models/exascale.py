"""Exascale prediction (paper Section V-C, Figure 10).

Platform parameters from the exascale roadmap the paper cites:
1 Eflop/s total, 500 ns latency, 100 GB/s links, ``p = 2^20`` ranks,
``n = 2^22``, ``b = 256``.  The paper's figure plots the model cost as
a function of the group count; since ``alpha/beta > 2nb/p`` holds, the
HSUMMA curve dips at ``G = sqrt(p) = 1024`` while SUMMA stays flat.
"""

from __future__ import annotations

import dataclasses
import math

from repro.costs import (
    VANDEGEIJN_MODEL,
    BroadcastModel,
    hsumma_communication_cost,
    summa_communication_cost,
    summa_computation_cost,
)
from repro.util.validation import require_positive


@dataclasses.dataclass(frozen=True)
class ExascaleScenario:
    """The paper's exascale parameter set (per-element beta)."""

    n: int = 2**22
    p: int = 2**20
    b: int = 256
    alpha: float = 500e-9
    beta: float = 8.0 / 100e9  # 8-byte elements over 100 GB/s links
    total_flops: float = 1e18

    def __post_init__(self) -> None:
        for name in ("n", "p", "b", "alpha", "beta", "total_flops"):
            require_positive(getattr(self, name), name)

    @property
    def gamma(self) -> float:
        """Seconds per flop per rank at the quoted machine rate."""
        return self.p / self.total_flops


def exascale_prediction(
    scenario: ExascaleScenario | None = None,
    groups: list[int] | None = None,
    model: BroadcastModel = VANDEGEIJN_MODEL,
    include_compute: bool = False,
) -> dict[str, object]:
    """Figure-10 series: SUMMA cost (flat) and HSUMMA cost per ``G``.

    Returns ``{"groups": [...], "hsumma": [...], "summa": float,
    "optimal_G": int, "compute": float}``; times in model seconds.
    ``include_compute`` adds the (identical) ``2n^3/p`` term to both.
    """
    sc = scenario or ExascaleScenario()
    if groups is None:
        groups = [2**k for k in range(0, int(math.log2(sc.p)) + 1)]
    compute = summa_computation_cost(sc.n, sc.p, sc.gamma)
    base = compute if include_compute else 0.0
    summa = base + summa_communication_cost(
        sc.n, sc.p, sc.b, sc.alpha, sc.beta, model
    )
    hs = [
        base
        + hsumma_communication_cost(sc.n, sc.p, G, sc.b, sc.alpha, sc.beta, model)
        for G in groups
    ]
    best = groups[min(range(len(groups)), key=lambda i: hs[i])]
    return {
        "groups": groups,
        "hsumma": hs,
        "summa": summa,
        "optimal_G": best,
        "compute": compute,
    }
