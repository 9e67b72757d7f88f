"""Analytic Hockney-model costs of the collectives — registry front-end.

The closed forms themselves live in :mod:`repro.costs.registry` (the
single source of truth shared with the analytic models and the
predictor; see ``docs/cost_model.md``).  This module keeps the
historical function-style interface the costers and the figure sweeps
call, delegating every evaluation to the registry's
:class:`~repro.costs.registry.CostQuery` →
:class:`~repro.costs.registry.CostEstimate` interface.

The paper's general broadcast model (its eq. 1) is

    ``T_bcast(m, p) = L(p) * alpha + m * W(p) * beta``

``bcast_latency_factor`` / ``bcast_bandwidth_factor`` expose the
registry's *discrete* ``L`` and ``W`` (what the executable collectives
realise on the wire); the smooth flavours the optimiser differentiates
through are :data:`repro.costs.SMOOTH_MODELS`, built from the same
registry rows.
"""

from __future__ import annotations

from repro.costs.registry import CostQuery, estimate
from repro.costs.registry import bcast_bandwidth_factor, bcast_latency_factor  # noqa: F401 (re-export)
from repro.network.model import HockneyParams


def bcast_time(
    algorithm: str,
    m_bytes: float,
    p: int,
    params: HockneyParams,
    *,
    segments: int | None = None,
) -> float:
    """Predicted broadcast time of ``m_bytes`` among ``p`` ranks.

    For the pipelined chain, ``segments=None`` uses the analytically
    optimal segment count for these parameters.
    """
    return estimate(CostQuery(
        op="bcast", algorithm=algorithm, p=p, nbytes=m_bytes,
        alpha=params.alpha, beta=params.beta, segments=segments,
    )).seconds


def collective_time(
    op: str,
    algorithm: str,
    m_bytes: float,
    p: int,
    params: HockneyParams,
    *,
    segments: int | None = None,
) -> float:
    """Closed-form Hockney cost of one collective among ``p`` ranks.

    Size convention (shared with the macro backend): for rooted
    distribution ops (``bcast``, ``scatter``) ``m_bytes`` is the total
    payload at the root; for contribution ops (``gather``,
    ``allgather``, ``reduce``, ``allreduce``) it is one rank's
    contribution; for ``barrier`` it is ignored.
    """
    return estimate(CostQuery(
        op=op, algorithm=algorithm, p=p, nbytes=m_bytes,
        alpha=params.alpha, beta=params.beta, segments=segments,
    )).seconds
