"""Candidate enumeration and closed-form ranking for the planner.

The planner searches algorithm x parameter space: SUMMA and HSUMMA
grids/blocks/group counts/broadcast algorithms, plus the 2.5D
replication family (refined at predictor fidelity alongside the 2-D
candidates whenever its layer grid tiles ``n``).  A candidate is a
family name plus the :class:`~repro.core.launch.Shape` it would run
at; *what* to search is planner policy, so
:func:`enumerate_candidates` is the one function here that names
families — the footprint and the ranking read the shape.  Ranking
costs are assembled from the unified cost registry's broadcast factors
(:mod:`repro.costs`) — the same ``L(p)``/``W(p)`` the simulator's
closed forms reduce to — generalised to rectangular ``s x t`` grids;
on square grids they reduce to the paper's eq. (2)-(5).
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Any, Callable, Sequence

from repro.core.launch import Shape
from repro.costs import (
    CostQuery,
    PipelineDepthWarning,
    algo25d_communication_cost,
    bcast_bandwidth_factor,
    bcast_latency_factor,
    estimate,
    optimal_pipeline_segments,
    summa_computation_cost,
)
from repro.costs import PIPELINED_BCASTS
from repro.errors import ConfigurationError
from repro.planner.query import ResolvedQuery

#: Broadcast algorithms the planner considers.  The segmented family
#: (PIPELINED_CHOICES) is enumerated with an explicit pipeline depth
#: ``s`` per candidate — ``s*`` from the registry's closed-form optimum
#: plus a half/double probe; the plain pipelined chain is omitted as it
#: is dominated by ``hypersystolic`` (same bandwidth, shorter fill).
#: Under a fault profile only the fault-tolerant binomial tree remains.
BCAST_CHOICES = ("binomial", "vandegeijn")
PIPELINED_CHOICES = ("segmented", "fourcolor", "hypersystolic")
FT_BCAST_CHOICES = ("binomial",)

#: Enumeration caps: most-square grids kept per p, trailing (largest)
#: power-of-two blocks kept per grid, and the pivot-panel ceiling.
MAX_GRIDS = 3
MAX_BLOCKS = 4
MAX_BLOCK = 1024


@dataclasses.dataclass(frozen=True)
class Candidate(Shape):
    """One point of the search space: a family name and the
    :class:`~repro.core.launch.Shape` it would run at (``groups`` is
    always the ``(I, J)`` pair here)."""

    algorithm: str = dataclasses.field(kw_only=True)

    def params(self) -> dict[str, Any]:
        """The plan's parameter dict — the set shape fields, JSON-ready
        (pairs as lists)."""
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in super().params().items()}


def candidate_grids(p: int, *, max_aspect: int = 4,
                    limit: int = MAX_GRIDS) -> list[tuple[int, int]]:
    """Factor pairs ``(s, t)`` of ``p`` with ``s <= t``, most square
    first, aspect ratio at most ``max_aspect`` — falling back to the
    most square pair available (e.g. ``(1, p)`` for prime ``p``)."""
    if p < 1:
        raise ConfigurationError(f"p must be >= 1, got {p}")
    pairs = [(s, p // s) for s in range(1, math.isqrt(p) + 1) if p % s == 0]
    pairs.sort(key=lambda st: st[1] / st[0])
    keep = [st for st in pairs if st[1] / st[0] <= max_aspect]
    if not keep:
        keep = pairs[:1]
    return keep[:limit]


def candidate_blocks(n: int, s: int, t: int, *,
                     limit: int = MAX_BLOCKS) -> list[int]:
    """Power-of-two pivot blocks valid on an ``s x t`` grid: the chain
    ``1, 2, 4, ...`` dividing both tile dimensions ``n/s`` and ``n/t``
    (capped at :data:`MAX_BLOCK`), largest ``limit`` kept."""
    g = math.gcd(n // s, n // t)
    if g < 1:
        raise ConfigurationError(
            f"grid {s}x{t} does not tile an n={n} matrix"
        )
    chain = [1]
    while g % (chain[-1] * 2) == 0 and chain[-1] * 2 <= MAX_BLOCK:
        chain.append(chain[-1] * 2)
    return chain[-limit:]


def candidate_replications(p: int) -> list[int]:
    """2.5D replication factors realisable by ``run_25d``'s layout:
    powers of two ``c >= 2`` with ``p = q^2 * c`` for integer ``q`` and
    ``c | q`` (``c = 1`` is the plain 2D layout, already in the
    space)."""
    out = []
    c = 2
    while c ** 3 <= p:
        if p % c == 0:
            q = math.isqrt(p // c)
            if q * q * c == p and q % c == 0:
                out.append(c)
        c *= 2
    return out


def _bcast_choices(rq: ResolvedQuery) -> tuple[str, ...]:
    choices = FT_BCAST_CHOICES if rq.faulty else BCAST_CHOICES
    if rq.bcast_default in choices:
        # Try the platform's default algorithm first (ties in the
        # ranking resolve to the earlier candidate).
        ordered = (rq.bcast_default,) + tuple(
            a for a in choices if a != rq.bcast_default
        )
        return ordered
    return choices


def _segment_choices(rq: ResolvedQuery, alg: str, elements: float,
                     p: int) -> list[int]:
    """Pipeline depths to enumerate for one pipelined candidate: the
    registry's closed-form optimum ``s*`` for the (dominant) row
    message, plus a half/double probe around it."""
    s_opt = optimal_pipeline_segments(
        elements, p, rq.alpha, rq.beta_element, alg)
    return sorted({max(1, s_opt // 2), s_opt, 2 * s_opt})


def enumerate_candidates(rq: ResolvedQuery) -> list[Candidate]:
    """The full search space for one query."""
    from repro.core.grouping import choose_group_grid, valid_group_counts

    # The enumeration deliberately probes the infinite-NIC optimum
    # (and around it) — the ranking prices every depth itself, so the
    # registry's over-capacity warning is noise here and stays muted:
    # once per call, not per pipelined group (every entry to and exit
    # from a filter context invalidates the interpreter's warning
    # caches).
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PipelineDepthWarning)
        n, p = rq.n, rq.p
        algs = _bcast_choices(rq)
        pipelined = PIPELINED_CHOICES if not rq.faulty else ()
        out: list[Candidate] = []
        for s, t in candidate_grids(p):
            blocks = candidate_blocks(n, s, t)
            rows, cols = n / s, n / t
            for b in blocks:
                for alg in algs:
                    out.append(Candidate(algorithm="summa", s=s, t=t,
                                         block=b, bcast=alg))
                for alg in pipelined:
                    for seg in _segment_choices(rq, alg, rows * b, t):
                        out.append(Candidate(
                            algorithm="summa", s=s, t=t, block=b,
                            bcast=alg, segments=seg))
            if p == 1:
                continue
            groups = [G for G in valid_group_counts(s, t) if 1 < G < p]
            for G in groups:
                gg = choose_group_grid(s, t, G)
                inner_t = t // gg[1]
                for B in blocks:
                    # b = B is the paper's main regime; one finer inner
                    # block probes the b < B latency/pipeline trade.
                    inner = [B] + ([B // 4] if B % 4 == 0 else [])
                    for ib in inner:
                        for alg in algs:
                            out.append(Candidate(
                                algorithm="hsumma", s=s, t=t, block=B,
                                inner_block=ib, groups=gg,
                                bcast=alg, outer_bcast=alg,
                            ))
                        for alg in pipelined:
                            # The pipeline depth follows the inner (hot)
                            # message; the outer level shares the depth.
                            for seg in _segment_choices(
                                    rq, alg, rows * ib, max(inner_t, 2)):
                                out.append(Candidate(
                                    algorithm="hsumma", s=s, t=t, block=B,
                                    inner_block=ib, groups=gg,
                                    bcast=alg, outer_bcast=alg, segments=seg,
                                ))
        if not rq.faulty:
            # Under a fault profile only the fault-tolerant 2D family is
            # offered; the 2.5D schedule has no FT broadcast variant.
            for c in candidate_replications(p):
                side = math.isqrt(p // c) or 1
                out.append(Candidate(algorithm="2.5d", s=side, t=side,
                                     replication=c))
        return out


def candidate_memory_elements(rq: ResolvedQuery, cand: Candidate) -> float:
    """Per-rank footprint in elements: the three resident tiles
    (``replication`` copies of the 2-D share where the family
    replicates) plus one pivot-panel receive-buffer pair per broadcast
    level (``block``, and ``inner_block`` where set)."""
    n = rq.n
    rows, cols = n / cand.s, n / cand.t
    if cand.replication:
        total = 3.0 * cand.replication * n * n / rq.p
    else:
        total = 3.0 * rows * cols
    for width in (cand.block, cand.inner_block):
        if width:
            total += rows * width + width * cols
    return total


def closed_form_cost(rq: ResolvedQuery, cand: Candidate) -> float:
    """Ranking-stage estimate in seconds (communication + computation),
    assembled from the registry's broadcast factors."""
    compute = summa_computation_cost(rq.n, rq.p, rq.gamma)
    return _comm_cost(rq, cand, _bcast_term) + compute


def closed_form_costs(rq: ResolvedQuery,
                      cands: Sequence[Candidate]) -> list[float]:
    """:func:`closed_form_cost` of each candidate, bit for bit, pricing
    each distinct broadcast term once: candidates share most of their
    ``(algorithm, p, elements, segments)`` terms, and the table lives
    for this call only."""
    table: dict[tuple[Any, ...], float] = {}

    def term(alg: str | None, p: int, elements: float, alpha: float,
             beta_el: float, segments: int | None) -> float:
        # alpha and beta_el are the query's: not part of the key.
        key = (alg, p, elements, segments)
        cost = table.get(key)
        if cost is None:
            cost = table[key] = _bcast_term(alg, p, elements, alpha, beta_el,
                                            segments)
        return cost

    compute = summa_computation_cost(rq.n, rq.p, rq.gamma)
    return [_comm_cost(rq, cand, term) + compute for cand in cands]


def _bcast_term(alg: str | None, p: int, elements: float,
                alpha: float, beta_el: float,
                segments: int | None = None) -> float:
    if p <= 1:
        return 0.0  # L(1) = W(1) = 0: a single-member broadcast is free
    if alg in PIPELINED_BCASTS:
        # No linear L/W form: priced directly by the registry (element
        # counts with a per-element beta are dimensionally equivalent
        # to its bytes convention).
        return estimate(CostQuery(
            op="bcast", algorithm=alg, p=p, nbytes=elements,
            alpha=alpha, beta=beta_el, segments=segments,
        )).seconds
    return (bcast_latency_factor(alg, p) * alpha
            + elements * bcast_bandwidth_factor(alg, p) * beta_el)


def _comm_cost(rq: ResolvedQuery, cand: Candidate,
               term: Callable[..., float]) -> float:
    """Communication seconds, each broadcast term priced by ``term``
    (:func:`_bcast_term` or a table in front of it)."""
    n, alpha, beta_el = rq.n, rq.alpha, rq.beta_element
    if cand.replication:
        return algo25d_communication_cost(n, rq.p, cand.replication,
                                          alpha, beta_el)
    rows, cols = n / cand.s, n / cand.t
    seg = cand.segments
    # Outer broadcasts across the I x J group grid, inner broadcasts
    # within each (s/I) x (t/J) group (paper eqs. 3-5, rectangular
    # generalisation).  A candidate without groups is the paper's
    # G = 1 degeneracy (Section III: "with G = 1 or G = p HSUMMA
    # degenerates to SUMMA"): on the (1, 1) group grid both outer
    # terms are exactly 0.0 and the inner grid is the whole s x t.
    I, J = cand.groups or (1, 1)
    inner_s, inner_t = cand.s // I, cand.t // J
    B, b = cand.block, cand.inner_block or cand.block
    outer = (n / B) * (
        term(cand.outer_bcast, J, rows * B, alpha, beta_el, seg)
        + term(cand.outer_bcast, I, B * cols, alpha, beta_el, seg)
    )
    inner = (n / b) * (
        term(cand.bcast, inner_t, rows * b, alpha, beta_el, seg)
        + term(cand.bcast, inner_s, b * cols, alpha, beta_el, seg)
    )
    return outer + inner
