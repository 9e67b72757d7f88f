"""Candidate enumeration and closed-form ranking for the planner.

The planner searches algorithm x parameter space: SUMMA and HSUMMA
grids/blocks/group counts/broadcast algorithms, plus the 2.5D
replication family (refined at predictor fidelity alongside the 2-D
candidates whenever its layer grid tiles ``n``).  A candidate is a
family name plus the :class:`~repro.core.launch.Shape` it would run
at; *what* to search is planner policy, so
:func:`enumerate_candidates` is the one function here that names
families — the footprint and the ranking read the shape.  The space is
a :class:`CandidateTable` of plain rows: the footprint filter and the
ranking run over rows, and a :class:`Candidate` is built only for a row
that is read as one (the planner reads its refined leaders).  Ranking
costs are assembled from the unified cost registry's broadcast factors
(:mod:`repro.costs`) — the same ``L(p)``/``W(p)`` the simulator's
closed forms reduce to — generalised to rectangular ``s x t`` grids;
on square grids they reduce to the paper's eq. (2)-(5).
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Any, Iterator, Sequence

from repro.core.launch import Shape
from repro.costs import (
    PIPELINED_BCASTS,
    PipelineDepthWarning,
    algo25d_communication_cost,
    bcast_bandwidth_factor,
    bcast_latency_factor,
    optimal_pipeline_segments,
    pipeline_slots,
    summa_computation_cost,
)
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

#: Enumeration caps: the widest grid aspect ratio, most-square grids
#: kept per p, trailing (largest) power-of-two blocks kept per grid,
#: and the pivot-panel ceiling.
MAX_ASPECT = 4
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


def candidate_grids(p: int) -> list[tuple[int, int]]:
    """Factor pairs ``(s, t)`` of ``p`` with ``s <= t``, most square
    first, aspect ratio at most :data:`MAX_ASPECT` — falling back to
    the most square pair available (e.g. ``(1, p)`` for prime ``p``) —
    the first :data:`MAX_GRIDS` kept."""
    if p < 1:
        raise ConfigurationError(f"p must be >= 1, got {p}")
    pairs = [(s, p // s) for s in range(1, math.isqrt(p) + 1) if p % s == 0]
    pairs.sort(key=lambda st: st[1] / st[0])
    keep = [st for st in pairs if st[1] / st[0] <= MAX_ASPECT]
    if not keep:
        keep = pairs[:1]
    return keep[:MAX_GRIDS]


def candidate_blocks(n: int, s: int, t: int) -> list[int]:
    """Power-of-two pivot blocks valid on an ``s x t`` grid: the chain
    ``1, 2, 4, ...`` dividing both tile dimensions ``n/s`` and ``n/t``
    (capped at :data:`MAX_BLOCK`), largest :data:`MAX_BLOCKS` kept."""
    g = math.gcd(n // s, n // t)
    if g < 1:
        raise ConfigurationError(
            f"grid {s}x{t} does not tile an n={n} matrix"
        )
    chain = [1]
    while g % (chain[-1] * 2) == 0 and chain[-1] * 2 <= MAX_BLOCK:
        chain.append(chain[-1] * 2)
    return chain[-MAX_BLOCKS:]


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


#: The fields of one candidate-table row, in order: the family name,
#: then every shape field a candidate sets.
ROW_FIELDS = ("algorithm", "s", "t", "block", "inner_block", "groups",
              "bcast", "outer_bcast", "segments", "replication")


class CandidateTable(Sequence[Candidate]):
    """The search space as a table: one :data:`ROW_FIELDS` tuple per
    candidate in :attr:`rows`, in enumeration order.  Indexing or
    iterating builds a row's :class:`Candidate` on demand, so ranking
    the rows builds none."""

    __slots__ = ("rows",)

    def __init__(self, rows: list[tuple[Any, ...]]):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int) -> Candidate:
        return candidate(self.rows[index])

    def __iter__(self) -> Iterator[Candidate]:
        return map(candidate, self.rows)


def candidate(row: tuple[Any, ...]) -> Candidate:
    """The :class:`Candidate` of one table row."""
    return Candidate(**dict(zip(ROW_FIELDS, row)))


def _row(shape: Shape) -> tuple[Any, ...]:
    """The table row of a candidate or a bare shape (which names no
    family: its ``algorithm`` is ``None``)."""
    return tuple(getattr(shape, name, None) for name in ROW_FIELDS)


def enumerate_candidates(rq: ResolvedQuery) -> CandidateTable:
    """The full search space for one query, as a table."""
    from repro.core.grouping import choose_group_grid, valid_group_counts

    # The enumeration deliberately probes the infinite-NIC optimum
    # (and around it) — the ranking prices every depth itself, so the
    # registry's over-capacity warning is noise here and stays muted:
    # once per call, not per pipelined group (every entry to and exit
    # from a filter context invalidates the interpreter's warning
    # caches).  Depths repeat across group counts sharing an inner
    # grid width, so each is computed once per call.
    depths: dict[tuple[str, float, int], list[int]] = {}

    def segment_choices(alg: str, elements: float, p: int) -> list[int]:
        key = (alg, elements, p)
        choices = depths.get(key)
        if choices is None:
            choices = depths[key] = _segment_choices(rq, alg, elements, p)
        return choices

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PipelineDepthWarning)
        n, p = rq.n, rq.p
        algs = _bcast_choices(rq)
        pipelined = PIPELINED_CHOICES if not rq.faulty else ()
        # Rows follow ROW_FIELDS.
        out: list[tuple[Any, ...]] = []
        add = out.append
        for s, t in candidate_grids(p):
            blocks = candidate_blocks(n, s, t)
            tile_rows = n / s
            for b in blocks:
                for alg in algs:
                    add(("summa", s, t, b, None, None, alg, None, None, None))
                for alg in pipelined:
                    for seg in segment_choices(alg, tile_rows * b, t):
                        add(("summa", s, t, b, None, None, alg, None, seg,
                             None))
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
                            add(("hsumma", s, t, B, ib, gg, alg, alg, None,
                                 None))
                        for alg in pipelined:
                            # The pipeline depth follows the inner (hot)
                            # message; the outer level shares the depth.
                            for seg in segment_choices(
                                    alg, tile_rows * ib, max(inner_t, 2)):
                                add(("hsumma", s, t, B, ib, gg, alg, alg,
                                     seg, None))
        if not rq.faulty:
            # Under a fault profile only the fault-tolerant 2D family is
            # offered; the 2.5D schedule has no FT broadcast variant.
            for c in candidate_replications(p):
                side = math.isqrt(p // c) or 1
                add(("2.5d", side, side, None, None, None, None, None, None,
                     c))
        return CandidateTable(out)


def candidate_memory_elements(rq: ResolvedQuery, cand: Shape) -> float:
    """Per-rank footprint in elements: the three resident tiles
    (``replication`` copies of the 2-D share where the family
    replicates) plus one pivot-panel receive-buffer pair per broadcast
    level (``block``, and ``inner_block`` where set)."""
    return footprints(rq, [_row(cand)])[0]


def footprints(rq: ResolvedQuery,
               rows: Sequence[tuple[Any, ...]]) -> list[float]:
    """:func:`candidate_memory_elements` of each table row."""
    n = rq.n
    out = []
    for _, s, t, block, inner_block, _, _, _, _, c in rows:
        tile_rows, tile_cols = n / s, n / t
        if c:
            total = 3.0 * c * n * n / rq.p
        else:
            total = 3.0 * tile_rows * tile_cols
        for width in (block, inner_block):
            if width:
                total += tile_rows * width + width * tile_cols
        out.append(total)
    return out


def closed_form_cost(rq: ResolvedQuery, cand: Shape) -> float:
    """Ranking-stage estimate in seconds (communication + computation),
    assembled from the registry's broadcast factors: one row through
    :func:`closed_form_costs`."""
    return closed_form_costs(rq, (cand,))[0]


class _Terms(dict):
    """One ranking's broadcast terms, keyed ``(algorithm, p, elements,
    segments)``: a missing term is priced by :func:`_bcast_term` at the
    query's ``alpha`` and per-element ``beta``, then kept."""

    def __init__(self, alpha: float, beta_el: float):
        super().__init__()
        self.alpha, self.beta_el = alpha, beta_el

    def __missing__(self, key: tuple[Any, ...]) -> float:
        alg, p, elements, segments = key
        cost = self[key] = _bcast_term(alg, p, elements, self.alpha,
                                       self.beta_el, segments)
        return cost


def closed_form_costs(rq: ResolvedQuery,
                      cands: Sequence[Shape]) -> list[float]:
    """:func:`closed_form_cost` of each candidate (of each row, for a
    :class:`CandidateTable`), pricing each distinct broadcast term
    once: candidates share most of their ``(algorithm, p, elements,
    segments)`` terms, and the table lives for this call only.

    A row without ``groups`` is the paper's ``G = 1`` degeneracy
    (Section III: "with G = 1 or G = p HSUMMA degenerates to SUMMA"):
    on the ``(1, 1)`` group grid both outer terms are exactly ``0.0``
    and the inner grid is the whole ``s x t``.  Otherwise the outer
    broadcasts run across the ``I x J`` group grid and the inner ones
    within each ``(s/I) x (t/J)`` group (paper eqs. 3-5, rectangular
    generalisation)."""
    rows = (cands.rows if isinstance(cands, CandidateTable)
            else [_row(c) for c in cands])
    n, p, alpha, beta_el = rq.n, rq.p, rq.alpha, rq.beta_element
    compute = summa_computation_cost(n, p, rq.gamma)
    term = _Terms(alpha, beta_el)
    out = []
    for _, s, t, B, ib, groups, bcast, outer, seg, c in rows:
        if c:
            comm = algo25d_communication_cost(n, p, c, alpha, beta_el)
        else:
            tile_rows, tile_cols = n / s, n / t
            I, J = groups or (1, 1)
            b = ib or B
            comm = ((n / B) * (term[outer, J, tile_rows * B, seg]
                               + term[outer, I, B * tile_cols, seg])
                    + (n / b) * (term[bcast, t // J, tile_rows * b, seg]
                                 + term[bcast, s // I, b * tile_cols, seg]))
        out.append(comm + compute)
    return out


def _bcast_term(alg: str | None, p: int, elements: float,
                alpha: float, beta_el: float,
                segments: int | None = None) -> float:
    if p <= 1:
        return 0.0  # L(1) = W(1) = 0: a single-member broadcast is free
    if alg in PIPELINED_BCASTS:
        # No linear L/W form: the registry's pipeline slots (element
        # counts with a per-element beta are dimensionally equivalent
        # to its bytes convention).
        slots, chunk = pipeline_slots(alg, p, elements, alpha, beta_el,
                                      segments)
        return slots * (alpha + chunk * beta_el)
    return (bcast_latency_factor(alg, p) * alpha
            + elements * bcast_bandwidth_factor(alg, p) * beta_el)
