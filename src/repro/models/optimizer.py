"""Extremum analysis of the HSUMMA cost in ``G`` (paper eqs. 6-12).

For the Van de Geijn broadcast with ``b = B`` the derivative is

    ``dT/dG = (G - sqrt(p)) / (G * sqrt(G)) * (n*alpha/b - 2*n^2*beta/p)``

so ``G = sqrt(p)`` is always a stationary point, and it is the *minimum*
exactly when ``alpha/beta > 2*n*b/p`` (eq. 10) — otherwise it is the
maximum and the best HSUMMA degenerates to SUMMA (``G = 1`` or
``G = p``).  The threshold test, the derivative and the
extremum-kind classifier are the registry's closed forms (import them
from :mod:`repro.costs`); this module adds
the numeric optimiser over integer group counts — optionally
restricted to the counts actually *realisable* on a processor grid
(feasible ``I x J`` splits), which is what the planner uses.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.costs.closed_forms import hsumma_communication_cost
from repro.costs.registry import VANDEGEIJN_MODEL, BroadcastModel
from repro.errors import ModelError
from repro.util.validation import require_positive

__all__ = [
    "default_group_candidates",
    "optimal_group_count",
]


def default_group_candidates(
    p: int, grid: tuple[int, int] | None = None
) -> list[int]:
    """Candidate group counts for the numeric search.

    Without a ``grid``: powers of two in ``[1, p]`` plus exact
    ``sqrt(p)`` if integral — the paper's sweep grid.  With a
    ``grid=(s, t)``: only the counts with a feasible ``I x J`` split
    (``I | s``, ``J | t``) — an unrestricted sweep can nominate a ``G``
    no HSUMMA run can realise (e.g. ``G = 2`` on a ``3 x 3`` grid).
    """
    if p < 1:
        raise ModelError(f"p must be >= 1, got {p}")
    if grid is not None:
        from repro.core.grouping import valid_group_counts

        s, t = grid
        if s * t != p:
            raise ModelError(f"grid {s}x{t} does not have p={p} ranks")
        return valid_group_counts(s, t)
    cands = []
    g = 1
    while g <= p:
        cands.append(g)
        g *= 2
    r = math.isqrt(p)
    if r * r == p and r not in cands:
        cands.append(r)
    return sorted(cands)


def optimal_group_count(
    n: float,
    p: int,
    b: float,
    alpha: float,
    beta: float,
    model: BroadcastModel = VANDEGEIJN_MODEL,
    candidates: Iterable[int] | None = None,
    *,
    grid: tuple[int, int] | None = None,
) -> tuple[int, float]:
    """Numerically best integer ``G`` (and its cost) over ``candidates``
    (default: :func:`default_group_candidates` — the paper's
    power-of-two sweep, or, when ``grid`` is given, exactly the counts
    feasible on that ``s x t`` grid).

    Ties (e.g. the degenerate ``alpha/beta == 2nb/p`` threshold, where
    the Van de Geijn cost is flat in ``G``) resolve to the smallest
    candidate, so the choice is deterministic.
    """
    require_positive(alpha, "alpha")
    require_positive(beta, "beta")
    if candidates is None:
        candidates = default_group_candidates(p, grid)
    best_g, best_t = None, math.inf
    for G in candidates:
        if not (1 <= G <= p):
            raise ModelError(f"candidate G={G} outside [1, {p}]")
        t = hsumma_communication_cost(n, p, G, b, alpha, beta, model)
        if t < best_t:
            best_g, best_t = G, t
    if best_g is None:
        raise ModelError("no group-count candidates to search")
    return best_g, best_t
