"""Processor-grid and group-grid arithmetic for HSUMMA.

HSUMMA partitions an ``s x t`` grid into ``I x J`` groups of
``(s/I) x (t/J)`` processors.  Both factors must divide evenly; for a
requested total group count ``G`` there may be several feasible
``(I, J)`` splits, and :func:`choose_group_grid` picks the one whose
*inner* grids are most square (square inner grids minimise the
per-broadcast data volume, mirroring the paper's square-grid analysis).
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.network.mapping import RankMapping, subgrid_order
from repro.util.gridmath import divisors


def feasible_group_grids(s: int, t: int, G: int) -> list[tuple[int, int]]:
    """All ``(I, J)`` with ``I*J == G``, ``I | s`` and ``J | t``."""
    if s < 1 or t < 1 or G < 1:
        raise ConfigurationError(f"need s,t,G >= 1; got s={s}, t={t}, G={G}")
    out = []
    for I in divisors(G):
        J = G // I
        if s % I == 0 and t % J == 0:
            out.append((I, J))
    return out


def choose_group_grid(s: int, t: int, G: int) -> tuple[int, int]:
    """The feasible ``(I, J)`` whose inner ``(s/I) x (t/J)`` grid is most
    square; raises if ``G`` admits no feasible split."""
    candidates = feasible_group_grids(s, t, G)
    if not candidates:
        raise ConfigurationError(
            f"cannot arrange {G} groups on a {s}x{t} grid "
            f"(valid counts: {valid_group_counts(s, t)})"
        )

    def squareness(ij: tuple[int, int]) -> tuple[float, float]:
        I, J = ij
        inner = abs(math.log((s / I) / (t / J)))
        outer = abs(math.log(I / J)) if I and J else 0.0
        return (inner, outer)

    return min(candidates, key=squareness)


def valid_group_counts(s: int, t: int) -> list[int]:
    """Every ``G`` in ``[1, s*t]`` with a feasible ``(I, J)`` split —
    the x-axis of the paper's group-sweep figures."""
    p = s * t
    return [G for G in divisors(p) if feasible_group_grids(s, t, G)]


def default_group_count(s: int, t: int) -> int:
    """The valid group count nearest ``sqrt(p)`` — the paper's analytic
    optimum on square grids — ties going to the smaller count."""
    target = math.sqrt(s * t)
    return min(valid_group_counts(s, t), key=lambda g: (abs(g - target), g))


def arrange_groups(s: int, t: int,
                   groups: int | tuple[int, int]) -> tuple[int, int]:
    """``groups`` as a group grid: an explicit ``(I, J)`` as given, a
    count ``G`` through :func:`choose_group_grid`."""
    return groups if isinstance(groups, tuple) \
        else choose_group_grid(s, t, groups)


def group_of(i: int, j: int, s: int, t: int, I: int, J: int) -> tuple[int, int]:
    """Group coordinates ``(x, y)`` of grid position ``(i, j)``."""
    if s % I or t % J:
        raise ConfigurationError(f"group grid {I}x{J} does not divide {s}x{t}")
    if not (0 <= i < s and 0 <= j < t):
        raise ConfigurationError(f"({i}, {j}) outside grid {s}x{t}")
    return (i // (s // I), j // (t // J))


def group_aligned_mapping(
    s: int, t: int, I: int, J: int, ranks_per_node: int = 1
) -> RankMapping:
    """Rank-to-node mapping that packs each HSUMMA group onto
    consecutive nodes.

    The default (row-major) placement interleaves groups across the
    machine; on a torus this makes within-group broadcasts span long
    routes — the source of the paper's Figure-8 "zigzags".  Aligning
    groups with node order keeps intra-group traffic local.  Used by
    the topology-aware-grouping ablation.
    """
    if s % I or t % J:
        raise ConfigurationError(f"group grid {I}x{J} does not divide {s}x{t}")
    if ranks_per_node < 1:
        raise ConfigurationError(f"ranks_per_node must be >= 1, got {ranks_per_node}")
    nranks = s * t
    # Order ranks by (group id, position inside group), then deal nodes.
    order = subgrid_order(s, t, I, J)
    node_of = [0] * nranks
    for position, rank in enumerate(order):
        node_of[rank] = position // ranks_per_node
    nnodes = -(-nranks // ranks_per_node)
    return RankMapping(node_of, nnodes)
