"""Distributed layout redistribution via all-to-all.

Converts a matrix between any two distributions on the same grid —
most usefully block (checkerboard) ↔ block-cyclic, the operation a
library performs between a SUMMA-friendly and a ScaLAPACK-friendly
layout.  Each rank slices its local tile into the pieces owed to every
other rank, exchanges them with one all-to-all, and assembles its new
tile.

Works in data mode (real numpy pieces move) and phantom mode (only the
piece *sizes* travel, so redistribution cost studies scale).
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from repro.blocks.distribution import BlockCyclicDistribution, BlockDistribution
from repro.collectives.alltoall import alltoall_pairwise
from repro.errors import ConfigurationError
from repro.payloads import PhantomArray

Gen = Generator[Any, Any, Any]

Distribution = BlockDistribution | BlockCyclicDistribution


def _row_runs(dist: Distribution, rows: int):
    """Maximal runs of consecutive global rows with constant (owner row,
    contiguous local rows) — lets the piece map work per run instead of
    per element."""
    runs = []
    start = 0
    prev = _owner_and_local_row(dist, 0)
    for gi in range(1, rows):
        cur = _owner_and_local_row(dist, gi)
        if cur[0] != prev[0] or cur[1] != prev[1] + (gi - start):
            runs.append((start, gi, prev))
            start, prev = gi, cur
    runs.append((start, rows, prev))
    return runs


def _owner_and_local_row(dist: Distribution, gi: int):
    if isinstance(dist, BlockDistribution):
        return dist.owner_of_row(gi), gi % dist.tile_rows
    bi = gi // dist.nb_r
    owner = bi % dist.s
    lbi = bi // dist.s
    return owner, lbi * dist.nb_r + gi % dist.nb_r


def _owner_and_local_col(dist: Distribution, gj: int):
    if isinstance(dist, BlockDistribution):
        return dist.owner_of_col(gj), gj % dist.tile_cols
    bj = gj // dist.nb_c
    owner = bj % dist.t
    lbj = bj // dist.t
    return owner, lbj * dist.nb_c + gj % dist.nb_c


def _col_runs(dist: Distribution, cols: int):
    runs = []
    start = 0
    prev = _owner_and_local_col(dist, 0)
    for gj in range(1, cols):
        cur = _owner_and_local_col(dist, gj)
        if cur[0] != prev[0] or cur[1] != prev[1] + (gj - start):
            runs.append((start, gj, prev))
            start, prev = gj, cur
    runs.append((start, cols, prev))
    return runs


def redistribute_program(
    ctx: Any,
    local_tile: Any,
    src: Distribution,
    dst: Distribution,
) -> Gen:
    """Per-rank generator: exchange pieces so that this rank ends with
    its ``dst``-layout tile.  Ranks are laid out row-major on the grid
    (rank = i*t + j), which must be identical for both distributions."""
    if (src.s, src.t) != (dst.s, dst.t):
        raise ConfigurationError(
            f"redistribution needs one grid, got {src.s}x{src.t} "
            f"and {dst.s}x{dst.t}"
        )
    if (src.rows, src.cols) != (dst.rows, dst.cols):
        raise ConfigurationError("source and target shapes differ")
    comm = ctx.world
    t = src.t
    me_i, me_j = divmod(comm.rank, t)
    phantom = isinstance(local_tile, PhantomArray)

    src_row_runs = _row_runs(src, src.rows)
    src_col_runs = _col_runs(src, src.cols)
    dst_row_runs = _row_runs(dst, dst.rows)
    dst_col_runs = _col_runs(dst, dst.cols)

    # Intersect my source runs with the target runs to build pieces.
    my_row_runs = [r for r in src_row_runs if r[2][0] == me_i]
    my_col_runs = [c for c in src_col_runs if c[2][0] == me_j]

    def overlaps(runs_a, runs_b):
        """Pairs of (global lo, hi, a_local_start, b_owner, b_local_start)."""
        out = []
        for a_lo, a_hi, (_, a_loc) in runs_a:
            for b_lo, b_hi, (b_owner, b_loc) in runs_b:
                lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
                if lo < hi:
                    out.append(
                        (lo, hi, a_loc + (lo - a_lo), b_owner,
                         b_loc + (lo - b_lo))
                    )
        return out

    row_pieces = overlaps(my_row_runs, dst_row_runs)
    col_pieces = overlaps(my_col_runs, dst_col_runs)

    # parts[rank] = list of (target local rows, cols, data)
    parts: list[list[Any]] = [[] for _ in range(comm.size)]
    for r_lo, r_hi, my_r, oi, dst_r in row_pieces:
        for c_lo, c_hi, my_c, oj, dst_c in col_pieces:
            target = oi * t + oj
            h, w = r_hi - r_lo, c_hi - c_lo
            if phantom:
                data: Any = PhantomArray((h, w))
            else:
                data = local_tile[my_r : my_r + h, my_c : my_c + w].copy()
            parts[target].append((dst_r, dst_c, h, w, data))

    received = yield from alltoall_pairwise(comm, parts)

    out_shape = dst.tile_shape(me_i, me_j)
    if phantom:
        return PhantomArray(out_shape)
    out = np.empty(out_shape)
    filled = 0
    for bundle in received:
        for dst_r, dst_c, h, w, data in bundle:
            out[dst_r : dst_r + h, dst_c : dst_c + w] = data
            filled += h * w
    if filled != out_shape[0] * out_shape[1]:
        raise ConfigurationError(
            f"redistribution left gaps: filled {filled} of "
            f"{out_shape[0] * out_shape[1]} elements"
        )
    return out


def run_redistribute(
    M: Any,
    src: Distribution,
    dst: Distribution,
    *,
    network: Any = None,
    params: Any = None,
    backend: Any = None,
) -> tuple[np.ndarray | PhantomArray, Any]:
    """Redistribute a global matrix between layouts on a simulated
    platform; returns ``(reassembled global matrix, SimResult)`` —
    the reassembly is from the *target* tiles, so equality with the
    input proves the exchange was complete and correctly placed."""
    from repro.mpi.comm import make_contexts
    from repro.network.homogeneous import HomogeneousNetwork
    from repro.simulator.backends import resolve_backend
    from repro.simulator.runtime import DEFAULT_PARAMS

    nranks = src.s * src.t
    phantom = isinstance(M, PhantomArray)
    if network is None:
        network = HomogeneousNetwork(nranks, params or DEFAULT_PARAMS)
    programs = []
    for rank, ctx in enumerate(make_contexts(nranks)):
        i, j = divmod(rank, src.t)
        if phantom:
            tile: Any = PhantomArray(src.tile_shape(i, j))
        else:
            tile = src.extract_tile(np.asarray(M, dtype=float), i, j)
        programs.append(redistribute_program(ctx, tile, src, dst))
    sim = resolve_backend(backend, network).run(programs)
    if phantom:
        return PhantomArray((src.rows, src.cols)), sim
    tiles = {divmod(r, src.t): sim.return_values[r] for r in range(nranks)}
    return dst.assemble(tiles), sim
