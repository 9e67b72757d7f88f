"""Blocked Householder QR on a 2-D tile grid (compact WY form).

Per panel ``k`` of ``K = n/b``:

1. the grid column owning block column ``k`` *gathers* the panel rows
   ``>= k`` onto the diagonal owner, which computes the panel's
   Householder factorization (LAPACK-style ``V`` unit-lower-trapezoidal
   reflectors, ``T`` triangular factor, ``R_kk``) — ``~2 r b^2`` flops;
2. the ``V`` blocks are scattered back down the column, and each grid
   row's ``(V_bi, T)`` is broadcast along the row — the SUMMA-like
   phase where the paper's hierarchical grouping applies
   (``hierarchical=True``);
3. trailing update ``A := (I - V T Vᵀ)ᵀ A`` distributed as
   ``W_j = sum_i V_iᵀ A_ij`` (allreduce down each grid column) followed
   by ``A_ij -= V_i (Tᵀ W_j)``.

The factorization overwrites the tiles with ``R`` (upper triangle);
``Q`` is available implicitly through the reflectors, as in LAPACK.
Tests verify ``RᵀR = AᵀA`` (the Gram identity that holds iff ``Q`` is
orthogonal and ``A = QR``) plus agreement with numpy's ``R`` up to row
signs.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np
import scipy.linalg

from repro.core.launch import AlgorithmSpec, launch
from repro.errors import ConfigurationError
from repro.factorization.lu import (
    LuConfig,
    TileCyclicLayout,
    _square_config,
    panel_grid,
)
from repro.mpi.comm import MpiContext
from repro.payloads import PhantomArray
from repro.simulator.tracing import SimResult

Gen = Generator[Any, Any, Any]

#: QR shares LU's config validation (square matrix, tile grid, groups).
QrConfig = LuConfig


def _panel_householder(panel: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LAPACK-style panel factorization: returns ``(V, T, R)`` with
    ``panel = (I - V T Vᵀ) [R; 0]`` — V unit-lower-trapezoidal
    ``(r, b)``, T upper-triangular ``(b, b)``, R upper ``(b, b)``."""
    r, b = panel.shape
    if r < b:
        raise ConfigurationError(f"panel must be tall, got {panel.shape}")
    (qr_raw, tau), _ = scipy.linalg.qr(panel, mode="raw")
    V = np.tril(qr_raw, -1)[:, :b]
    np.fill_diagonal(V, 1.0)
    R = np.triu(qr_raw)[:b, :b]
    # Build T column by column: T[:i, i] = -tau_i T[:i, :i] (V[:, :i]ᵀ v_i).
    T = np.zeros((b, b))
    for i in range(b):
        T[i, i] = tau[i]
        if i:
            T[:i, i] = -tau[i] * (T[:i, :i] @ (V[:, :i].T @ V[:, i]))
    return V, T, R


def qr_program(
    ctx: MpiContext,
    tiles: dict[tuple[int, int], Any],
    cfg: QrConfig,
) -> Gen:
    """Per-rank blocked-QR generator; tiles end up holding ``R``."""
    grid = panel_grid(ctx, cfg)
    i, j = grid.row, grid.col
    b = cfg.b
    K = cfg.nblocks
    phantom = any(isinstance(v, PhantomArray) for v in tiles.values())

    def my_rows_from(k: int) -> list[int]:
        """Global tile rows >= k owned by my grid row."""
        return [bi for bi in range(k, K) if bi % cfg.s == i]

    def my_cols_right(k: int) -> list[int]:
        return [bj for bj in range(k + 1, K) if bj % cfg.t == j]

    for k in range(K):
        owner_row, owner_col = k % cfg.s, k % cfg.t
        rows_mine = my_rows_from(k)
        panel_rows = K - k  # tile rows in the panel

        # 1. Gather the panel onto the diagonal owner of this column.
        gathered = None
        if j == owner_col:
            contribution = [(bi, tiles[(bi, k)]) for bi in rows_mine]
            gathered = yield from grid.col_comm.gather(
                contribution, root=owner_row
            )

        v_mine: Any = None
        T = None
        if i == owner_row and j == owner_col:
            # Flatten and order the gathered panel tiles.
            pieces = dict()
            for bundle in gathered:
                for bi, tile in bundle:
                    pieces[bi] = tile
            order = list(range(k, K))
            yield from ctx.compute_flops(2.0 * (panel_rows * b) * b * b)
            if phantom:
                V_blocks = {bi: PhantomArray((b, b)) for bi in order}
                T = PhantomArray((b, b))
                tiles[(k, k)] = PhantomArray((b, b))
            else:
                panel = np.vstack([pieces[bi] for bi in order])
                V, T, R = _panel_householder(panel)
                V_blocks = {
                    bi: V[q * b : (q + 1) * b] for q, bi in enumerate(order)
                }
                tiles[(k, k)] = R
            # 1b. Scatter each rank's V blocks back down the column.
            parts = [[] for _ in range(cfg.s)]
            for bi in order:
                parts[bi % cfg.s].append((bi, V_blocks[bi]))
            my_part = yield from grid.col_comm.scatter(parts, root=owner_row)
            v_mine = dict(my_part)
        elif j == owner_col:
            my_part = yield from grid.col_comm.scatter(None, root=owner_row)
            v_mine = dict(my_part)
        if j == owner_col:
            # The whole panel column below the diagonal becomes the
            # (implicit) zeros of R, on every rank of the column
            # including the diagonal owner itself.
            for bi in rows_mine:
                if bi > k:
                    tiles[(bi, k)] = (
                        PhantomArray((b, b)) if phantom else np.zeros((b, b))
                    )
            # Every owner-column rank roots a row broadcast and needs T.
            T = yield from grid.col_comm.bcast(T, root=owner_row)

        # 2. Broadcast (V blocks for my grid row, T) along the row —
        # packed into one stacked array so segmented broadcasts work;
        # the block list is derivable on every receiver (row peers share
        # the grid row, hence the same rows_mine).
        payload = None
        if j == owner_col:
            if phantom:
                payload = PhantomArray(((len(rows_mine) + 1) * b, b))
            else:
                payload = np.vstack(
                    [v_mine[bi] for bi in rows_mine] + [T]
                )
        payload = yield from grid.bcast_row(payload, owner_col)
        if phantom:
            v_blocks = {bi: PhantomArray((b, b)) for bi in rows_mine}
            T = PhantomArray((b, b))
        else:
            v_blocks = {
                bi: payload[q * b : (q + 1) * b]
                for q, bi in enumerate(rows_mine)
            }
            T = payload[len(rows_mine) * b :]

        cols = my_cols_right(k)
        if not cols:
            continue

        # 3a. Partial W_j = sum_bi V_biᵀ A_bi,j, allreduced per column.
        partial: dict[int, Any] = {}
        for bj in cols:
            acc = None
            for bi in rows_mine:
                vb = v_blocks.get(bi)
                if vb is None:
                    continue
                yield from ctx.compute_flops(2.0 * b**3)
                if phantom:
                    acc = PhantomArray((b, b))
                else:
                    term = vb.T @ tiles[(bi, bj)]
                    acc = term if acc is None else acc + term
            if acc is None:
                acc = PhantomArray((b, b)) if phantom else np.zeros((b, b))
            partial[bj] = acc
        # One allreduce of the stacked W blocks down the grid column.
        stacked = (
            PhantomArray((b, len(cols) * b))
            if phantom
            else np.hstack([partial[bj] for bj in cols])
        )
        stacked = yield from grid.col_comm.allreduce(stacked)
        if not phantom:
            partial = {
                bj: stacked[:, q * b : (q + 1) * b]
                for q, bj in enumerate(cols)
            }

        # 3b. A_bi,bj -= V_bi (Tᵀ W_bj).
        for bj in cols:
            if phantom:
                yield from ctx.compute_flops(2.0 * b**3)
                tw: Any = PhantomArray((b, b))
            else:
                yield from ctx.compute_flops(2.0 * b**3)
                tw = T.T @ partial[bj]
            for bi in rows_mine:
                vb = v_blocks.get(bi)
                if vb is None:
                    continue
                yield from ctx.compute_flops(2.0 * b**3)
                if not phantom:
                    tiles[(bi, bj)] = tiles[(bi, bj)] - vb @ tw
    return tiles


def _gather_r(n: int, b: int, tiles: Any) -> Any:
    if tiles is None:
        return PhantomArray((n, n))
    R = np.zeros((n, n))
    for (bi, bj), tile in tiles:
        R[bi * b:(bi + 1) * b, bj * b:(bj + 1) * b] = tile
    return R


BLOCK_QR = AlgorithmSpec(
    name="qr",
    display="a block QR factorisation",
    program=qr_program,
    layout=lambda cfg: TileCyclicLayout(cfg, _gather_r),
    refusal=(
        "data-dependent reflector flow",
        "panel factorisation and trailing updates couple through "
        "reflector broadcasts whose extents shrink with the "
        "factorisation front, leaving no per-step closed form",
        "backend='macro' for scale runs, backend='des' for data",
    ),
)


def run_block_qr(
    A: Any,
    *,
    grid: tuple[int, int],
    block: int,
    groups: tuple[int, int] = (1, 1),
    **run: Any,
) -> tuple[Any, SimResult]:
    """Factor ``A = Q R`` on a simulated platform; returns ``(R, SimResult)``
    (``Q`` stays implicit in the reflectors, as in LAPACK).  ``**run``
    are the shared run options documented on
    :func:`repro.core.launch.launch`."""
    cfg = _square_config(A, "this QR driver", grid, block, groups)
    return launch(BLOCK_QR, cfg, A, **run)
