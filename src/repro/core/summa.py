"""SUMMA — Scalable Universal Matrix Multiplication Algorithm.

The van de Geijn & Watts algorithm the paper redesigns: ``C = A @ B``
over an ``s x t`` processor grid with block (checkerboard) distributed
matrices.  There are ``l/b`` steps; in step ``k`` the owners of the
``b``-wide pivot column of ``A`` broadcast it along their grid row, the
owners of the pivot row of ``B`` broadcast it along their grid column,
and every rank accumulates one rank-``b`` update into its ``C`` tile.

This module provides the per-rank SPMD generator
(:func:`summa_program`) and a one-call runner (:func:`run_summa`) that
distributes the inputs, simulates, checks nothing is left in flight,
and reassembles ``C``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Generator

import numpy as np

from repro.blocks.ops import local_gemm_acc, slice_cols, slice_rows
from repro.core.launch import (
    AlgorithmSpec,
    collapse,
    launch,
    product_dims,
    Shape,
)
from repro.mpi.cart import CartComm
from repro.mpi.comm import MpiContext
from repro.payloads import PhantomArray
from repro.simulator.predictor import predict_summa
from repro.simulator.tracing import SimResult
from repro.util.validation import require, require_divides

Gen = Generator[Any, Any, Any]


@dataclasses.dataclass(frozen=True)
class SummaConfig:
    """Static parameters of a SUMMA run.

    ``C = A @ B`` with ``A`` of shape ``(m, l)`` and ``B`` of shape
    ``(l, n)`` on an ``s x t`` grid with pivot block size ``block``.
    """

    m: int
    l: int
    n: int
    s: int
    t: int
    block: int
    bcast: str | None = None  # override CollectiveOptions.bcast

    def __post_init__(self) -> None:
        require(self.m > 0 and self.l > 0 and self.n > 0,
                f"matrix dims must be positive: {self.m}, {self.l}, {self.n}")
        require(self.s > 0 and self.t > 0,
                f"grid dims must be positive: {self.s}x{self.t}")
        require_divides(self.s, self.m, "SUMMA: grid rows into C rows")
        require_divides(self.t, self.n, "SUMMA: grid cols into C cols")
        require_divides(self.s, self.l, "SUMMA: grid rows into inner dim")
        require_divides(self.t, self.l, "SUMMA: grid cols into inner dim")
        require_divides(self.block, self.l, "SUMMA: block into inner dim")
        # A pivot column (width `block`) must live on one grid column,
        # and the B pivot row on one grid row.
        require_divides(self.block, self.l // self.t,
                        "SUMMA: block into A tile width")
        require_divides(self.block, self.l // self.s,
                        "SUMMA: block into B tile height")

    @property
    def nsteps(self) -> int:
        return self.l // self.block


def summa_program(ctx: MpiContext, a_tile: Any, b_tile: Any, cfg: SummaConfig) -> Gen:
    """Per-rank SUMMA generator; returns this rank's ``C`` tile."""
    grid = CartComm(ctx.world, cfg.s, cfg.t)
    i, j = grid.row, grid.col
    a_tile_cols = cfg.l // cfg.t
    b_tile_rows = cfg.l // cfg.s
    c_tile = c_accumulator(a_tile, b_tile, cfg)

    for k in range(cfg.nsteps):
        g0 = k * cfg.block

        yield from ctx.span("bcast.row", step=k, matrix="A")
        owner_col = g0 // a_tile_cols
        a_piv = None
        if j == owner_col:
            c0 = g0 % a_tile_cols
            a_piv = slice_cols(a_tile, c0, c0 + cfg.block)
        a_piv = yield from grid.row_comm.bcast(
            a_piv, root=owner_col, algorithm=cfg.bcast
        )
        yield from ctx.end_span()

        yield from ctx.span("bcast.col", step=k, matrix="B")
        owner_row = g0 // b_tile_rows
        b_piv = None
        if i == owner_row:
            r0 = g0 % b_tile_rows
            b_piv = slice_rows(b_tile, r0, r0 + cfg.block)
        b_piv = yield from grid.col_comm.bcast(
            b_piv, root=owner_row, algorithm=cfg.bcast
        )
        yield from ctx.end_span()

        yield from ctx.span("gemm", step=k)
        c_tile = yield from local_gemm_acc(ctx, c_tile, a_piv, b_piv)
        yield from ctx.end_span()
    return c_tile


def c_accumulator(a_tile: Any, b_tile: Any, cfg: Any) -> Any:
    """Zeroed ``(m/s) x (n/t)`` accumulator matching the tile mode (for
    any config with ``m, n, s, t``)."""
    if isinstance(a_tile, PhantomArray) or isinstance(b_tile, PhantomArray):
        return PhantomArray((cfg.m // cfg.s, cfg.n // cfg.t))
    return np.zeros((cfg.m // cfg.s, cfg.n // cfg.t))


def run_summa(
    A: Any,
    B: Any,
    *,
    grid: tuple[int, int],
    block: int,
    bcast: str | None = None,
    **run: Any,
) -> tuple[Any, SimResult]:
    """Multiply block-distributed ``A @ B`` with SUMMA on a simulated
    platform; returns ``(C, SimResult)``.

    ``bcast`` overrides the broadcast algorithm of the pivot
    broadcasts.  ``**run`` are the shared run options (``network
    params gamma options bcast_segments contention trace backend
    faults verify``) documented once on
    :func:`repro.core.launch.launch`; with ``trace=True`` the result
    carries ``bcast.row`` / ``bcast.col`` / ``gemm`` phase spans.
    """
    s, t = grid
    m, l, n = product_dims(A, B)
    cfg = SummaConfig(m=m, l=l, n=n, s=s, t=t, block=block, bcast=bcast)
    return launch(SUMMA, cfg, A, B, **run)


def _configure(m: int, l: int, n: int,
               shape: Shape) -> tuple[Shape, SummaConfig]:
    shape = shape.resolve("summa", l, "block", "bcast", "segments", "overlap")
    return shape, SummaConfig(m=m, l=l, n=n, s=shape.s, t=shape.t,
                              block=shape.block, bcast=shape.bcast)


SUMMA = AlgorithmSpec(
    name="summa",
    display="summa",
    program=summa_program,
    symmetry=lambda cfg: collapse().summa_symmetry(cfg.s, cfg.t),
    predict=predict_summa,
    configure=_configure,
    overlap="repro.core.overlap:SUMMA_OVERLAP",
)
