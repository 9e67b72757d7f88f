"""Cannon's algorithm (1969) — the square-grid shift algorithm.

Requires a square ``q x q`` grid (the restriction the paper cites as
the reason Cannon never made it into general-purpose libraries).  After
the initial skew — tile row ``i`` of ``A`` rotated left by ``i``, tile
column ``j`` of ``B`` rotated up by ``j`` — there are ``q`` rounds of
local multiply followed by a single-step rotation of both operands.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.blocks.ops import local_gemm_acc, zeros_like_result
from repro.core.launch import (
    AlgorithmSpec,
    collapse,
    launch,
    product_dims,
    Shape,
    square_layout,
    square_side,
)
from repro.mpi.cart import CartComm
from repro.mpi.comm import MpiContext
from repro.simulator.predictor import SquareGridConfig, predict_cannon
from repro.simulator.tracing import SimResult

Gen = Generator[Any, Any, Any]

TAG_SKEW_A = 1
TAG_SKEW_B = 2
TAG_SHIFT_A = 3
TAG_SHIFT_B = 4


def cannon_program(ctx: MpiContext, a_tile: Any, b_tile: Any,
                   cfg: SquareGridConfig) -> Gen:
    """Per-rank Cannon generator on a ``q x q`` grid; returns the C tile."""
    q = cfg.q
    grid = CartComm(ctx.world, q, q)
    i, j = grid.row, grid.col
    comm = grid.comm

    # Initial skew: A(i,j) -> (i, j-i);  B(i,j) -> (i-j, j).
    if i > 0:
        a_tile = yield from comm.sendrecv(
            a_tile,
            grid.rank_at(i, j - i),
            grid.rank_at(i, j + i),
            sendtag=TAG_SKEW_A,
            recvtag=TAG_SKEW_A,
        )
    if j > 0:
        b_tile = yield from comm.sendrecv(
            b_tile,
            grid.rank_at(i - j, j),
            grid.rank_at(i + j, j),
            sendtag=TAG_SKEW_B,
            recvtag=TAG_SKEW_B,
        )

    c_tile = zeros_like_result(a_tile, b_tile)

    # The per-step shift partners: A left along the row, B up the column.
    left, right = grid.rank_at(i, j - 1), grid.rank_at(i, j + 1)
    up, down = grid.rank_at(i - 1, j), grid.rank_at(i + 1, j)
    for step in range(q):
        c_tile = yield from local_gemm_acc(ctx, c_tile, a_tile, b_tile)
        if step == q - 1:
            break
        a_tile = yield from comm.sendrecv(
            a_tile, left, right, sendtag=TAG_SHIFT_A, recvtag=TAG_SHIFT_A)
        b_tile = yield from comm.sendrecv(
            b_tile, up, down, sendtag=TAG_SHIFT_B, recvtag=TAG_SHIFT_B)
    return c_tile


def run_cannon(
    A: Any,
    B: Any,
    *,
    grid: tuple[int, int],
    **run: Any,
) -> tuple[Any, SimResult]:
    """Multiply ``A @ B`` with Cannon's algorithm; ``grid`` must be
    square.  ``**run`` are the shared run options documented on
    :func:`repro.core.launch.launch`."""
    s, t = grid
    _, cfg = _configure(*product_dims(A, B), Shape(s=s, t=t))
    return launch(CANNON, cfg, A, B, **run)


def _configure(m: int, l: int, n: int,
               shape: Shape) -> tuple[Shape, SquareGridConfig]:
    shape = shape.resolve("cannon", l)
    q = square_side("Cannon", shape)
    return shape, SquareGridConfig(m=m, l=l, n=n, q=q)


CANNON = AlgorithmSpec(
    name="cannon",
    display="Cannon's algorithm",
    program=cannon_program,
    layout=square_layout,
    symmetry=lambda cfg: collapse().cannon_symmetry(cfg.q),
    predict=predict_cannon,
    configure=_configure,
)
