"""Fox's algorithm (broadcast–multiply–roll, 1987).

Square ``q x q`` grid.  In round ``k`` the rank in column
``(i + k) mod q`` broadcasts its ``A`` tile along its grid row, every
rank multiplies into ``C``, and ``B`` rolls up one grid row.  Same
square-grid restriction as Cannon (paper Section I).
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
from repro.simulator.predictor import SquareGridConfig, predict_fox
from repro.simulator.tracing import SimResult

Gen = Generator[Any, Any, Any]

TAG_ROLL_B = 5


def fox_program(ctx: MpiContext, a_tile: Any, b_tile: Any,
                cfg: SquareGridConfig) -> Gen:
    """Per-rank Fox generator on a ``q x q`` grid; returns the C tile."""
    q = cfg.q
    grid = CartComm(ctx.world, q, q)
    i, j = grid.row, grid.col

    c_tile = zeros_like_result(a_tile, b_tile)

    for k in range(q):
        pivot_col = (i + k) % q
        a_bcast = a_tile if j == pivot_col else None
        a_bcast = yield from grid.row_comm.bcast(a_bcast, root=pivot_col)
        c_tile = yield from local_gemm_acc(ctx, c_tile, a_bcast, b_tile)
        if k == q - 1:
            break
        b_tile = yield from grid.comm.sendrecv(
            b_tile,
            grid.rank_at(i - 1, j),
            grid.rank_at(i + 1, j),
            sendtag=TAG_ROLL_B,
            recvtag=TAG_ROLL_B,
        )
    return c_tile


def run_fox(
    A: Any,
    B: Any,
    *,
    grid: tuple[int, int],
    **run: Any,
) -> tuple[Any, SimResult]:
    """Multiply ``A @ B`` with Fox's algorithm; ``grid`` must be
    square.  ``**run`` are the shared run options documented on
    :func:`repro.core.launch.launch`."""
    s, t = grid
    _, cfg = _configure(*product_dims(A, B), Shape(s=s, t=t))
    return launch(FOX, cfg, A, B, **run)


def _configure(m: int, l: int, n: int,
               shape: Shape) -> tuple[Shape, SquareGridConfig]:
    shape = shape.resolve("fox", l)
    q = square_side("Fox", shape)
    return shape, SquareGridConfig(m=m, l=l, n=n, q=q)


FOX = AlgorithmSpec(
    name="fox",
    display="Fox's algorithm",
    program=fox_program,
    layout=square_layout,
    symmetry=lambda cfg: collapse().fox_symmetry(cfg.q),
    predict=predict_fox,
    configure=_configure,
)
