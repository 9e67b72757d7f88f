"""The 2.5D algorithm (Solomonik & Demmel 2011) with replication ``c``.

``p = q*q*c`` ranks arranged ``q x q x c``.  Layer 0 holds the inputs
block-distributed; the tiles are replicated down the ``c`` layer axis,
each layer then executes a ``1/c`` share of the SUMMA-style pivot
steps entirely within itself, and the partial ``C``s are reduced back
to layer 0.  Per-rank broadcast volume is ``2 n^2 / sqrt(c p)`` — the
``sqrt(c)``-fold bandwidth saving of 2.5D — at the price of ``c``
matrix replicas, the memory cost the paper argues will not survive
exascale memory-per-core trends.

This is the broadcast-based formulation: the original paper shifts
skewed tiles Cannon-style inside a layer, which has the same asymptotic
cost; the broadcast variant reuses this library's collectives and keeps
the comparison apples-to-apples with SUMMA/HSUMMA (see DESIGN.md).
"""

from __future__ import annotations

import dataclasses
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
from repro.errors import ConfigurationError
from repro.mpi.comm import MpiContext
from repro.simulator.predictor import SquareGridConfig, predict_summa25d
from repro.simulator.tracing import SimResult

Gen = Generator[Any, Any, Any]


def _layer_grid(p: int, c: int) -> int:
    if c < 1:
        raise ConfigurationError(f"replication c must be >= 1, got {c}")
    if p % c:
        raise ConfigurationError(f"replication {c} does not divide p={p}")
    q = round((p // c) ** 0.5)
    if q * q * c != p:
        raise ConfigurationError(
            f"2.5D needs p = q^2 * c; p={p}, c={c} gives no integer q"
        )
    return q  # c | q is the config's check


def algo25d_program(
    ctx: MpiContext, a_tile: Any, b_tile: Any, cfg: SquareGridConfig
) -> Gen:
    """Per-rank 2.5D generator; returns the C tile on layer 0."""
    q, c = cfg.q, cfg.c
    world = ctx.world
    rank = world.rank
    # Rank r = (i * q + j) * c + layer.
    layer = rank % c
    j = (rank // c) % q
    i = rank // (c * q)

    # Communicators: layer axis (fixed i,j), and row/col inside a layer.
    layer_axis = world.split_by(lambda r: r // c, key_of=lambda r: r % c)
    row_comm = world.split_by(
        lambda r: (r // (c * q)) * c + r % c,
        key_of=lambda r: (r // c) % q,
    )  # fixed (i, layer), varying j
    col_comm = world.split_by(
        lambda r: ((r // c) % q) * c + r % c,
        key_of=lambda r: r // (c * q),
    )  # fixed (j, layer), varying i

    # 1. Replicate tiles across layers.
    a_tile = yield from layer_axis.bcast(a_tile, root=0)
    b_tile = yield from layer_axis.bcast(b_tile, root=0)

    # 2. My layer's share of the q pivot steps.
    c_partial = zeros_like_result(a_tile, b_tile)
    steps = q // c
    for idx in range(steps):
        k = layer * steps + idx
        a_piv = a_tile if j == k else None
        a_piv = yield from row_comm.bcast(a_piv, root=k)
        b_piv = b_tile if i == k else None
        b_piv = yield from col_comm.bcast(b_piv, root=k)
        c_partial = yield from local_gemm_acc(ctx, c_partial, a_piv, b_piv)

    # 3. Reduce partial results to layer 0.
    c_tile = yield from layer_axis.reduce(c_partial, root=0)
    return c_tile if layer == 0 else None


def run_25d(
    A: Any,
    B: Any,
    *,
    nprocs: int,
    replication: int = 1,
    **run: Any,
) -> tuple[Any, SimResult]:
    """Multiply ``A @ B`` with the 2.5D algorithm.

    ``nprocs = q^2 * replication`` with ``replication | q``;
    ``replication=1`` degenerates to a SUMMA-like 2-D run, and
    ``replication=p^(1/3)`` recovers the 3-D algorithm's layout.
    ``**run`` are the shared run options documented on
    :func:`repro.core.launch.launch`.
    """
    _, cfg = _configure(*product_dims(A, B),
                        Shape(nprocs=nprocs, replication=replication))
    return launch(SUMMA25D, cfg, A, B, **run)


def _configure(m: int, l: int, n: int,
               shape: Shape) -> tuple[Shape, SquareGridConfig]:
    """The grid is one layer's ``q x q``, from ``nprocs = q^2 * c``."""
    c = shape.replication or 1
    shape = shape.resolve("2.5d", l, "replication",
                          grid_of=lambda p: (_layer_grid(p, c),) * 2)
    q = square_side("a 2.5D layer", shape)
    return (dataclasses.replace(shape, replication=c),
            SquareGridConfig(m=m, l=l, n=n, q=q, c=c))


SUMMA25D = AlgorithmSpec(
    name="2.5d",
    display="the 2.5D algorithm",
    program=algo25d_program,
    layout=square_layout,
    symmetry=lambda cfg: collapse().summa25d_symmetry(cfg.q, cfg.c),
    predict=predict_summa25d,
    configure=_configure,
)
