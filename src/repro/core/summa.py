"""SUMMA — Scalable Universal Matrix Multiplication Algorithm.

The van de Geijn & Watts algorithm the paper redesigns: ``C = A @ B``
over an ``s x t`` processor grid with block (checkerboard) distributed
matrices.  There are ``l/b`` steps; in step ``k`` the owners of the
``b``-wide pivot column of ``A`` broadcast it along their grid row, the
owners of the pivot row of ``B`` broadcast it along their grid column,
and every rank accumulates one rank-``b`` update into its ``C`` tile.

HSUMMA is the same loop with each broadcast split over a hierarchy, so
one program runs both: a config's :class:`Levels` schedule lists per
level its row and column factors, its block and its broadcast
algorithm.  One level is SUMMA, two are HSUMMA, more are the
multi-level hierarchy the paper leaves as future work
(:mod:`repro.core.hsumma`).

This module provides the per-rank SPMD generator
(:func:`summa_program`) and a one-call runner (:func:`run_summa`) that
distributes the inputs, simulates, checks nothing is left in flight,
and reassembles ``C``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Generator, NamedTuple

import numpy as np

from repro.blocks.ops import local_gemm_acc, slice_cols, slice_rows
from repro.core.launch import (
    AlgorithmSpec,
    collapse,
    launch,
    product_dims,
    Shape,
)
from repro.errors import ConfigurationError
from repro.mpi.cart import CartComm
from repro.mpi.comm import MpiContext
from repro.payloads import PhantomArray
from repro.simulator.predictor import predict_summa
from repro.simulator.tracing import SimResult
from repro.util.validation import require, require_divides

Gen = Generator[Any, Any, Any]


class Levels(NamedTuple):
    """A run as nested broadcast levels, outermost first: level ``q``
    splits the grid rows by ``rows[q]`` and the columns by ``cols[q]``
    and broadcasts ``blocks[q]``-wide pivot panels with algorithm
    ``bcasts[q]`` (``None``: the run's default)."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    blocks: tuple[int, ...]
    bcasts: tuple[str | None, ...]


def check_levels(cfg: Any, name: str) -> None:
    """The validation every level-scheduled config shares: positive
    sizes, factors that multiply to the grid, blocks that nest, and a
    grid and top block that divide the matrices."""
    rows, cols, blocks, _ = cfg.schedule
    require(cfg.m > 0 and cfg.l > 0 and cfg.n > 0,
            f"matrix dims must be positive: {cfg.m}, {cfg.l}, {cfg.n}")
    require(cfg.s > 0 and cfg.t > 0,
            f"grid dims must be positive: {cfg.s}x{cfg.t}")
    require(len(rows) >= 1 and len(rows) == len(cols) == len(blocks),
            f"{name}: row factors, column factors and blocks need one "
            "entry per level")
    require(min(rows + cols) >= 1 and math.prod(rows) == cfg.s
            and math.prod(cols) == cfg.t,
            f"{name}: level factors {rows} x {cols} do not multiply to "
            f"the {cfg.s}x{cfg.t} grid")
    for outer, inner in zip(blocks, blocks[1:]):
        require(inner <= outer,
                f"inner block {inner} must be <= outer block {outer} "
                "(paper Section III)")
        require_divides(inner, outer, f"{name}: inner block into outer block")
    require_divides(cfg.s, cfg.m, f"{name}: grid rows into C rows")
    require_divides(cfg.t, cfg.n, f"{name}: grid cols into C cols")
    require_divides(cfg.s, cfg.l, f"{name}: grid rows into inner dim")
    require_divides(cfg.t, cfg.l, f"{name}: grid cols into inner dim")
    # A pivot column (width `block`) must live on one grid column,
    # and the B pivot row on one grid row.
    require_divides(blocks[0], cfg.l // cfg.t,
                    f"{name}: block into A tile width")
    require_divides(blocks[0], cfg.l // cfg.s,
                    f"{name}: block into B tile height")


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
        check_levels(self, "SUMMA")

    @property
    def nsteps(self) -> int:
        return self.l // self.block

    @property
    def schedule(self) -> Levels:
        return Levels((self.s,), (self.t,), (self.block,), (self.bcast,))


def summa_program(ctx: MpiContext, a_tile: Any, b_tile: Any, cfg: Any) -> Gen:
    """Per-rank generator over ``cfg.schedule``; returns this rank's
    ``C`` tile.

    Each ``blocks[-1]``-wide step first broadcasts, at every level
    whose block boundary it starts (outermost first), the pivot panel
    of ``A`` along the level's row communicator and that of ``B`` along
    its column communicator; then it accumulates one gemm.  The grid
    (:class:`~repro.mpi.cart.CartComm` over the schedule's factors)
    says per level whether a rank joins, the root and the source; the
    source slices what the level above delivered (at the top, its own
    tile).  Span names follow the depth: ``bcast.row`` / ``bcast.col``
    per matrix at one level, else one ``bcast.inter`` /
    ``bcast.mid<q>`` / ``bcast.intra`` span per level.
    """
    rows, cols, blocks, bcasts = cfg.schedule
    h = len(blocks)
    flat = h == 1
    grid = CartComm(ctx.world, cfg.s, cfg.t, rows, cols)
    trace = ctx.trace
    a_w, b_h = cfg.l // cfg.t, cfg.l // cfg.s
    a_held, b_held = [a_tile] + [None] * h, [b_tile] + [None] * h
    c_tile = c_accumulator(a_tile, b_tile, cfg)
    for g0 in range(0, cfg.l, blocks[-1]):
        oc, orow = g0 // a_w, g0 // b_h
        for q, block in enumerate(blocks):
            if g0 % block:
                continue  # not at a level-q block boundary
            if trace:
                yield from _span(ctx, blocks, q, g0, "A")
            comm, root, source = grid.leg(q, 0, oc)
            if comm is not None:
                a = None
                if source:
                    off = g0 % (blocks[q - 1] if q else a_w)
                    a = slice_cols(a_held[q], off, off + block)
                a_held[q + 1] = yield from comm.bcast(
                    a, root=root, algorithm=bcasts[q])
            if trace and flat:
                yield from ctx.end_span()
                yield from _span(ctx, blocks, q, g0, "B")
            comm, root, source = grid.leg(q, 1, orow)
            if comm is not None:
                b = None
                if source:
                    off = g0 % (blocks[q - 1] if q else b_h)
                    b = slice_rows(b_held[q], off, off + block)
                b_held[q + 1] = yield from comm.bcast(
                    b, root=root, algorithm=bcasts[q])
            if trace:
                yield from ctx.end_span()

        if trace:
            yield from _span(ctx, blocks, h, g0, None)
        c_tile = yield from local_gemm_acc(ctx, c_tile, a_held[h], b_held[h])
        if trace:
            yield from ctx.end_span()
    return c_tile


def _span(ctx: MpiContext, blocks: tuple[int, ...], q: int, g0: int,
          matrix: str | None) -> Any:
    """Open the span around level ``q``'s broadcast of ``matrix``
    (``q = h``: the gemm) at the step starting at ``g0``.  One level
    names each matrix's broadcast (SUMMA), more name each level
    (HSUMMA's ``bcast.inter`` / ``bcast.intra``)."""
    h, top = len(blocks), blocks[0]
    if h == 1:
        if q == h:
            return ctx.span("gemm", step=g0 // top)
        return ctx.span("bcast.row" if matrix == "A" else "bcast.col",
                        step=g0 // top, matrix=matrix)
    name = ("gemm" if q == h else "bcast.inter" if q == 0
            else "bcast.intra" if q == h - 1 else f"bcast.mid{q}")
    if q == 0:
        return ctx.span(name, step=g0 // top)
    return ctx.span(name, step=g0 // top, inner_step=g0 % top // blocks[-1])


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


def refuse_overlap_bcast(family: str, shape: Shape, *fields: str) -> None:
    """Reject a broadcast-algorithm field on a lookahead shape by name:
    the lookahead always runs the split-phase binomial tree
    (:class:`~repro.collectives.nonblocking.IBcast`), so the field
    would be dropped silently."""
    for name in fields:
        if shape.overlap and getattr(shape, name) is not None:
            raise ConfigurationError(
                f"{family} with overlap=True does not take {name}=; the "
                "lookahead always runs the split-phase binomial broadcast")


def _configure(m: int, l: int, n: int,
               shape: Shape) -> tuple[Shape, SummaConfig]:
    shape = shape.resolve("summa", l, "block", "bcast", "segments", "overlap")
    refuse_overlap_bcast("summa", shape, "bcast")
    return shape, SummaConfig(m=m, l=l, n=n, s=shape.s, t=shape.t,
                              block=shape.block, bcast=shape.bcast)


def symmetry(cfg: Any) -> Any:
    """The collapse declaration of a level-scheduled run."""
    rows, cols, _, _ = cfg.schedule
    return collapse().summa_symmetry(cfg.s, cfg.t, rows, cols)


SUMMA = AlgorithmSpec(
    name="summa",
    display="summa",
    program=summa_program,
    symmetry=symmetry,
    predict=predict_summa,
    configure=_configure,
    overlap="repro.core.overlap:SUMMA_OVERLAP",
)
