"""Communication/computation overlap for SUMMA and HSUMMA.

The paper's conclusions point out that all reported gains come
*without* overlapping communication and computation, and name overlap
as a further improvement.  This module implements the classic
one-step-lookahead scheme on top of the split-phase broadcast
(:mod:`repro.collectives.nonblocking`):

* before computing the rank-``b`` update for step ``k``, every rank
  pre-posts the receives for step ``k+1``'s pivot column and row;
* the owners inject step ``k+1``'s panels as soon as their step-``k``
  forwarding is done, so the transfers progress *while* every rank is
  inside its gemm;
* tree forwarding is nonblocking, so interior ranks relay the next
  pivots without stalling their own compute;
* over a hierarchy (HSUMMA) every outer level posts its next block's
  broadcast as soon as the current one completes, hiding the
  between-groups transfer behind a whole block of inner steps.

One program (:func:`lookahead_program`) runs this over a config's
level schedule, so SUMMA (one level) and HSUMMA (two) share it.

In the limit where per-step communication and computation are
comparable, the virtual makespan drops from ``comm + compute`` towards
``max(comm, compute)`` — which the ablation benchmark measures.

SUMMA's pivot panels never depend on gemm results (they are slices of
the *input* matrices), so lookahead depth 1 is enough to hide one full
step of communication; deeper lookahead only adds buffer memory.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.blocks.ops import local_gemm_acc, slice_cols, slice_rows
from repro.collectives.nonblocking import IBcast
from repro.core.hsumma import HSUMMA
from repro.core.launch import AlgorithmSpec, launch, product_dims, Shape
from repro.core.summa import SummaConfig, c_accumulator
from repro.mpi.cart import CartComm
from repro.mpi.comm import MpiContext
from repro.simulator.tracing import SimResult

Gen = Generator[Any, Any, Any]


def lookahead_program(
    ctx: MpiContext, a_tile: Any, b_tile: Any, cfg: Any
) -> Gen:
    """SUMMA over ``cfg.schedule`` with lookahead; returns this rank's
    ``C`` tile.

    The arithmetic of :func:`repro.core.summa.summa_program` over the
    same schedule and grid legs (:meth:`~repro.mpi.cart.CartComm.leg`);
    only the schedule differs.  At each level's block boundary the rank
    completes that level's split-phase broadcasts and posts the next
    block's, so an outer level hides behind a whole block of steps and
    the innermost, pre-posted one step ahead, behind the gemm.  Tag
    salts are the level's block index (``2k`` / ``2k + 1`` for the row
    / column broadcast of step ``k`` at one level); tags feed the fault
    schedule's drop decisions, so the salts are part of the behaviour.
    """
    rows, cols, blocks, _ = cfg.schedule
    h = len(blocks)
    grid = CartComm(ctx.world, cfg.s, cfg.t, rows, cols)
    seg = ctx.options.bcast_segments
    # Per matrix (row broadcast of A, column broadcast of B): the tile
    # extent along the pivot and the slicer.
    axes = ((cfg.l // cfg.t, slice_cols), (cfg.l // cfg.s, slice_rows))
    held = ([a_tile] + [None] * h, [b_tile] + [None] * h)

    def post(q: int, g0: int) -> Gen:
        """Post level ``q``'s broadcasts of the block starting at
        ``g0``; returns ``(axis, IBcast, source)`` for those this rank
        joins."""
        k = g0 // blocks[q]
        joined = []
        for x, (extent, _) in enumerate(axes):
            comm, root, source = grid.leg(q, x, g0 // extent)
            if comm is not None:
                bc = IBcast(comm, root, tag_salt=2 * k + x if h == 1 else k,
                            segments=seg)
                yield from bc.post()
                joined.append((x, bc, source))
        return joined

    c_tile = c_accumulator(a_tile, b_tile, cfg)
    posted: list = [None] * h
    pending: list[IBcast] = []
    for g0 in range(0, cfg.l, blocks[-1]):
        for q, block in enumerate(blocks):
            if g0 % block:
                continue  # not at a level-q block boundary
            if posted[q] is None:
                posted[q] = yield from post(q, g0)
            for x, bc, source in posted[q]:
                part = None
                if source:
                    extent, cut = axes[x]
                    off = g0 % (blocks[q - 1] if q else extent)
                    part = cut(held[x][q], off, off + block)
                held[x][q + 1] = yield from bc.complete(part)
                pending.append(bc)
            posted[q] = ((yield from post(q, g0 + block))
                         if g0 + block < cfg.l else None)
        # The gemm overlaps with the posted transfers: our irecvs are
        # up, the owners isend right after their own forwarding.
        c_tile = yield from local_gemm_acc(ctx, c_tile, held[0][h],
                                           held[1][h])
        # Retire old forward-send handles occasionally (keeps the
        # handle list bounded without synchronising the pipeline).
        if len(pending) > 8:
            retire, pending = pending[:-4], pending[-4:]
            for bc in retire:
                yield from bc.finish()

    for bc in pending:
        yield from bc.finish()
    return c_tile


#: The overlap schedules hide transfers behind the gemm through the
#: point-to-point machinery; the predictor's serial phase chain has no
#: model for that, so it refuses by name instead of silently pricing
#: the bulk-synchronous schedule (and the collapse cannot cover them).
_OVERLAP_REFUSAL = (
    "overlap",
    "the lookahead schedule hides transfers behind the gemm and "
    "the phase chain prices phases serially",
    "backend='des' (exact schedule) or backend='macro'",
)

SUMMA_OVERLAP = AlgorithmSpec(
    name="summa-overlap",
    display="a summa-overlap run",
    program=lookahead_program,
    refusal=_OVERLAP_REFUSAL,
)

HSUMMA_OVERLAP = AlgorithmSpec(
    name="hsumma-overlap",
    display="a hsumma-overlap run",
    program=lookahead_program,
    refusal=_OVERLAP_REFUSAL,
)


def run_hsumma_overlap(
    A: Any,
    B: Any,
    *,
    grid: tuple[int, int],
    groups: int | tuple[int, int],
    outer_block: int,
    inner_block: int | None = None,
    **run: Any,
) -> tuple[Any, SimResult]:
    """Overlapped HSUMMA; same contract as
    :func:`repro.core.hsumma.run_hsumma` but for the broadcast
    overrides (see :func:`run_summa_overlap`)."""
    s, t = grid
    _, cfg = HSUMMA.configure(*product_dims(A, B), Shape(
        s=s, t=t, groups=groups, block=outer_block, inner_block=inner_block))
    return launch(HSUMMA_OVERLAP, cfg, A, B, **run)


def run_summa_overlap(
    A: Any,
    B: Any,
    *,
    grid: tuple[int, int],
    block: int,
    **run: Any,
) -> tuple[Any, SimResult]:
    """Overlapped SUMMA; same contract as
    :func:`repro.core.summa.run_summa` but for ``bcast``: the lookahead
    always runs the split-phase binomial tree, which the shared option
    ``bcast_segments`` streams in that many pipeline stages."""
    s, t = grid
    m, l, n = product_dims(A, B)
    cfg = SummaConfig(m=m, l=l, n=n, s=s, t=t, block=block)
    return launch(SUMMA_OVERLAP, cfg, A, B, **run)
