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
  pivots without stalling their own compute.

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
from repro.core.hsumma import HSUMMA, HSummaConfig
from repro.core.launch import AlgorithmSpec, launch, product_dims, Shape
from repro.core.summa import SummaConfig, c_accumulator
from repro.mpi.cart import CartComm, GroupedCartComm
from repro.mpi.comm import MpiContext
from repro.simulator.tracing import SimResult

Gen = Generator[Any, Any, Any]


def summa_overlap_program(
    ctx: MpiContext, a_tile: Any, b_tile: Any, cfg: SummaConfig
) -> Gen:
    """SUMMA with one-step lookahead; returns this rank's ``C`` tile.

    Equivalent arithmetic to :func:`repro.core.summa.summa_program`
    (tests assert identical results); only the schedule differs.
    """
    grid = CartComm(ctx.world, cfg.s, cfg.t)
    i, j = grid.row, grid.col
    a_tile_cols = cfg.l // cfg.t
    b_tile_rows = cfg.l // cfg.s
    c_tile = c_accumulator(a_tile, b_tile, cfg)

    def pivot_sources(k: int) -> tuple[int, Any, int, Any]:
        """(owner_col, a_slice_or_None, owner_row, b_slice_or_None)."""
        g0 = k * cfg.block
        owner_col = g0 // a_tile_cols
        owner_row = g0 // b_tile_rows
        a_src = None
        if j == owner_col:
            c0 = g0 % a_tile_cols
            a_src = slice_cols(a_tile, c0, c0 + cfg.block)
        b_src = None
        if i == owner_row:
            r0 = g0 % b_tile_rows
            b_src = slice_rows(b_tile, r0, r0 + cfg.block)
        return owner_col, a_src, owner_row, b_src

    seg = ctx.options.bcast_segments

    def make_step(k: int) -> tuple[IBcast, IBcast]:
        owner_col, _, owner_row, _ = pivot_sources(k)
        return (
            IBcast(grid.row_comm, owner_col, tag_salt=2 * k, segments=seg),
            IBcast(grid.col_comm, owner_row, tag_salt=2 * k + 1, segments=seg),
        )

    # Prime the pipeline: post step 0's receives.
    cur = make_step(0)
    yield from cur[0].post()
    yield from cur[1].post()

    pending: list[IBcast] = []
    for k in range(cfg.nsteps):
        _, a_src, _, b_src = pivot_sources(k)
        a_piv = yield from cur[0].complete(a_src)
        b_piv = yield from cur[1].complete(b_src)
        pending.extend(cur)
        if k + 1 < cfg.nsteps:
            nxt = make_step(k + 1)
            yield from nxt[0].post()
            yield from nxt[1].post()
        else:
            nxt = None
        # The gemm overlaps with step k+1's transfers: our irecvs are
        # posted, the owners isend right after their own forwarding.
        c_tile = yield from local_gemm_acc(ctx, c_tile, a_piv, b_piv)
        if nxt is not None:
            cur = nxt
        # Retire old forward-send handles occasionally (keeps the
        # handle list bounded without synchronising the pipeline).
        if len(pending) > 8:
            retire, pending = pending[:-4], pending[-4:]
            for bc in retire:
                yield from bc.finish()

    for bc in pending:
        yield from bc.finish()
    return c_tile


def hsumma_overlap_program(
    ctx: MpiContext, a_tile: Any, b_tile: Any, cfg: HSummaConfig
) -> Gen:
    """HSUMMA with lookahead at both hierarchy levels.

    * inner pivots for global step ``q+1`` are pre-posted before the
      gemm of step ``q`` (as in :func:`summa_overlap_program`);
    * the *outer* block for outer step ``K+1`` is prefetched while the
      inner steps of block ``K`` run, hiding the between-groups
      broadcast behind an entire outer block of computation.
    """
    grid = GroupedCartComm(ctx.world, cfg.s, cfg.t, cfg.I, cfg.J)
    si, tj = cfg.inner_s, cfg.inner_t
    x, ii, y, jj = grid.x, grid.ii, grid.y, grid.jj
    outer_row, outer_col = grid.outer_row, grid.outer_col
    inner_row, inner_col = grid.inner_row, grid.inner_col

    a_tile_cols = cfg.l // cfg.t
    b_tile_rows = cfg.l // cfg.s
    c_tile = c_accumulator(a_tile, b_tile, cfg)

    def outer_owner(K: int) -> tuple[int, int, int, int]:
        g0 = K * cfg.outer_block
        yk, jk = divmod(g0 // a_tile_cols, tj)
        xk, ik = divmod(g0 // b_tile_rows, si)
        return yk, jk, xk, ik

    seg = ctx.options.bcast_segments

    def make_outer(K: int) -> tuple[IBcast | None, IBcast | None]:
        yk, jk, xk, ik = outer_owner(K)
        oa = (IBcast(outer_row, yk, tag_salt=K, segments=seg)
              if jj == jk else None)
        ob = (IBcast(outer_col, xk, tag_salt=K, segments=seg)
              if ii == ik else None)
        return oa, ob

    def post_outer(pair) -> Gen:
        for bc in pair:
            if bc is not None:
                yield from bc.post()

    def make_inner(q: int, jk: int, ik: int) -> tuple[IBcast, IBcast]:
        return (
            IBcast(inner_row, jk, tag_salt=q, segments=seg),
            IBcast(inner_col, ik, tag_salt=q, segments=seg),
        )

    # Prime: post outer 0 and (after completing it at K=0 below) inner 0.
    cur_outer = make_outer(0)
    yield from post_outer(cur_outer)

    pending: list[IBcast] = []
    a_outer = b_outer = None
    cur_inner: tuple[IBcast, IBcast] | None = None
    total_steps = cfg.outer_steps * cfg.inner_steps

    for q in range(total_steps):
        K, kk = divmod(q, cfg.inner_steps)
        yk, jk, xk, ik = outer_owner(K)
        g0 = K * cfg.outer_block

        if kk == 0:
            # Complete this block's outer broadcasts; prefetch the next.
            oa, ob = cur_outer
            if oa is not None:
                src = None
                if y == yk:
                    c0 = g0 % a_tile_cols
                    src = slice_cols(a_tile, c0, c0 + cfg.outer_block)
                a_outer = yield from oa.complete(src)
                pending.append(oa)
            if ob is not None:
                src = None
                if x == xk:
                    r0 = g0 % b_tile_rows
                    src = slice_rows(b_tile, r0, r0 + cfg.outer_block)
                b_outer = yield from ob.complete(src)
                pending.append(ob)
            if K + 1 < cfg.outer_steps:
                cur_outer = make_outer(K + 1)
                yield from post_outer(cur_outer)
            if cur_inner is None:
                cur_inner = make_inner(q, jk, ik)
                yield from cur_inner[0].post()
                yield from cur_inner[1].post()

        off = kk * cfg.inner_block
        a_src = slice_cols(a_outer, off, off + cfg.inner_block) if jj == jk else None
        b_src = slice_rows(b_outer, off, off + cfg.inner_block) if ii == ik else None
        a_piv = yield from cur_inner[0].complete(a_src)
        b_piv = yield from cur_inner[1].complete(b_src)
        pending.extend(cur_inner)

        if q + 1 < total_steps:
            K1, _ = divmod(q + 1, cfg.inner_steps)
            _, jk1, _, ik1 = outer_owner(K1)
            nxt = make_inner(q + 1, jk1, ik1)
            yield from nxt[0].post()
            yield from nxt[1].post()
        else:
            nxt = None

        c_tile = yield from local_gemm_acc(ctx, c_tile, a_piv, b_piv)
        cur_inner = nxt

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
    program=summa_overlap_program,
    refusal=_OVERLAP_REFUSAL,
)

HSUMMA_OVERLAP = AlgorithmSpec(
    name="hsumma-overlap",
    display="a hsumma-overlap run",
    program=hsumma_overlap_program,
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
    :func:`repro.core.hsumma.run_hsumma` (``**run``: the shared options
    of :func:`repro.core.launch.launch`).  ``bcast_segments`` streams
    each split-phase broadcast in that many pipeline stages (see
    :class:`repro.collectives.nonblocking.IBcast`)."""
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
    :func:`repro.core.summa.run_summa` (``**run``: the shared options
    of :func:`repro.core.launch.launch`).  ``bcast_segments`` streams
    each split-phase broadcast in that many pipeline stages (see
    :class:`repro.collectives.nonblocking.IBcast`)."""
    s, t = grid
    m, l, n = product_dims(A, B)
    cfg = SummaConfig(m=m, l=l, n=n, s=s, t=t, block=block)
    return launch(SUMMA_OVERLAP, cfg, A, B, **run)
