"""HSUMMA — Hierarchical SUMMA, the paper's contribution.

The ``s x t`` grid is partitioned into an ``I x J`` grid of groups,
each an ``(s/I) x (t/J)`` inner grid.  Every SUMMA broadcast is split
into two phases (paper Section III, Algorithm 1):

1. **Outer phase** (once per ``B``-wide outer block): the owners of the
   pivot block column of ``A`` broadcast it *across groups* along the
   grid row — i.e. to the rank with the same inner coordinates in each
   other group — and symmetrically for the pivot block row of ``B``
   down the grid column.
2. **Inner phase** (``B/b`` steps per outer block): inside every group,
   plain SUMMA broadcasts of ``b``-wide slices of the received outer
   block along the inner row/column communicators, followed by the
   local gemm update.

With ``G = 1`` or ``G = p`` HSUMMA degenerates to SUMMA (the paper's
worst-case guarantee); tests assert both identities in data and time.

The multi-level generalisation the paper leaves as future work is
implemented in :func:`hsumma_multilevel_program`: the broadcast is
split across ``h`` nested levels of grouping rather than two.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Generator, Sequence

from repro.blocks.ops import local_gemm_acc, slice_cols, slice_rows
from repro.core.grouping import arrange_groups, default_group_count
from repro.core.launch import (
    AlgorithmSpec,
    collapse,
    launch,
    product_dims,
    Shape,
)
from repro.core.summa import c_accumulator
from repro.mpi.cart import CartComm, GroupedCartComm
from repro.mpi.comm import MpiContext
from repro.simulator.predictor import predict_hsumma
from repro.simulator.tracing import SimResult
from repro.util.validation import require, require_divides

Gen = Generator[Any, Any, Any]


@dataclasses.dataclass(frozen=True)
class HSummaConfig:
    """Static parameters of an HSUMMA run.

    ``C = A @ B`` with ``A`` of shape ``(m, l)``, ``B`` of shape
    ``(l, n)``; grid ``s x t``; group grid ``I x J``; outer block
    ``outer_block`` (the paper's ``B``) and inner block ``inner_block``
    (the paper's ``b``, with ``b <= B`` and ``b | B``).
    """

    m: int
    l: int
    n: int
    s: int
    t: int
    I: int
    J: int
    outer_block: int
    inner_block: int
    outer_bcast: str | None = None  # override for between-group broadcasts
    inner_bcast: str | None = None  # override for within-group broadcasts

    def __post_init__(self) -> None:
        require(self.m > 0 and self.l > 0 and self.n > 0,
                f"matrix dims must be positive: {self.m}, {self.l}, {self.n}")
        require(self.s > 0 and self.t > 0,
                f"grid dims must be positive: {self.s}x{self.t}")
        require_divides(self.I, self.s, "HSUMMA: group rows into grid rows")
        require_divides(self.J, self.t, "HSUMMA: group cols into grid cols")
        require_divides(self.s, self.m, "HSUMMA: grid rows into C rows")
        require_divides(self.t, self.n, "HSUMMA: grid cols into C cols")
        require_divides(self.s, self.l, "HSUMMA: grid rows into inner dim")
        require_divides(self.t, self.l, "HSUMMA: grid cols into inner dim")
        require(self.inner_block <= self.outer_block,
                f"inner block {self.inner_block} must be <= outer block "
                f"{self.outer_block} (paper Section III)")
        require_divides(self.inner_block, self.outer_block,
                        "HSUMMA: inner block into outer block")
        require_divides(self.outer_block, self.l // self.t,
                        "HSUMMA: outer block into A tile width")
        require_divides(self.outer_block, self.l // self.s,
                        "HSUMMA: outer block into B tile height")

    @property
    def groups(self) -> int:
        return self.I * self.J

    @property
    def inner_s(self) -> int:
        """Rows of the within-group grid (``s / I``)."""
        return self.s // self.I

    @property
    def inner_t(self) -> int:
        """Columns of the within-group grid (``t / J``)."""
        return self.t // self.J

    @property
    def outer_steps(self) -> int:
        return self.l // self.outer_block

    @property
    def inner_steps(self) -> int:
        return self.outer_block // self.inner_block


def hsumma_program(
    ctx: MpiContext, a_tile: Any, b_tile: Any, cfg: HSummaConfig
) -> Gen:
    """Per-rank HSUMMA generator; returns this rank's ``C`` tile.

    Follows the paper's Algorithm 1: the rank at grid position
    ``(i, j)`` is processor ``P(x,y)(ii,jj)`` with group coordinates
    ``(x, y) = (i // (s/I), j // (t/J))`` and inner coordinates
    ``(ii, jj) = (i % (s/I), j % (t/J))``.
    """
    grid = GroupedCartComm(ctx.world, cfg.s, cfg.t, cfg.I, cfg.J)
    si, tj = cfg.inner_s, cfg.inner_t
    x, ii, y, jj = grid.x, grid.ii, grid.y, grid.jj
    outer_row, outer_col = grid.outer_row, grid.outer_col
    inner_row, inner_col = grid.inner_row, grid.inner_col

    a_tile_cols = cfg.l // cfg.t
    b_tile_rows = cfg.l // cfg.s
    c_tile = c_accumulator(a_tile, b_tile, cfg)

    for K in range(cfg.outer_steps):
        g0 = K * cfg.outer_block

        # --- outer (between-groups) broadcasts: the paper's phase 1 ---
        yield from ctx.span("bcast.inter", step=K)
        owner_grid_col = g0 // a_tile_cols
        yk, jk = divmod(owner_grid_col, tj)
        a_outer = None
        if jj == jk:
            if y == yk:
                c0 = g0 % a_tile_cols
                a_outer = slice_cols(a_tile, c0, c0 + cfg.outer_block)
            a_outer = yield from outer_row.bcast(
                a_outer, root=yk, algorithm=cfg.outer_bcast
            )

        owner_grid_row = g0 // b_tile_rows
        xk, ik = divmod(owner_grid_row, si)
        b_outer = None
        if ii == ik:
            if x == xk:
                r0 = g0 % b_tile_rows
                b_outer = slice_rows(b_tile, r0, r0 + cfg.outer_block)
            b_outer = yield from outer_col.bcast(
                b_outer, root=xk, algorithm=cfg.outer_bcast
            )
        yield from ctx.end_span()

        # --- inner SUMMA over the outer block: the paper's phase 2 ---
        for kk in range(cfg.inner_steps):
            off = kk * cfg.inner_block
            yield from ctx.span("bcast.intra", step=K, inner_step=kk)
            a_piv = None
            if jj == jk:
                a_piv = slice_cols(a_outer, off, off + cfg.inner_block)
            a_piv = yield from inner_row.bcast(
                a_piv, root=jk, algorithm=cfg.inner_bcast
            )
            b_piv = None
            if ii == ik:
                b_piv = slice_rows(b_outer, off, off + cfg.inner_block)
            b_piv = yield from inner_col.bcast(
                b_piv, root=ik, algorithm=cfg.inner_bcast
            )
            yield from ctx.end_span()
            yield from ctx.span("gemm", step=K, inner_step=kk)
            c_tile = yield from local_gemm_acc(ctx, c_tile, a_piv, b_piv)
            yield from ctx.end_span()
    return c_tile


def run_hsumma(
    A: Any,
    B: Any,
    *,
    grid: tuple[int, int],
    groups: int | tuple[int, int],
    outer_block: int,
    inner_block: int | None = None,
    outer_bcast: str | None = None,
    inner_bcast: str | None = None,
    **run: Any,
) -> tuple[Any, SimResult]:
    """Multiply block-distributed ``A @ B`` with HSUMMA; returns
    ``(C, SimResult)``.

    ``groups`` is either the total group count ``G`` (the group grid is
    chosen by :func:`repro.core.grouping.choose_group_grid`) or an
    explicit ``(I, J)``.  ``inner_block`` defaults to ``outer_block``
    (the paper's experimental setting ``b = B``).
    ``outer_bcast``/``inner_bcast`` override the broadcast algorithm
    between / within groups.  ``**run`` are the shared run options
    documented on :func:`repro.core.launch.launch`
    (``bcast_segments`` applies to both hierarchy levels; with
    ``trace=True`` the result carries ``bcast.inter`` /
    ``bcast.intra`` / ``gemm`` phase spans).
    """
    s, t = grid
    _, cfg = _configure(*product_dims(A, B), Shape(
        s=s, t=t, groups=groups, block=outer_block, inner_block=inner_block,
        bcast=inner_bcast, outer_bcast=outer_bcast))
    return launch(HSUMMA, cfg, A, B, **run)


def _configure(m: int, l: int, n: int,
               shape: Shape) -> tuple[Shape, HSummaConfig]:
    shape = shape.resolve("hsumma", l, "block", "inner_block", "groups",
                          "bcast", "outer_bcast", "segments", "overlap")
    s, t = shape.s, shape.t
    I, J = arrange_groups(s, t, default_group_count(s, t)
                          if shape.groups is None else shape.groups)
    shape = dataclasses.replace(
        shape, groups=(I, J), inner_block=shape.inner_block or shape.block)
    return shape, HSummaConfig(
        m=m, l=l, n=n, s=s, t=t, I=I, J=J,
        outer_block=shape.block, inner_block=shape.inner_block,
        outer_bcast=shape.outer_bcast, inner_bcast=shape.bcast,
    )


HSUMMA = AlgorithmSpec(
    name="hsumma",
    display="hsumma",
    program=hsumma_program,
    symmetry=lambda cfg: collapse().hsumma_symmetry(
        cfg.s, cfg.t, cfg.I, cfg.J),
    predict=predict_hsumma,
    configure=_configure,
    overlap="repro.core.overlap:HSUMMA_OVERLAP",
)


# ---------------------------------------------------------------------------
# Multi-level extension (paper future work: "more than two levels")
# ---------------------------------------------------------------------------


def hsumma_multilevel_program(
    ctx: MpiContext,
    a_tile: Any,
    b_tile: Any,
    cfg: "MultiLevelConfig",
) -> Gen:
    """HSUMMA with ``h`` nested grouping levels.

    Level 0 is the between-top-level-groups phase; level ``h-1`` is the
    innermost grid.  The pivot block column/row is broadcast once per
    level, each level re-slicing its received block into the next
    level's block size, generalising the two-phase split of
    :func:`hsumma_program`.
    """
    world = ctx.world
    grid = CartComm(world, cfg.s, cfg.t)
    i, j = grid.row, grid.col

    # Per level: sizes of the *remaining* inner grid below that level.
    row_factors = cfg.row_factors  # I_0, I_1, ..., I_{h-1}; product == s
    col_factors = cfg.col_factors
    h = len(row_factors)

    # Decompose my coordinates level by level (mixed-radix digits).
    row_digits, col_digits = [], []
    ri, cj = i, j
    for lev in range(h):
        rbelow = _prod(row_factors[lev + 1 :])
        cbelow = _prod(col_factors[lev + 1 :])
        dr, ri = divmod(ri, rbelow)
        dc, cj = divmod(cj, cbelow)
        row_digits.append(dr)
        col_digits.append(dc)

    # Level communicators: at level `lev`, ranks sharing all digits
    # except the level-`lev` column digit form the horizontal comm (for
    # A), and symmetrically for the vertical comm (for B).
    def col_digit(r: int, lev: int) -> int:
        c = r % cfg.t
        for q in range(lev):
            c %= _prod(col_factors[q + 1 :])
        return c // _prod(col_factors[lev + 1 :])

    def row_digit(r: int, lev: int) -> int:
        c = r // cfg.t
        for q in range(lev):
            c %= _prod(row_factors[q + 1 :])
        return c // _prod(row_factors[lev + 1 :])

    h_comms = []
    v_comms = []
    for lev in range(h):
        h_comms.append(
            world.split_by(
                lambda r, lev=lev: (
                    r // cfg.t,
                    tuple(col_digit(r, q) for q in range(h) if q != lev),
                ),
                key_of=lambda r, lev=lev: col_digit(r, lev),
            )
        )
        v_comms.append(
            world.split_by(
                lambda r, lev=lev: (
                    r % cfg.t,
                    tuple(row_digit(r, q) for q in range(h) if q != lev),
                ),
                key_of=lambda r, lev=lev: row_digit(r, lev),
            )
        )

    a_tile_cols = cfg.l // cfg.t
    b_tile_rows = cfg.l // cfg.s
    blocks = cfg.blocks  # b_0 >= b_1 >= ... >= b_{h-1}
    c_tile = c_accumulator(a_tile, b_tile, cfg)

    # Recursive step structure flattened: iterate over the innermost
    # block index and broadcast at level `lev` whenever this index
    # crosses a level-`lev` block boundary.
    total_steps = cfg.l // blocks[-1]
    a_blocks: list[Any] = [None] * h
    b_blocks: list[Any] = [None] * h
    for step in range(total_steps):
        g0 = step * blocks[-1]

        owner_grid_col = g0 // a_tile_cols
        owner_grid_row = g0 // b_tile_rows
        # Digits of the owner position at each level.
        oc = owner_grid_col
        orw = owner_grid_row
        owner_col_digits, owner_row_digits = [], []
        for lev in range(h):
            cbelow = _prod(col_factors[lev + 1 :])
            rbelow = _prod(row_factors[lev + 1 :])
            d, oc = divmod(oc, cbelow)
            owner_col_digits.append(d)
            d, orw = divmod(orw, rbelow)
            owner_row_digits.append(d)

        for lev in range(h):
            if g0 % blocks[lev] != 0:
                continue  # not at a level-`lev` boundary
            if lev == 0 and h > 1:
                phase = "bcast.inter"
            elif lev == h - 1:
                phase = "bcast.intra"
            else:
                phase = f"bcast.mid{lev}"
            yield from ctx.span(phase, step=step, level=lev)
            width = blocks[lev]
            # A broadcast at this level: participants share my column
            # digits at deeper levels; I participate iff my digits below
            # `lev` match the owner's.
            # The source of a level-`lev` broadcast slices what the
            # level above delivered — at level 0, the input tile.
            if col_digits[lev + 1 :] == owner_col_digits[lev + 1 :]:
                src = None
                if col_digits[lev:] == owner_col_digits[lev:]:
                    held, extent = ((a_tile, a_tile_cols) if lev == 0 else
                                    (a_blocks[lev - 1], blocks[lev - 1]))
                    off = g0 % extent
                    src = slice_cols(held, off, off + width)
                a_blocks[lev] = yield from h_comms[lev].bcast(
                    src, root=owner_col_digits[lev], algorithm=cfg.bcast
                )
            if row_digits[lev + 1 :] == owner_row_digits[lev + 1 :]:
                src = None
                if row_digits[lev:] == owner_row_digits[lev:]:
                    held, extent = ((b_tile, b_tile_rows) if lev == 0 else
                                    (b_blocks[lev - 1], blocks[lev - 1]))
                    off = g0 % extent
                    src = slice_rows(held, off, off + width)
                b_blocks[lev] = yield from v_comms[lev].bcast(
                    src, root=owner_row_digits[lev], algorithm=cfg.bcast
                )
            yield from ctx.end_span()

        # The innermost broadcast delivered to everyone in the deepest
        # communicator; but ranks not on the owner's digit path at
        # deeper levels received nothing this step.
        a_piv = a_blocks[h - 1]
        b_piv = b_blocks[h - 1]
        yield from ctx.span("gemm", step=step)
        c_tile = yield from local_gemm_acc(ctx, c_tile, a_piv, b_piv)
        yield from ctx.end_span()
    return c_tile


def _prod(xs: Sequence[int]) -> int:
    out = 1
    for v in xs:
        out *= v
    return out


def run_hsumma_multilevel(
    A: Any,
    B: Any,
    *,
    grid: tuple[int, int],
    row_factors: tuple[int, ...],
    col_factors: tuple[int, ...],
    blocks: tuple[int, ...],
    bcast: str | None = None,
    **run: Any,
) -> tuple[Any, SimResult]:
    """Multiply with the multi-level hierarchy (h = len(factors) levels);
    same contract as :func:`run_hsumma` (``**run``: the shared options
    of :func:`repro.core.launch.launch`).

    ``h = 1`` is SUMMA, ``h = 2`` is HSUMMA; deeper hierarchies are the
    paper's future-work direction (see the multilevel ablation).
    """
    s, t = grid
    m, l, n = product_dims(A, B)
    cfg = MultiLevelConfig(
        m=m, l=l, n=n, s=s, t=t,
        row_factors=tuple(row_factors),
        col_factors=tuple(col_factors),
        blocks=tuple(blocks),
        bcast=bcast,
    )
    return launch(HSUMMA_MULTILEVEL, cfg, A, B, **run)


HSUMMA_MULTILEVEL = AlgorithmSpec(
    name="hsumma-multilevel",
    display="a multi-level HSUMMA run",
    program=hsumma_multilevel_program,
    symmetry=lambda cfg: collapse().multilevel_symmetry(
        cfg.s, cfg.t, cfg.row_factors, cfg.col_factors),
    refusal=(
        "level-recursive scheduling",
        "the h-level hierarchy nests per-level broadcast loops whose "
        "phase boundaries have no closed form beyond h=2 "
        "(run_hsumma covers that case)",
        "backend='macro' (symmetry-collapsed) for deep hierarchies",
    ),
)


@dataclasses.dataclass(frozen=True)
class MultiLevelConfig:
    """Parameters for multi-level HSUMMA.

    ``row_factors``/``col_factors`` are per-level grouping factors whose
    products equal ``s``/``t``; ``blocks`` are per-level block sizes,
    non-increasing, each dividing the previous.
    """

    m: int
    l: int
    n: int
    s: int
    t: int
    row_factors: tuple[int, ...]
    col_factors: tuple[int, ...]
    blocks: tuple[int, ...]
    bcast: str | None = None

    def __post_init__(self) -> None:
        h = len(self.row_factors)
        require(h >= 1, "need at least one level")
        require(len(self.col_factors) == h and len(self.blocks) == h,
                "row_factors, col_factors and blocks must have equal length")
        require(_prod(self.row_factors) == self.s,
                f"row factors {self.row_factors} do not multiply to s={self.s}")
        require(_prod(self.col_factors) == self.t,
                f"col factors {self.col_factors} do not multiply to t={self.t}")
        for lev in range(1, h):
            require(self.blocks[lev] <= self.blocks[lev - 1],
                    "blocks must be non-increasing per level")
            require_divides(self.blocks[lev], self.blocks[lev - 1],
                            "multi-level blocks")
        require_divides(self.s, self.m, "grid rows into C rows")
        require_divides(self.t, self.n, "grid cols into C cols")
        require_divides(self.s, self.l, "grid rows into inner dim")
        require_divides(self.t, self.l, "grid cols into inner dim")
        require_divides(self.blocks[0], self.l // self.t,
                        "top block into A tile width")
        require_divides(self.blocks[0], self.l // self.s,
                        "top block into B tile height")
