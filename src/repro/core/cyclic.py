"""SUMMA and HSUMMA over block-cyclic distributed matrices.

The paper's conclusions name the block-cyclic distribution as its main
future work: "we believe that by using block-cyclic distribution the
communication can be better overlapped and parallelized and thus the
communication cost can be reduced even further."

With the ScaLAPACK-style cyclic layout, global block column ``k`` of
``A`` lives on grid column ``k mod t`` — the broadcast *root rotates
every step* instead of serving ``l/(t*b)`` consecutive steps.  Two
consequences this module lets you measure:

* under the lookahead schedule (``overlap=True``) successive steps'
  broadcasts originate from different owners, so the injection load
  spreads across the grid and the pipeline fills without a hot root;
* the hierarchical (HSUMMA-style) variant splits each rotating
  broadcast into a between-groups phase and a within-group phase,
  keeping the paper's latency collapse while the ownership churns.

Since consecutive block columns never share an owner, the hierarchical
variant cannot amortise an outer block wider than one distribution
block — it is the ``b = B`` special case of HSUMMA, applied per
rotating pivot (see DESIGN.md).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Generator

from repro.blocks.distribution import BlockCyclicDistribution
from repro.blocks.ops import local_gemm_acc, slice_cols, slice_rows
from repro.collectives.nonblocking import IBcast
from repro.core.grouping import arrange_groups
from repro.core.launch import (
    AlgorithmSpec,
    collapse,
    GridLayout,
    launch,
    product_dims,
    Shape,
)
from repro.core.summa import c_accumulator
from repro.errors import ConfigurationError
from repro.mpi.cart import CartComm, group_levels
from repro.mpi.comm import MpiContext
from repro.simulator.predictor import predict_cyclic
from repro.simulator.tracing import SimResult
from repro.util.validation import require, require_divides

Gen = Generator[Any, Any, Any]


@dataclasses.dataclass(frozen=True)
class CyclicConfig:
    """Parameters of a block-cyclic SUMMA/HSUMMA run.

    ``C = A @ B`` with ``A (m, l)``, ``B (l, n)``; grid ``s x t``;
    distribution block ``nb`` (square blocks, also the pivot width);
    optional group grid ``I x J`` for the hierarchical variant
    (``I = J = 1`` means plain cyclic SUMMA).
    """

    m: int
    l: int
    n: int
    s: int
    t: int
    nb: int
    I: int = 1
    J: int = 1

    def __post_init__(self) -> None:
        require(self.m > 0 and self.l > 0 and self.n > 0,
                f"matrix dims must be positive: {self.m}, {self.l}, {self.n}")
        require(self.s > 0 and self.t > 0,
                f"grid dims must be positive: {self.s}x{self.t}")
        require_divides(self.nb * self.s, self.m, "cyclic: rows of A/C")
        require_divides(self.nb * self.t, self.n, "cyclic: cols of B/C")
        require_divides(self.nb * self.s, self.l, "cyclic: rows of B")
        require_divides(self.nb * self.t, self.l, "cyclic: cols of A")
        require_divides(self.I, self.s, "cyclic: group rows into grid rows")
        require_divides(self.J, self.t, "cyclic: group cols into grid cols")

    @property
    def nsteps(self) -> int:
        """Global block count along the inner dimension."""
        return self.l // self.nb

    @property
    def hierarchical(self) -> bool:
        return self.I * self.J > 1

    def dist(self, rows: int, cols: int) -> BlockCyclicDistribution:
        return BlockCyclicDistribution(rows, cols, self.s, self.t,
                                       self.nb, self.nb)


def _local_pivot_a(a_tile: Any, cfg: CyclicConfig, k: int) -> Any:
    """Local columns of global block column ``k`` (owner side)."""
    lb = k // cfg.t
    return slice_cols(a_tile, lb * cfg.nb, (lb + 1) * cfg.nb)


def _local_pivot_b(b_tile: Any, cfg: CyclicConfig, k: int) -> Any:
    lb = k // cfg.s
    return slice_rows(b_tile, lb * cfg.nb, (lb + 1) * cfg.nb)


HIERARCHICAL_OVERLAP = (
    "overlap is implemented for the flat cyclic variant; the "
    "hierarchical+overlap combination is exercised through "
    "repro.core.overlap at block granularity"
)


def cyclic_summa_program(
    ctx: MpiContext, a_tile: Any, b_tile: Any, cfg: CyclicConfig,
    *, overlap: bool = False,
) -> Gen:
    """Block-cyclic (H)SUMMA generator; returns this rank's packed tile.

    With ``cfg.I * cfg.J > 1`` each pivot broadcast is performed in two
    phases (between groups, then within the group); with ``overlap``
    the next step's broadcasts are pre-posted before the gemm.
    """
    grid = CartComm(ctx.world, cfg.s, cfg.t,
                    *group_levels(cfg.s, cfg.t, cfg.I, cfg.J))
    i, j = grid.row, grid.col

    c_tile = c_accumulator(a_tile, b_tile, cfg)

    def owners(k: int) -> tuple[int, int]:
        """Grid column owning A's block col k; grid row owning B's."""
        return k % cfg.t, k % cfg.s

    def pivots(k: int) -> tuple[Any, Any]:
        """This rank's share of step ``k``'s pivots (None off owner)."""
        oc, orow = owners(k)
        return (_local_pivot_a(a_tile, cfg, k) if j == oc else None,
                _local_pivot_b(b_tile, cfg, k) if i == orow else None)

    nsteps = cfg.nsteps

    if not overlap:
        for k in range(nsteps):
            oc, orow = owners(k)
            a_piv, b_piv = pivots(k)
            a_piv = yield from grid.bcast_row(a_piv, oc)
            b_piv = yield from grid.bcast_col(b_piv, orow)
            c_tile = yield from local_gemm_acc(ctx, c_tile, a_piv, b_piv)
        return c_tile

    if cfg.hierarchical:
        raise ConfigurationError(HIERARCHICAL_OVERLAP)

    seg = ctx.options.bcast_segments

    def post(k: int) -> Gen:
        oc, orow = owners(k)
        pair = (IBcast(grid.row_comm, oc, tag_salt=k, segments=seg),
                IBcast(grid.col_comm, orow, tag_salt=k, segments=seg))
        yield from pair[0].post()
        yield from pair[1].post()
        return pair

    cur = yield from post(0)
    pending: list[IBcast] = []
    for k in range(nsteps):
        a_src, b_src = pivots(k)
        a_piv = yield from cur[0].complete(a_src)
        b_piv = yield from cur[1].complete(b_src)
        pending.extend(cur)
        if k + 1 < nsteps:
            cur = yield from post(k + 1)
        c_tile = yield from local_gemm_acc(ctx, c_tile, a_piv, b_piv)
        if len(pending) > 8:
            retire, pending = pending[:-4], pending[-4:]
            for bc in retire:
                yield from bc.finish()
    for bc in pending:
        yield from bc.finish()
    return c_tile


def run_cyclic(
    A: Any,
    B: Any,
    *,
    grid: tuple[int, int],
    nb: int,
    groups: tuple[int, int] = (1, 1),
    overlap: bool = False,
    **run: Any,
) -> tuple[Any, SimResult]:
    """Multiply block-cyclic ``A @ B``; returns ``(C, SimResult)``.

    ``groups=(I, J)`` enables the hierarchical (HSUMMA-style) two-phase
    broadcast; ``overlap=True`` enables one-step lookahead (flat
    variant).  ``**run`` are the shared run options documented on
    :func:`repro.core.launch.launch`.
    """
    s, t = grid
    I, J = groups
    m, l, n = product_dims(A, B)
    cfg = CyclicConfig(m=m, l=l, n=n, s=s, t=t, nb=nb, I=I, J=J)
    return launch(CYCLIC_OVERLAP if overlap else CYCLIC, cfg, A, B, **run)


def _overlap_program(ctx: MpiContext, a_tile: Any, b_tile: Any,
                     cfg: CyclicConfig) -> Gen:
    return cyclic_summa_program(ctx, a_tile, b_tile, cfg, overlap=True)


def _layout(cfg: CyclicConfig) -> GridLayout:
    return GridLayout(cfg.s, cfg.t, distribution=cfg.dist)


def _configure(m: int, l: int, n: int,
               shape: Shape) -> tuple[Shape, CyclicConfig]:
    shape = shape.resolve("cyclic", l, "block", "groups", "overlap")
    # Flat (plain cyclic SUMMA) unless a group grid is asked for.
    I, J = arrange_groups(shape.s, shape.t, shape.groups or (1, 1))
    if shape.overlap and (I, J) != (1, 1):
        raise ConfigurationError(HIERARCHICAL_OVERLAP)
    shape = dataclasses.replace(shape, groups=(I, J))
    return shape, CyclicConfig(m=m, l=l, n=n, s=shape.s, t=shape.t,
                               nb=shape.block, I=I, J=J)


CYCLIC = AlgorithmSpec(
    name="cyclic",
    display="cyclic",
    program=cyclic_summa_program,
    layout=_layout,
    symmetry=lambda cfg: collapse().cyclic_symmetry(cfg.s, cfg.t, cfg.I, cfg.J),
    predict=predict_cyclic,
    configure=_configure,
    overlap="repro.core.cyclic:CYCLIC_OVERLAP",
)

#: The lookahead schedule runs split-phase broadcasts through the
#: point-to-point machinery, which neither the collapse nor the
#: predictor can cover — no symmetry keeps it on the per-rank path
#: outright.
CYCLIC_OVERLAP = AlgorithmSpec(
    name="cyclic",
    display="cyclic",
    program=_overlap_program,
    layout=_layout,
    refusal=(
        "overlap",
        "the split-phase schedule posts broadcasts through the "
        "point-to-point machinery and has no closed form",
        "backend='des' or backend='macro'",
    ),
)
