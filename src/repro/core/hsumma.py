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

That is SUMMA over a two-level schedule, so HSUMMA runs
:func:`repro.core.summa.summa_program` (exported here as
:data:`hsumma_program`).  With ``G = 1`` or ``G = p`` HSUMMA
degenerates to SUMMA (the paper's worst-case guarantee); tests assert
both identities in data and time.

The multi-level generalisation the paper leaves as future work is
the same program over ``h`` levels (:func:`run_hsumma_multilevel`).
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.core.grouping import arrange_groups, default_group_count
from repro.core.launch import AlgorithmSpec, launch, product_dims, Shape
from repro.core.summa import (
    check_levels,
    Levels,
    refuse_overlap_bcast,
    summa_program,
    symmetry,
)
from repro.simulator.predictor import predict_summa
from repro.simulator.tracing import SimResult
from repro.util.validation import require_divides

#: HSUMMA's rank program under its own name: SUMMA over the schedule.
hsumma_program = summa_program


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
        require_divides(self.I, self.s, "HSUMMA: group rows into grid rows")
        require_divides(self.J, self.t, "HSUMMA: group cols into grid cols")
        check_levels(self, "HSUMMA")

    @property
    def schedule(self) -> Levels:
        return Levels((self.I, self.inner_s), (self.J, self.inner_t),
                      (self.outer_block, self.inner_block),
                      (self.outer_bcast, self.inner_bcast))

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
    refuse_overlap_bcast("hsumma", shape, "outer_bcast", "bcast")
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
    program=summa_program,
    symmetry=symmetry,
    predict=predict_summa,
    configure=_configure,
    overlap="repro.core.overlap:HSUMMA_OVERLAP",
)


@dataclasses.dataclass(frozen=True)
class MultiLevelConfig:
    """Parameters for multi-level HSUMMA (paper future work: "more
    than two levels").

    ``row_factors``/``col_factors`` are per-level grouping factors whose
    products equal ``s``/``t``; ``blocks`` are per-level block sizes,
    non-increasing, each dividing the previous; ``bcast`` is every
    level's broadcast algorithm.
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
        check_levels(self, "multi-level HSUMMA")

    @property
    def schedule(self) -> Levels:
        return Levels(tuple(self.row_factors), tuple(self.col_factors),
                      tuple(self.blocks), (self.bcast,) * len(self.blocks))


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
    program=summa_program,
    symmetry=symmetry,
    predict=predict_summa,
)
