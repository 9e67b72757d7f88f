"""Two-dimensional Cartesian process grids.

SUMMA distributes matrices over an ``s x t`` grid; HSUMMA additionally
partitions that grid into an ``I x J`` grid of groups.  This module
provides the row-major coordinate bookkeeping plus the derived row and
column communicators both algorithms broadcast along.
"""

from __future__ import annotations

import functools
import math
import types
from typing import Any, Generator, Mapping

from repro.errors import CommunicatorError
from repro.mpi.comm import Comm


@functools.lru_cache(maxsize=64)
def level_splits(s: int, t: int, rows: tuple[int, ...],
                 cols: tuple[int, ...]) -> Mapping[int, tuple]:
    """``child -> (color_of, key_of)`` of the communicators of an
    ``s x t`` grid split into ``h = len(rows)`` nested levels, outermost
    first: ``rows``/``cols`` are per-level factors of ``s``/``t``, and
    grid row ``i`` has one mixed-radix digit per level (likewise
    column ``j``).  Level ``q``'s row communicator fixes the grid row
    and every column digit but digit ``q``, which orders it; its column
    communicator is the transpose.  At ``h = 1`` they are the Cartesian
    row and column (world children 0/1); below that, level ``q``'s pair
    is children ``2 + 2q`` / ``3 + 2q`` (at ``h = 2``, the outer and
    inner pairs of :class:`GroupedCartComm`).  A color is the fixed
    grid row (column) times ``t / cols[q]`` (``s / rows[q]``) plus the
    other digits read as one number.  Pure arithmetic, so the symmetry
    declarations of :mod:`repro.simulator.collapse` can evaluate them
    over a numpy array of ranks.  Every rank of a run asks for the same
    splits, so they are built once and shared, read-only."""
    first = 0 if len(rows) == 1 else 2
    splits = {}
    for q in range(len(rows)):
        splits[first + 2 * q], splits[first + 2 * q + 1] = _level_pair(
            s, t, rows[q], cols[q], math.prod(rows[q + 1:]),
            math.prod(cols[q + 1:]))
    return types.MappingProxyType(splits)


def _level_pair(s: int, t: int, rf: int, cf: int, rb: int,
                cb: int) -> tuple[tuple, tuple]:
    """The row and column splits of one level with factors ``rf``/``cf``
    and ``rb``/``cb`` grid rows/columns below it."""
    ra, ca, rw, cw = rb * rf, cb * cf, s // rf, t // cf
    return ((lambda r: r // t * cw + r % t // ca * cb + r % cb,
             lambda r: r % t // cb % cf),
            (lambda r: r % t * rw + r // t // ra * rb + r // t % rb,
             lambda r: r // t // rb % rf))


class CartComm:
    """A communicator arranged as an ``s x t`` row-major grid.

    Rank ``r`` sits at row ``r // t``, column ``r % t``.  The object is
    a view over ``comm``; constructing it is free, but the derived
    row/column communicators are created eagerly (collectively) so that
    every member performs the same construction sequence.
    """

    def __init__(self, comm: Comm, s: int, t: int):
        if s * t != comm.size:
            raise CommunicatorError(
                f"grid {s}x{t} does not match communicator size {comm.size}"
            )
        self.comm = comm
        self.s = s
        self.t = t
        self.row, self.col = divmod(comm.rank, t)
        # Collective: every member executes both splits in this order.
        splits = level_splits(s, t, (s,), (t,))
        self.row_comm = comm.split_by(*splits[0])
        self.col_comm = comm.split_by(*splits[1])

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    def coords(self, rank: int) -> tuple[int, int]:
        """Grid coordinates ``(row, col)`` of ``rank``."""
        if not (0 <= rank < self.size):
            raise CommunicatorError(
                f"rank {rank} outside grid of {self.size}"
            )
        return divmod(rank, self.t)

    def rank_at(self, row: int, col: int) -> int:
        """Rank sitting at ``(row, col)``; coordinates wrap (torus-style),
        which is what Cannon/Fox shifting needs."""
        return (row % self.s) * self.t + (col % self.t)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CartComm({self.s}x{self.t}, rank={self.rank}@({self.row},{self.col}))"


class GroupedCartComm(CartComm):
    """An ``s x t`` grid partitioned into an ``I x J`` grid of groups —
    the communicators of the paper's Algorithm 1.

    The rank at grid position ``(i, j)`` is processor ``P(x,y)(ii,jj)``
    with group coordinates ``(x, y) = (i // (s/I), j // (t/J))`` and
    inner coordinates ``(ii, jj) = (i % (s/I), j % (t/J))``.  On top of
    the Cartesian row/column pair, four communicators are created
    collectively, always in this order — they are the world's children
    2-5 (:func:`level_splits` at two levels), which the symmetry
    declarations in :mod:`repro.simulator.collapse` key on and
    enumerate:

    * ``outer_row``: fixed (grid row, inner col), varying group column
      — communicator rank equals ``y``;
    * ``outer_col``: fixed (grid col, inner row), varying group row;
    * ``inner_row``: fixed (group, inner row), varying inner column —
      communicator rank equals ``jj``;
    * ``inner_col``: fixed (group, inner col), varying inner row.
    """

    def __init__(self, comm: Comm, s: int, t: int, I: int, J: int):
        super().__init__(comm, s, t)
        si, tj = s // I, t // J
        self.inner_s, self.inner_t = si, tj
        self.x, self.ii = divmod(self.row, si)
        self.y, self.jj = divmod(self.col, tj)
        splits = level_splits(s, t, (I, si), (J, tj))
        self.outer_row = comm.split_by(*splits[2])
        self.outer_col = comm.split_by(*splits[3])
        self.inner_row = comm.split_by(*splits[4])
        self.inner_col = comm.split_by(*splits[5])

    def bcast_row(self, payload: Any, owner_col: int) -> Generator:
        """Two-phase broadcast along the grid row from grid column
        ``owner_col``: between groups among the ranks sharing the
        owner's inner column, then within every group."""
        yk, jk = divmod(owner_col, self.inner_t)
        part = None
        if self.jj == jk:
            part = yield from self.outer_row.bcast(payload, root=yk)
        out = yield from self.inner_row.bcast(part, root=jk)
        return out

    def bcast_col(self, payload: Any, owner_row: int) -> Generator:
        """Two-phase broadcast down the grid column from grid row
        ``owner_row`` (see :meth:`bcast_row`)."""
        xk, ik = divmod(owner_row, self.inner_s)
        part = None
        if self.ii == ik:
            part = yield from self.outer_col.bcast(payload, root=xk)
        out = yield from self.inner_col.bcast(part, root=ik)
        return out
