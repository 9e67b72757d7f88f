"""Two-dimensional Cartesian process grids.

SUMMA distributes matrices over an ``s x t`` grid; HSUMMA additionally
partitions that grid into an ``I x J`` grid of groups.  This module
provides the row-major coordinate bookkeeping plus the derived row and
column communicators both algorithms broadcast along.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import CommunicatorError
from repro.mpi.comm import Comm


def cart_splits(t: int) -> dict[int, tuple]:
    """``child -> (color_of, key_of)`` of the row (world child 0) and
    column (child 1) splits of an ``s x t`` grid.  Pure arithmetic, so
    the symmetry declarations of :mod:`repro.simulator.collapse` can
    evaluate them over a numpy array of ranks."""
    return {
        0: (lambda r: r // t, lambda r: r % t),
        1: (lambda r: r % t, lambda r: r // t),
    }


def grouped_splits(s: int, t: int, I: int, J: int) -> dict[int, tuple]:
    """The four splits :class:`GroupedCartComm` adds (world children
    2-5: outer row, outer column, inner row, inner column), as
    :func:`cart_splits`."""
    si, tj = s // I, t // J
    return {
        2: (lambda r: (r // t) * tj + (r % t) % tj, lambda r: (r % t) // tj),
        3: (lambda r: (r % t) * si + (r // t) % si, lambda r: (r // t) // si),
        4: (lambda r: (r // t) * J + (r % t) // tj, lambda r: (r % t) % tj),
        5: (lambda r: (r % t) * I + (r // t) // si, lambda r: (r // t) % si),
    }


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
        splits = cart_splits(t)
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
    2-5 (:func:`grouped_splits`), which the symmetry declarations in
    :mod:`repro.simulator.collapse` key on and enumerate:

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
        splits = grouped_splits(s, t, I, J)
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
