"""Two-dimensional Cartesian process grids over nested levels.

SUMMA distributes matrices over an ``s x t`` grid; HSUMMA additionally
partitions that grid into an ``I x J`` grid of groups, and the
multi-level hierarchy partitions each group again.  One
:class:`CartComm` covers them all: per-level factors say how the grid
rows and columns split, the grid creates every level's row and column
communicators, and its broadcasts walk the levels outermost first.
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
    is children ``2 + 2q`` / ``3 + 2q`` (at ``h = 2``, the between-group
    and within-group pairs of the paper's Algorithm 1).  A color is the
    fixed grid row (column) times ``t / cols[q]`` (``s / rows[q]``) plus
    the other digits read as one number.  Pure arithmetic, so the
    symmetry declarations of :mod:`repro.simulator.collapse` can
    evaluate them over a numpy array of ranks.  Every rank of a run
    asks for the same splits, so they are built once and shared,
    read-only."""
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


@functools.lru_cache(maxsize=64)
def _grid_plan(s: int, t: int, rows: tuple[int, ...],
               cols: tuple[int, ...]) -> tuple[tuple, tuple]:
    """The splits a grid creates, in creation order (the Cartesian
    pair, then below one level every level's pair), and per level
    ``(join, hold, factor)`` of a grid column and then of a grid row:
    the moduli that keep a coordinate's digits below the level
    (``join``) and from the level down (``hold``)."""
    if math.prod(rows) != s or math.prod(cols) != t:
        raise CommunicatorError(
            f"level factors {rows} x {cols} do not multiply to the "
            f"{s}x{t} grid")
    splits = [*level_splits(s, t, (s,), (t,)).values()]
    if len(rows) > 1:
        splits += level_splits(s, t, rows, cols).values()
    digits = []
    c_hold, r_hold = t, s
    for rf, cf in zip(rows, cols):
        c_join, r_join = c_hold // cf, r_hold // rf
        digits.append(((c_join, c_hold, cf), (r_join, r_hold, rf)))
        c_hold, r_hold = c_join, r_join
    return tuple(splits), tuple(digits)


def group_levels(s: int, t: int, I: int,
                 J: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Level factors of an ``s x t`` grid split into an ``I x J`` grid
    of groups: the flat grid for one group, else the groups over their
    ``(s/I) x (t/J)`` inner grids."""
    if I * J <= 1:
        return (s,), (t,)
    return (I, s // I), (J, t // J)


class CartComm:
    """A communicator arranged as an ``s x t`` row-major grid split
    into nested levels.

    Rank ``r`` sits at row ``r // t``, column ``r % t``.  ``rows`` /
    ``cols`` are per-level factors of ``s`` / ``t``, outermost first
    (:func:`level_splits`); the default is one level, the flat grid.
    The object is a view over ``comm``, but its communicators are
    created eagerly (collectively) so that every member performs the
    same construction sequence: the Cartesian row and column
    (``row_comm`` / ``col_comm``, world children 0/1) and, over two or
    more levels, each level's pair (children ``2 + 2q`` / ``3 + 2q``).
    ``levels[q]`` is level ``q``'s ``(row, column)`` communicator pair.
    """

    def __init__(self, comm: Comm, s: int, t: int,
                 rows: tuple[int, ...] | None = None,
                 cols: tuple[int, ...] | None = None):
        if s * t != comm.size:
            raise CommunicatorError(
                f"grid {s}x{t} does not match communicator size {comm.size}"
            )
        self.comm = comm
        self.s = s
        self.t = t
        self.row, self.col = divmod(comm.rank, t)
        splits, self._digits = _grid_plan(s, t, rows or (s,), cols or (t,))
        # Collective: every member executes every split in this order.
        self.row_comm = comm.split_by(*splits[0])
        self.col_comm = comm.split_by(*splits[1])
        if len(splits) == 2:
            self.levels = ((self.row_comm, self.col_comm),)
        else:
            comms = [comm.split_by(*split) for split in splits[2:]]
            self.levels = tuple(zip(comms[::2], comms[1::2]))

    def coords(self, rank: int) -> tuple[int, int]:
        """Grid coordinates ``(row, col)`` of ``rank``."""
        if not (0 <= rank < self.s * self.t):
            raise CommunicatorError(
                f"rank {rank} outside grid of {self.s * self.t}"
            )
        return divmod(rank, self.t)

    def rank_at(self, row: int, col: int) -> int:
        """Rank sitting at ``(row, col)``; coordinates wrap (torus-style),
        which is what Cannon/Fox shifting needs."""
        return (row % self.s) * self.t + (col % self.t)

    def leg(self, q: int, axis: int,
            owner: int) -> tuple[Comm | None, int, bool]:
        """Level ``q`` of a broadcast along this rank's grid row from
        grid column ``owner`` (``axis`` 0) or down its grid column from
        grid row ``owner`` (``axis`` 1): the level's communicator (None
        when this rank sits the level out), the root, and whether this
        rank is the source.  A rank joins when its digits below ``q``
        match the owner's; the root is the owner's level-``q`` digit;
        the source matches the owner's digits from ``q`` down, so it
        holds what the level above delivered."""
        join, hold, factor = self._digits[q][axis]
        mine = self.row if axis else self.col
        if mine % join != owner % join:
            return None, 0, False
        return (self.levels[q][axis], owner // join % factor,
                mine % hold == owner % hold)

    def bcast_row(self, payload: Any, owner_col: int) -> Generator:
        """Broadcast ``payload`` along the grid row from grid column
        ``owner_col`` through every level, outermost first; each level
        forwards what the level above delivered."""
        return self._walk(0, payload, owner_col)

    def bcast_col(self, payload: Any, owner_row: int) -> Generator:
        """Broadcast down the grid column from grid row ``owner_row``
        (see :meth:`bcast_row`)."""
        return self._walk(1, payload, owner_row)

    def _walk(self, axis: int, payload: Any, owner: int) -> Generator:
        if len(self.levels) == 1:
            # One level is the whole grid line, rooted at the owner;
            # returning its broadcast saves a generator frame per call.
            return self.levels[0][axis].bcast(payload, root=owner)
        return self._walk_levels(axis, payload, owner)

    def _walk_levels(self, axis: int, payload: Any, owner: int) -> Generator:
        for q in range(len(self.levels)):
            comm, root, _ = self.leg(q, axis, owner)
            payload = None if comm is None else (
                yield from comm.bcast(payload, root=root))
        return payload

