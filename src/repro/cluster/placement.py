"""Carving rectangular sub-grids out of a shared machine.

The machine's slots form a logical ``rows x cols`` grid (on a torus,
the natural 2-D face the single-run experiments already use).  A job
asking for an ``s x t`` grid gets a free rectangular block; its rank
``(i, j)`` lands on the block's slot ``(i, j)``, so within-job
communication patterns keep the same shape they have in a standalone
run — what changes under load is only *which* physical links those
patterns cross and who else is using them.

Candidate blocks are the groups of the fig8 zigzag enumeration
(:func:`repro.network.mapping.subgrid_blocks`, in its order) when the
requested shape tiles the machine exactly — aligned groups, the paper's
Figure-8 layout — and come from a row-major anchor scan otherwise.  Both
orders are fixed, so placement is deterministic given the allocation
history.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class SlotGrid:
    """Free/busy tracker for a ``rows x cols`` grid of machine slots.

    Slots are numbered row-major (``slot = r * cols + c``), matching
    the rank order of the torus/homogeneous machines the cluster runs
    on.  ``find``/``allocate`` return the slots of a free ``s x t``
    block *in job rank order* (job rank ``i * t + j`` at position
    ``k = i * t + j`` of the tuple); when ``s x t`` does not fit in
    the grid's orientation but ``t x s`` does, the block is placed
    transposed and the returned order compensates, so callers never
    see the rotation.
    """

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 1 or cols < 1:
            raise ConfigurationError(
                f"slot grid must be at least 1x1, got {rows}x{cols}"
            )
        self.rows = rows
        self.cols = cols
        self._free = [True] * (rows * cols)

    @property
    def capacity(self) -> int:
        return self.rows * self.cols

    @property
    def free_count(self) -> int:
        return sum(self._free)

    def clone(self) -> "SlotGrid":
        """Independent copy (schedulers shadow-simulate releases on it)."""
        other = SlotGrid.__new__(SlotGrid)
        other.rows, other.cols = self.rows, self.cols
        other._free = list(self._free)
        return other

    def fits_empty(self, s: int, t: int) -> bool:
        """Could an ``s x t`` job ever run on this machine (either
        orientation, grid fully drained)?"""
        return ((s <= self.rows and t <= self.cols)
                or (t <= self.rows and s <= self.cols))

    def _find_block(self, rs: int, cs: int) -> tuple[int, ...] | None:
        """First fully-free ``rs x cs`` block, slots row-major, or None."""
        rows, cols, free = self.rows, self.cols, self._free
        # Aligned tiling: only the tiles, row-major — the zigzag group
        # order, so consecutive jobs pack group-contiguously (fig8
        # layout).  Otherwise every anchor, row-major.
        dr, dc = (rs, cs) if rows % rs == 0 and cols % cs == 0 else (1, 1)
        for r0 in range(0, rows - rs + 1, dr):
            for c0 in range(0, cols - cs + 1, dc):
                # A busy anchor is dropped at its first busy row; only
                # the winner's slot tuple is ever built.
                starts = range(r0 * cols + c0, (r0 + rs) * cols, cols)
                if all(all(free[a:a + cs]) for a in starts):
                    return tuple(slot for a in starts
                                 for slot in range(a, a + cs))
        return None

    def find(self, s: int, t: int) -> tuple[int, ...] | None:
        """Slots for a free ``s x t`` block in job rank order, or None."""
        block = self._find_block(s, t)
        if block is not None:
            return block
        if s != t:
            # Transposed placement: physical block is t x s; job (i, j)
            # sits at physical (j, i), i.e. block[j * s + i].
            block = self._find_block(t, s)
            if block is not None:
                return tuple(block[j * s + i]
                             for i in range(s) for j in range(t))
        return None

    def allocate(self, s: int, t: int) -> tuple[int, ...] | None:
        """Find and claim a block; None when nothing fits right now."""
        slots = self.find(s, t)
        if slots is not None:
            for slot in slots:
                self._free[slot] = False
        return slots

    def release(self, slots: tuple[int, ...]) -> None:
        """Return a block's slots to the free pool."""
        for slot in slots:
            if self._free[slot]:
                raise ConfigurationError(f"slot {slot} released twice")
            self._free[slot] = True
