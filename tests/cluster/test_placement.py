"""Rectangular sub-grid placement on the shared slot grid."""

import random

import pytest

from repro.cluster.placement import SlotGrid
from repro.errors import ConfigurationError
from repro.network.mapping import subgrid_blocks


def test_aligned_placement_follows_zigzag_blocks():
    grid = SlotGrid(4, 4)
    expected = subgrid_blocks(4, 4, 2, 2)
    got = [grid.allocate(2, 2) for _ in range(4)]
    assert tuple(got) == expected
    assert grid.allocate(2, 2) is None
    assert grid.free_count == 0


def test_release_makes_block_reusable():
    grid = SlotGrid(4, 4)
    first = grid.allocate(2, 2)
    second = grid.allocate(2, 2)
    grid.release(first)
    assert grid.allocate(2, 2) == first
    grid.release(second)
    with pytest.raises(ConfigurationError):
        grid.release(second)  # double release


def test_block_is_in_job_rank_order():
    grid = SlotGrid(4, 8)
    slots = grid.allocate(2, 4)
    # job rank i*t+j must sit at physical (r0+i, c0+j)
    assert slots == (0, 1, 2, 3, 8, 9, 10, 11)


def test_transposed_placement_when_needed():
    grid = SlotGrid(4, 2)
    slots = grid.allocate(2, 4)  # only fits rotated (4 rows x 2 cols)
    assert slots is not None
    # job (i, j) -> physical (j, i): row-major over job ranks
    assert slots == (0, 2, 4, 6, 1, 3, 5, 7)
    assert grid.free_count == 0


def test_unaligned_anchor_scan():
    grid = SlotGrid(3, 3)
    a = grid.allocate(2, 2)
    assert a == (0, 1, 3, 4)
    b = grid.allocate(1, 3)
    assert b == (6, 7, 8)
    assert grid.allocate(2, 2) is None


def test_fits_empty_considers_both_orientations():
    grid = SlotGrid(2, 8)
    assert grid.fits_empty(8, 2)
    assert grid.fits_empty(2, 8)
    assert not grid.fits_empty(4, 4)


def test_clone_is_independent():
    grid = SlotGrid(2, 2)
    shadow = grid.clone()
    shadow.allocate(2, 2)
    assert grid.free_count == 4
    assert shadow.free_count == 0


def _eager_find_block(grid, rs, cs):
    """The search as it was first written: every candidate's slot tuple
    built, then tested — the reference the lazy search must equal."""
    if rs > grid.rows or cs > grid.cols:
        return None
    if grid.rows % rs == 0 and grid.cols % cs == 0:
        anchors = [divmod(block[0], grid.cols) for block in
                   subgrid_blocks(grid.rows, grid.cols,
                                  grid.rows // rs, grid.cols // cs)]
    else:
        anchors = [(r0, c0) for r0 in range(grid.rows - rs + 1)
                   for c0 in range(grid.cols - cs + 1)]
    for r0, c0 in anchors:
        block = tuple((r0 + i) * grid.cols + (c0 + j)
                      for i in range(rs) for j in range(cs))
        if all(grid._free[slot] for slot in block):
            return block
    return None


@pytest.mark.parametrize("rows,cols", [(8, 16), (4, 6), (3, 5), (1, 7)])
def test_lazy_search_returns_the_eager_search_s_blocks(rows, cols):
    rng = random.Random(rows * 100 + cols)
    for busy_share in (0.0, 0.1, 0.4, 0.8):
        grid = SlotGrid(rows, cols)
        grid._free = [rng.random() >= busy_share
                      for _ in range(rows * cols)]
        for rs in range(1, rows + 2):
            for cs in range(1, cols + 2):
                assert grid._find_block(rs, cs) \
                    == _eager_find_block(grid, rs, cs), (rs, cs)
