"""Tests for group-grid selection and topology-aware grouping."""

import pytest

from repro.core.grouping import (
    arrange_groups,
    choose_group_grid,
    default_group_count,
    feasible_group_grids,
    group_aligned_mapping,
    group_of,
    valid_group_counts,
)
from repro.errors import ConfigurationError


class TestFeasibleGroupGrids:
    def test_square_grid(self):
        grids = feasible_group_grids(4, 4, 4)
        assert set(grids) == {(1, 4), (2, 2), (4, 1)}

    def test_rect_grid(self):
        grids = feasible_group_grids(8, 16, 4)
        assert (2, 2) in grids and (4, 1) in grids and (1, 4) in grids

    def test_infeasible(self):
        assert feasible_group_grids(4, 4, 3) == []

    def test_bad_args(self):
        with pytest.raises(ConfigurationError):
            feasible_group_grids(0, 4, 2)


class TestChooseGroupGrid:
    def test_prefers_square_inner(self):
        # 4x4 grid, G=4: (2,2) gives 2x2 inner grids (square).
        assert choose_group_grid(4, 4, 4) == (2, 2)

    def test_paper_grid(self):
        # p=128 as 8x16: G=16 should give square-ish inner grids.
        I, J = choose_group_grid(8, 16, 16)
        assert I * J == 16
        assert 8 % I == 0 and 16 % J == 0

    def test_g1_and_gp(self):
        assert choose_group_grid(4, 4, 1) == (1, 1)
        assert choose_group_grid(4, 4, 16) == (4, 4)

    def test_infeasible_raises_with_hint(self):
        with pytest.raises(ConfigurationError, match="valid counts"):
            choose_group_grid(4, 4, 5)


class TestDefaultGroupCount:
    def test_is_both_rules_it_replaced(self):
        """One nearest-``sqrt(p)`` default stands where ``multiply``
        (``round(sqrt(p))``, first minimum over the ascending counts)
        and ``naive_launch`` (``(abs(g - sqrt(p)), g)``) each had their
        own; on every most-square grid up to p = 4096 all three agree.
        (Were they ever to differ, ``naive_launch``'s rule — the one
        kept — is what the pinned stream reports depend on.)"""
        import math

        from repro.util.gridmath import factor_grid

        for p in range(1, 4097):
            s, t = factor_grid(p)
            counts = valid_group_counts(s, t)
            rounded = int(round(p ** 0.5))
            by_multiply = min(counts, key=lambda g: abs(g - rounded))
            by_naive_launch = min(
                counts, key=lambda g: (abs(g - math.sqrt(p)), g))
            assert default_group_count(s, t) == by_multiply \
                == by_naive_launch, p

    def test_arrange_groups_takes_a_count_or_a_pair(self):
        assert arrange_groups(4, 4, 4) == (2, 2)
        assert arrange_groups(4, 4, (1, 4)) == (1, 4)


class TestValidGroupCounts:
    def test_square_16(self):
        assert valid_group_counts(4, 4) == [1, 2, 4, 8, 16]

    def test_contains_extremes(self):
        for s, t in ((2, 4), (8, 16), (3, 3)):
            counts = valid_group_counts(s, t)
            assert 1 in counts
            assert s * t in counts

    def test_all_feasible(self):
        for G in valid_group_counts(8, 16):
            assert feasible_group_grids(8, 16, G)


class TestGroupOf:
    def test_basic(self):
        assert group_of(0, 0, 4, 4, 2, 2) == (0, 0)
        assert group_of(3, 3, 4, 4, 2, 2) == (1, 1)
        assert group_of(1, 2, 4, 4, 2, 2) == (0, 1)

    def test_indivisible(self):
        with pytest.raises(ConfigurationError):
            group_of(0, 0, 4, 4, 3, 1)

    def test_bounds(self):
        with pytest.raises(ConfigurationError):
            group_of(4, 0, 4, 4, 2, 2)


class TestGroupAlignedMapping:
    def test_groups_contiguous(self):
        m = group_aligned_mapping(4, 4, 2, 2, ranks_per_node=1)
        # Group (0,0) = grid rows 0-1, cols 0-1 = ranks 0,1,4,5: these
        # must land on the first four nodes.
        group_ranks = [0, 1, 4, 5]
        nodes = sorted(m.node(r) for r in group_ranks)
        assert nodes == [0, 1, 2, 3]

    def test_respects_ranks_per_node(self):
        m = group_aligned_mapping(4, 4, 2, 2, ranks_per_node=4)
        # Each group of 4 ranks shares exactly one node.
        assert len({m.node(r) for r in (0, 1, 4, 5)}) == 1
        assert m.node(0) != m.node(2)  # different groups

    def test_covers_all_ranks(self):
        m = group_aligned_mapping(4, 8, 2, 4, ranks_per_node=2)
        assert m.nranks == 32
        seen = [m.node(r) for r in range(32)]
        assert max(seen) == m.nnodes - 1

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigurationError):
            group_aligned_mapping(4, 4, 3, 2)

    def test_bad_ranks_per_node(self):
        with pytest.raises(ConfigurationError):
            group_aligned_mapping(4, 4, 2, 2, ranks_per_node=0)
