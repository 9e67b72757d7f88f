"""Tests for scatter and gather algorithms."""

import numpy as np
import pytest

from repro.collectives.gather import gather_binomial
from repro.collectives.scatter import scatter_binomial, split_path
from repro.errors import ConfigurationError
from repro.network.model import HockneyParams
from repro.simulator import run_spmd

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)


class TestSplitPath:
    def test_covers_range(self):
        for size in (2, 3, 5, 8, 13):
            for vr in range(size):
                lo, hi = 0, size
                for plo, pmid, phi in split_path(size, vr):
                    assert plo == lo and phi == hi
                    assert lo < pmid < hi
                    if vr < pmid:
                        hi = pmid
                    else:
                        lo = pmid
                assert (lo, hi) == (vr, vr + 1)

    def test_single_rank_empty(self):
        assert split_path(1, 0) == []

    def test_depth_logarithmic(self):
        assert len(split_path(16, 0)) == 4
        assert len(split_path(16, 15)) <= 4


def _scatter_prog(fn, root, size):
    def prog(ctx):
        parts = None
        if ctx.rank == root:
            parts = [np.full(3, float(i)) for i in range(size)]
        mine = yield from fn(ctx.world, parts, root)
        return mine

    return prog


class TestScatter:
    @pytest.mark.parametrize("fn", [scatter_binomial])
    @pytest.mark.parametrize("size,root", [(1, 0), (2, 0), (4, 0), (5, 2), (8, 7), (11, 3)])
    def test_each_rank_gets_its_part(self, fn, size, root):
        res = run_spmd(_scatter_prog(fn, root, size), size, params=PARAMS)
        for r, value in enumerate(res.return_values):
            assert np.allclose(value, float(r)), (r, value)

    def test_wrong_part_count_rejected(self):
        def prog(ctx):
            parts = [1.0] if ctx.rank == 0 else None
            yield from scatter_binomial(ctx.world, parts, 0)

        with pytest.raises(ConfigurationError):
            run_spmd(prog, 4, params=PARAMS)


def _gather_prog(fn, root):
    def prog(ctx):
        out = yield from fn(ctx.world, np.full(2, float(ctx.rank)), root)
        return None if out is None else [float(v[0]) for v in out]

    return prog


class TestGather:
    @pytest.mark.parametrize("fn", [gather_binomial])
    @pytest.mark.parametrize("size,root", [(1, 0), (2, 1), (4, 0), (5, 4), (9, 2), (16, 0)])
    def test_root_collects_in_rank_order(self, fn, size, root):
        res = run_spmd(_gather_prog(fn, root), size, params=PARAMS)
        for r, value in enumerate(res.return_values):
            if r == root:
                assert value == [float(i) for i in range(size)]
            else:
                assert value is None

    def test_gather_inverse_of_scatter(self):
        def prog(ctx):
            size = ctx.world.size
            parts = [np.full(2, float(i)) for i in range(size)] if ctx.rank == 0 else None
            mine = yield from scatter_binomial(ctx.world, parts, 0)
            back = yield from gather_binomial(ctx.world, mine, 0)
            if ctx.rank == 0:
                return [float(v[0]) for v in back]
            return None

        res = run_spmd(prog, 7, params=PARAMS)
        assert res.return_values[0] == [float(i) for i in range(7)]
