"""Tests for reduce / allreduce."""

import numpy as np
import pytest

from repro.collectives.reduce import allreduce_rd, reduce_binomial
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray
from repro.simulator import run_spmd

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)


class TestReduce:
    @pytest.mark.parametrize("fn", [reduce_binomial])
    @pytest.mark.parametrize("size,root", [(1, 0), (2, 0), (4, 3), (7, 2), (16, 0)])
    def test_sum_on_root(self, fn, size, root):
        def prog(ctx):
            out = yield from fn(ctx.world, np.full(3, float(ctx.rank)), root)
            return None if out is None else float(out[0])

        res = run_spmd(prog, size, params=PARAMS)
        expected = float(sum(range(size)))
        for r, value in enumerate(res.return_values):
            if r == root:
                assert value == pytest.approx(expected)
            else:
                assert value is None

    def test_phantom_reduction(self):
        def prog(ctx):
            out = yield from reduce_binomial(
                ctx.world, PhantomArray((4, 4)), 0
            )
            return out

        res = run_spmd(prog, 4, params=PARAMS)
        assert isinstance(res.return_values[0], PhantomArray)
        assert res.return_values[0].shape == (4, 4)

    def test_rounds_are_logarithmic(self):
        """16 ranks take ``log2 16 = 4`` tree rounds, each as long as the
        single round of 2 ranks."""
        def prog(ctx):
            yield from reduce_binomial(ctx.world, np.ones(64), 0)

        t2 = run_spmd(prog, 2, params=PARAMS).total_time
        t16 = run_spmd(prog, 16, params=PARAMS).total_time
        assert t16 == pytest.approx(4 * t2)


class TestAllreduce:
    @pytest.mark.parametrize("size", [1, 2, 4, 8, 16])
    def test_power_of_two(self, size):
        def prog(ctx):
            out = yield from allreduce_rd(ctx.world, np.full(2, 1.0))
            return float(out[0])

        res = run_spmd(prog, size, params=PARAMS)
        assert all(v == pytest.approx(float(size)) for v in res.return_values)

    @pytest.mark.parametrize("size", [3, 5, 6, 7])
    def test_non_power_of_two_fallback(self, size):
        def prog(ctx):
            out = yield from allreduce_rd(ctx.world, np.full(2, 2.0))
            return float(out[0])

        res = run_spmd(prog, size, params=PARAMS)
        assert all(v == pytest.approx(2.0 * size) for v in res.return_values)

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 8, 9])
    def test_distinct_contributions_sum(self, size):
        def prog(ctx):
            out = yield from allreduce_rd(
                ctx.world, np.full(12, float(ctx.rank + 1))
            )
            return out

        res = run_spmd(prog, size, params=PARAMS)
        expected = float(sum(range(1, size + 1)))
        for out in res.return_values:
            assert out.shape == (12,)
            assert np.allclose(out, expected)

    @pytest.mark.parametrize("size", [4, 6])
    def test_shape_preserved(self, size):
        def prog(ctx):
            out = yield from allreduce_rd(ctx.world, np.ones((6, 4)))
            return out.shape

        res = run_spmd(prog, size, params=PARAMS)
        assert all(shape == (6, 4) for shape in res.return_values)

    def test_phantom_allreduce(self):
        def prog(ctx):
            out = yield from allreduce_rd(ctx.world, PhantomArray((4, 4)))
            return out

        res = run_spmd(prog, 4, params=PARAMS)
        for out in res.return_values:
            assert isinstance(out, PhantomArray)
            assert out.shape == (4, 4)

    def test_comm_methods_dispatch(self):
        """``Comm.reduce``/``allreduce``/``allgather`` run their one
        algorithm each."""
        def prog(ctx):
            total = yield from ctx.world.allreduce(np.ones(8))
            onto = yield from ctx.world.reduce(np.ones(8), 1)
            ag = yield from ctx.world.allgather(ctx.rank)
            onto = None if onto is None else float(onto[0])
            return (float(total[0]), onto, ag)

        res = run_spmd(prog, 4, params=PARAMS)
        for r, (total, onto, ag) in enumerate(res.return_values):
            assert total == pytest.approx(4.0)
            assert onto == (pytest.approx(4.0) if r == 1 else None)
            assert ag == [0, 1, 2, 3]

    def test_unknown_allreduce_rejected(self):
        from repro.collectives import COLLECTIVES
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="allreduce"):
            COLLECTIVES["allreduce"].algorithm("nope")
