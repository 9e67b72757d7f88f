"""Tests for the extra collectives (Bruck, reduce-scatter, Rabenseifner)."""

import numpy as np
import pytest

from repro.collectives.allgather import allgather_ring
from repro.collectives.extra import (
    allgather_bruck,
    allreduce_rabenseifner,
    reduce_scatter_ring,
)
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray, join_payload
from repro.simulator import run_spmd

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)


class TestBruck:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 7, 8, 13, 16])
    def test_complete_for_any_size(self, size):
        def prog(ctx):
            out = yield from allgather_bruck(ctx.world, float(ctx.rank))
            return out

        res = run_spmd(prog, size, params=PARAMS)
        for out in res.return_values:
            assert out == [float(i) for i in range(size)]

    def test_logarithmic_rounds_beat_ring_latency(self):
        def bruck(ctx):
            yield from allgather_bruck(ctx.world, 1.0)

        def ring(ctx):
            yield from allgather_ring(ctx.world, 1.0)

        t_b = run_spmd(bruck, 16, params=PARAMS).total_time
        t_r = run_spmd(ring, 16, params=PARAMS).total_time
        assert t_b < t_r

    def test_array_payloads(self):
        def prog(ctx):
            out = yield from allgather_bruck(
                ctx.world, np.full(3, float(ctx.rank))
            )
            return [float(v[0]) for v in out]

        res = run_spmd(prog, 6, params=PARAMS)
        assert res.return_values[3] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


class TestReduceScatter:
    @pytest.mark.parametrize("size", [1, 2, 4, 5, 8])
    def test_chunks_sum_correctly(self, size):
        def prog(ctx):
            seg = yield from reduce_scatter_ring(
                ctx.world, np.arange(16.0) + ctx.rank
            )
            return seg

        res = run_spmd(prog, size, params=PARAMS)
        expected = size * np.arange(16.0) + sum(range(size))
        segs = res.return_values
        total = join_payload(segs) if size > 1 else join_payload([segs[0]])
        assert np.allclose(total, expected)

    def test_each_rank_distinct_chunk(self):
        def prog(ctx):
            seg = yield from reduce_scatter_ring(ctx.world, np.arange(8.0))
            return seg.index

        res = run_spmd(prog, 4, params=PARAMS)
        assert sorted(res.return_values) == [0, 1, 2, 3]

    def test_phantom(self):
        def prog(ctx):
            seg = yield from reduce_scatter_ring(
                ctx.world, PhantomArray((4, 4))
            )
            return seg.phantom

        res = run_spmd(prog, 4, params=PARAMS)
        assert all(res.return_values)


class TestRabenseifner:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 8, 9])
    def test_matches_sum(self, size):
        def prog(ctx):
            out = yield from allreduce_rabenseifner(
                ctx.world, np.full(12, float(ctx.rank + 1))
            )
            return out

        res = run_spmd(prog, size, params=PARAMS)
        expected = float(sum(range(1, size + 1)))
        for out in res.return_values:
            assert out.shape == (12,)
            assert np.allclose(out, expected)

    def test_bandwidth_beats_reduce_bcast_for_large_messages(self):
        from repro.collectives.reduce import reduce_binomial

        nelems = 1 << 18

        def rab(ctx):
            yield from allreduce_rabenseifner(ctx.world, np.ones(nelems))

        def red_bcast(ctx):
            acc = yield from reduce_binomial(ctx.world, np.ones(nelems), 0)
            yield from ctx.world.bcast(acc, 0)

        t_rab = run_spmd(rab, 8, params=PARAMS).total_time
        t_rb = run_spmd(red_bcast, 8, params=PARAMS).total_time
        assert t_rab < t_rb

    def test_registry_dispatch(self):
        """The comm layer dispatches allreduce/allgather by name."""
        from repro.mpi.comm import CollectiveOptions

        def prog(ctx):
            total = yield from ctx.world.allreduce(
                np.ones(8), algorithm="rabenseifner"
            )
            ag = yield from ctx.world.allgather(ctx.rank, algorithm="bruck")
            return (float(total[0]), ag)

        res = run_spmd(prog, 4, params=PARAMS,
                       options=CollectiveOptions(allreduce="rabenseifner"))
        for total, ag in res.return_values:
            assert total == pytest.approx(4.0)
            assert ag == [0, 1, 2, 3]

    def test_unknown_allreduce_rejected(self):
        from repro.collectives import COLLECTIVES
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="allreduce"):
            COLLECTIVES["allreduce"].algorithm("nope")

    def test_shape_preserved(self):
        def prog(ctx):
            out = yield from allreduce_rabenseifner(
                ctx.world, np.ones((6, 4))
            )
            return out.shape

        res = run_spmd(prog, 4, params=PARAMS)
        assert all(shape == (6, 4) for shape in res.return_values)
