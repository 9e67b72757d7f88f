"""Unit tests for the communicator layer."""

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.mpi.comm import CollectiveOptions, MpiContext
from repro.simulator import run_spmd


class TestMpiContext:
    def test_world_identity(self):
        ctx = MpiContext(2, 4)
        assert ctx.world.rank == 2
        assert ctx.world.size == 4

    def test_rank_out_of_range(self):
        with pytest.raises(CommunicatorError):
            MpiContext(4, 4)

    def test_negative_gamma_rejected(self):
        with pytest.raises(CommunicatorError):
            MpiContext(0, 1, gamma=-1)

    def test_compute_flops_uses_gamma(self):
        def prog(ctx):
            yield from ctx.compute_flops(1e6)

        res = run_spmd(prog, 1, gamma=1e-9)
        assert res.total_time == pytest.approx(1e-3)


class TestPointToPoint:
    def test_send_recv(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.world.send(np.arange(4.0), 1)
                return None
            data = yield from ctx.world.recv(0)
            return data

        res = run_spmd(prog, 2)
        assert np.allclose(res.return_values[1], np.arange(4.0))

    def test_sendrecv_ring(self):
        def prog(ctx):
            comm = ctx.world
            right = (ctx.rank + 1) % comm.size
            left = (ctx.rank - 1) % comm.size
            got = yield from comm.sendrecv(ctx.rank, right, left)
            return got

        res = run_spmd(prog, 5)
        assert res.return_values == [4, 0, 1, 2, 3]

    def test_isend_wait(self):
        def prog(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                h = yield from comm.isend("msg", 1)
                yield from comm.wait(h)
                return None
            h = yield from comm.irecv(0)
            return (yield from comm.wait(h))

        res = run_spmd(prog, 2)
        assert res.return_values[1] == "msg"

    def test_waitall_order(self):
        def prog(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                yield from comm.send("a", 1, tag=1)
                yield from comm.send("b", 1, tag=2)
                return None
            h2 = yield from comm.irecv(0, tag=2)
            h1 = yield from comm.irecv(0, tag=1)
            vals = yield from comm.waitall([h1, h2])
            return vals

        res = run_spmd(prog, 2)
        assert res.return_values[1] == ["a", "b"]

    def test_invalid_dest_raises(self):
        def prog(ctx):
            yield from ctx.world.send("x", 5)

        with pytest.raises(CommunicatorError):
            run_spmd(prog, 2)


class TestSplit:
    def test_split_by_parity(self):
        def prog(ctx):
            sub = ctx.world.split_by(lambda r: r % 2)
            total = yield from sub.allgather(ctx.rank)
            return total

        res = run_spmd(prog, 6)
        assert res.return_values[0] == [0, 2, 4]
        assert res.return_values[1] == [1, 3, 5]

    def test_split_key_reorders(self):
        def prog(ctx):
            sub = ctx.world.split_by(lambda r: 0, key_of=lambda r: -r)
            return sub.rank
            yield  # pragma: no cover

        res = run_spmd(prog, 4)
        # Reverse key order: world rank 3 becomes comm rank 0.
        assert res.return_values == [3, 2, 1, 0]

    def test_split_isolation(self):
        """Messages in sibling communicators must not cross-match."""

        def prog(ctx):
            sub = ctx.world.split_by(lambda r: r % 2)
            # Each color's rank 0 sends a distinctive value to rank 1.
            if sub.rank == 0:
                yield from sub.send(f"color{ctx.rank % 2}", 1)
                return None
            got = yield from sub.recv(0)
            return got

        res = run_spmd(prog, 4)
        assert res.return_values[2] == "color0"
        assert res.return_values[3] == "color1"

    def test_nested_split(self):
        def prog(ctx):
            half = ctx.world.split_by(lambda r: r // 2)
            pair = half.split_by(lambda r: 0)
            data = yield from pair.allgather(ctx.rank)
            return data

        res = run_spmd(prog, 4)
        assert res.return_values[0] == [0, 1]
        assert res.return_values[3] == [2, 3]

    def test_dup_isolated_from_parent(self):
        def prog(ctx):
            comm = ctx.world
            dup = comm.dup()
            if ctx.rank == 0:
                # Nonblocking sends: rendezvous would otherwise require
                # the receiver to post in the same order.
                h1 = yield from comm.isend("parent", 1, tag=0)
                h2 = yield from dup.isend("dup", 1, tag=0)
                yield from comm.waitall([h1, h2])
                return None
            if ctx.rank == 1:
                # Receive from the dup first: must get the dup message
                # even though the parent's was sent earlier.
                d = yield from dup.recv(0, tag=0)
                p = yield from comm.recv(0, tag=0)
                return (d, p)
            return None

        res = run_spmd(prog, 2)
        assert res.return_values[1] == ("dup", "parent")

    def test_subset(self):
        def prog(ctx):
            sub = ctx.world.subset([1, 3])
            if sub is None:
                return None
            vals = yield from sub.allgather(ctx.rank)
            return vals

        res = run_spmd(prog, 4)
        assert res.return_values[0] is None
        assert res.return_values[1] == [1, 3]
        assert res.return_values[3] == [1, 3]

    def test_world_rank_translation(self):
        def prog(ctx):
            sub = ctx.world.split_by(lambda r: r % 2)
            return [sub.world_rank(i) for i in range(sub.size)]
            yield  # pragma: no cover

        res = run_spmd(prog, 4)
        assert res.return_values[0] == [0, 2]
        assert res.return_values[1] == [1, 3]


class TestCollectiveOptions:
    def test_defaults(self):
        opts = CollectiveOptions()
        assert opts.bcast == "binomial"
        assert opts.bcast_segments is None

    def test_replace(self):
        opts = CollectiveOptions().replace(bcast="vandegeijn")
        assert opts.bcast == "vandegeijn"

    def test_options_flow_to_bcast(self):
        """Configured vdg broadcast must actually run vdg (check cost)."""
        from repro.costs import bcast_time
        from repro.network.model import HockneyParams

        params = HockneyParams(1e-4, 1e-9)

        def prog(ctx):
            data = np.zeros(1000) if ctx.rank == 0 else None
            yield from ctx.world.bcast(data, root=0)

        res_b = run_spmd(prog, 8, params=params)
        res_v = run_spmd(
            prog, 8, params=params, options=CollectiveOptions(bcast="vandegeijn")
        )
        assert res_b.total_time == pytest.approx(bcast_time("binomial", 8000, 8, params))
        assert res_v.total_time == pytest.approx(
            bcast_time("vandegeijn", 8000, 8, params)
        )
