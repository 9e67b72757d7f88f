"""Unit tests for the execution backends (DES / macro) and their
shared resolution helper."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mpi.comm import make_contexts
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray
from repro.simulator.backends import MacroBackend, resolve_backend
from repro.simulator.engine import Engine
from repro.simulator.runtime import run_spmd

PARAMS = HockneyParams(alpha=1e-5, beta=1e-9)


def _net(p):
    return HomogeneousNetwork(p, PARAMS)


def _run(backend, nranks, body):
    """Run ``body(ctx) -> generator`` on both real contexts."""
    programs = [body(ctx) for ctx in make_contexts(nranks)]
    return resolve_backend(backend, _net(nranks)).run(programs)


class TestResolveBackend:
    def test_none_and_des_build_des(self):
        assert type(resolve_backend(None, _net(2))) is Engine
        assert type(resolve_backend("des", _net(2))) is Engine

    def test_macro_builds_macro(self):
        assert isinstance(resolve_backend("macro", _net(2)), MacroBackend)

    def test_engine_instance_passes_through(self):
        eng = Engine(_net(2))
        assert resolve_backend(eng, _net(4)) is eng

    def test_unknown_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("quantum", _net(2))


class TestMacroResults:
    """Every collective's *result values* must match the expanded
    algorithms' conventions, not just its timing."""

    @pytest.mark.parametrize("backend", [None, "macro"])
    def test_bcast_delivers_root_payload(self, backend):
        def body(ctx):
            def g():
                obj = [1, 2, 3] if ctx.rank == 1 else None
                got = yield from ctx.world.bcast(obj, root=1)
                return got
            return g()

        sim = _run(backend, 4, body)
        assert all(rv == [1, 2, 3] for rv in sim.return_values)

    @pytest.mark.parametrize("backend", [None, "macro"])
    def test_scatter_distributes_parts(self, backend):
        def body(ctx):
            def g():
                parts = [f"part{i}" for i in range(4)] if ctx.rank == 0 else None
                got = yield from ctx.world.scatter(parts, root=0)
                return got
            return g()

        sim = _run(backend, 4, body)
        assert sim.return_values == [f"part{i}" for i in range(4)]

    @pytest.mark.parametrize("backend", [None, "macro"])
    def test_gather_collects_on_root_only(self, backend):
        def body(ctx):
            def g():
                got = yield from ctx.world.gather(ctx.rank * 10, root=2)
                return got
            return g()

        sim = _run(backend, 4, body)
        assert sim.return_values[2] == [0, 10, 20, 30]
        assert all(sim.return_values[r] is None for r in (0, 1, 3))

    @pytest.mark.parametrize("backend", [None, "macro"])
    def test_allgather_collects_everywhere(self, backend):
        def body(ctx):
            def g():
                got = yield from ctx.world.allgather(ctx.rank)
                return got
            return g()

        sim = _run(backend, 4, body)
        assert all(rv == [0, 1, 2, 3] for rv in sim.return_values)

    @pytest.mark.parametrize("backend", [None, "macro"])
    def test_reduce_and_allreduce_sum(self, backend):
        def body(ctx):
            def g():
                partial = yield from ctx.world.reduce(
                    np.full(2, float(ctx.rank)), root=0
                )
                total = yield from ctx.world.allreduce(np.ones(2))
                return partial, total
            return g()

        sim = _run(backend, 4, body)
        partial, total = sim.return_values[0]
        assert np.allclose(partial, 6.0)
        assert all(np.allclose(rv[1], 4.0) for rv in sim.return_values)
        assert sim.return_values[1][0] is None

    @pytest.mark.parametrize("backend", [None, "macro"])
    def test_reduce_phantom_keeps_widest_itemsize(self, backend):
        def body(ctx):
            def g():
                got = yield from ctx.world.allreduce(
                    PhantomArray((3,), itemsize=4 if ctx.rank else 8)
                )
                return got
            return g()

        sim = _run(backend, 4, body)
        assert all(rv.itemsize == 8 for rv in sim.return_values)

    @pytest.mark.parametrize("backend", [None, "macro"])
    def test_barrier_returns_none(self, backend):
        def body(ctx):
            def g():
                got = yield from ctx.world.barrier()
                return got
            return g()

        sim = _run(backend, 4, body)
        assert sim.return_values == [None] * 4


class TestMacroTiming:
    def test_single_rank_collectives_free(self):
        def body(ctx):
            def g():
                yield from ctx.world.bcast("x", root=0)
                yield from ctx.world.barrier()
                return "done"
            return g()

        sim = _run("macro", 1, body)
        assert sim.total_time == 0.0
        assert sim.return_values == ["done"]

    def test_macro_matches_des_on_synchronous_arrival(self):
        # Equal skew on every rank: the collective starts when all have
        # arrived, and the analytic cost equals the expanded tree's.
        def body(ctx):
            def g():
                yield from ctx.compute(1e-3)
                got = yield from ctx.world.bcast(
                    "p" if ctx.rank == 0 else None, root=0
                )
                return got
            return g()

        des = _run(None, 4, body)
        macro = _run("macro", 4, body)
        assert macro.total_time == pytest.approx(des.total_time)
        assert macro.comm_time == pytest.approx(des.comm_time)
        assert macro.compute_time == pytest.approx(des.compute_time)

    def test_macro_is_conservative_on_staggered_arrival(self):
        # Documented macro trade-off: the whole collective is charged
        # from the *latest* arrival, whereas the DES overlaps early tree
        # levels with the stragglers' compute.  Macro must never report
        # a faster run than the DES here.
        def body(ctx):
            def g():
                yield from ctx.compute(ctx.rank * 1e-3)
                got = yield from ctx.world.bcast(
                    "p" if ctx.rank == 0 else None, root=0
                )
                return got
            return g()

        des = _run(None, 4, body)
        macro = _run("macro", 4, body)
        assert macro.total_time >= des.total_time

    def test_macro_point_to_point_unchanged(self):
        # Programs mixing p2p with collectives run p2p through the
        # inherited DES machinery at identical cost.
        def body(ctx):
            def g():
                if ctx.rank == 0:
                    yield from ctx.world.send(np.zeros(16), 1)
                elif ctx.rank == 1:
                    yield from ctx.world.recv(0)
                yield from ctx.world.barrier()
                return ctx.rank
            return g()

        des = _run(None, 2, body)
        macro = _run("macro", 2, body)
        assert macro.total_time == pytest.approx(des.total_time)

    def test_collectives_do_not_count_as_messages(self):
        # Documented macro trade-off: satisfied collectives move no
        # simulated messages, so message/byte counters see nothing.
        def body(ctx):
            def g():
                yield from ctx.world.bcast(
                    np.zeros(128) if ctx.rank == 0 else None, root=0
                )
                return None
            return g()

        macro = _run("macro", 4, body)
        assert all(s.messages_sent == 0 for s in macro.stats)
        des = _run(None, 4, body)
        assert sum(s.messages_sent for s in des.stats) > 0

    def test_run_spmd_backend_threading(self):
        def prog(ctx):
            def g():
                got = yield from ctx.world.allreduce(float(ctx.rank))
                return got
            return g()

        des = run_spmd(prog, 8, params=PARAMS)
        macro = run_spmd(prog, 8, params=PARAMS, backend="macro")
        assert macro.return_values == des.return_values
        assert macro.total_time == pytest.approx(des.total_time)
