"""Early collective-argument validation in the communicator layer.

Each collective call announces its signature (participants, op, root,
algorithm, segments) into a shared per-(communicator, sequence)
registry; the first rank whose announcement disagrees with an earlier
one fails immediately with a :class:`CollectiveMismatchError` carrying
the verification check id — instead of hanging or silently computing
garbage.
"""

from __future__ import annotations

import pytest

from repro.errors import CollectiveMismatchError, ConfigurationError
from repro.mpi.comm import CollectiveOptions
from repro.simulator.runtime import run_spmd


def _run(program, nranks=4, **kw):
    return run_spmd(program, nranks, **kw)


@pytest.mark.parametrize("depth", [0, -1, 2.0, True])
def test_a_pipeline_depth_is_none_or_a_positive_int(depth):
    # Under bcast="binomial" a depth of 0 was silently ignored; the
    # segmented family refused it only when its first broadcast ran.
    with pytest.raises(ConfigurationError, match="bcast_segments"):
        CollectiveOptions(bcast_segments=depth)


class TestEagerMismatchDetection:
    def test_root_mismatch(self):
        def program(ctx):
            def gen():
                root = 1 if ctx.world.rank == 3 else 0
                out = yield from ctx.world.bcast(
                    1.0 if ctx.world.rank == root else None, root=root)
                return out
            return gen()

        with pytest.raises(CollectiveMismatchError) as exc_info:
            _run(program)
        exc = exc_info.value
        assert exc.check == "collective-root-mismatch"
        assert exc.expected["root"] != exc.observed["root"]

    def test_op_mismatch(self):
        def program(ctx):
            def gen():
                if ctx.world.rank == 2:
                    out = yield from ctx.world.bcast(1.0, root=0)
                else:
                    out = yield from ctx.world.allreduce(1.0)
                return out
            return gen()

        with pytest.raises(CollectiveMismatchError) as exc_info:
            _run(program)
        assert exc_info.value.check == "collective-op-mismatch"

    def test_algorithm_mismatch(self):
        def program(ctx):
            def gen():
                algo = "binomial" if ctx.world.rank else "flat"
                out = yield from ctx.world.bcast(
                    1.0 if ctx.world.rank == 0 else None,
                    root=0, algorithm=algo)
                return out
            return gen()

        with pytest.raises(CollectiveMismatchError) as exc_info:
            _run(program)
        assert exc_info.value.check == "collective-arg-mismatch"

    def test_error_message_names_field_and_check(self):
        def program(ctx):
            def gen():
                root = ctx.world.rank % 2
                out = yield from ctx.world.bcast(
                    1.0 if ctx.world.rank == root else None, root=root)
                return out
            return gen()

        with pytest.raises(CollectiveMismatchError, match="root=") as exc_info:
            _run(program)
        assert "collective-root-mismatch" in str(exc_info.value)


class TestConsistentCallsPass:
    def test_mixed_collective_sequence(self):
        def program(ctx):
            def gen():
                a = yield from ctx.world.bcast(
                    2.0 if ctx.world.rank == 0 else None, root=0)
                b = yield from ctx.world.allreduce(a * ctx.world.rank)
                c = yield from ctx.world.reduce(b, root=1)
                return c
            return gen()

        sim = _run(program)
        assert sim.return_values[1] is not None

    def test_explicit_uniform_algorithm(self):
        def program(ctx):
            def gen():
                out = yield from ctx.world.bcast(
                    1.0 if ctx.world.rank == 0 else None,
                    root=0, algorithm="binomial")
                return out
            return gen()

        sim = _run(program, options=CollectiveOptions(bcast="binomial"))
        assert all(v == 1.0 for v in sim.return_values)

    def test_subcommunicators_validate_independently(self):
        """Two row communicators run their own sequences: same seq
        number, different cids — no false mismatch."""

        def program(ctx):
            def gen():
                row = ctx.world.split_by(lambda r: r // 2)
                out = yield from row.bcast(
                    float(ctx.world.rank) if row.rank == 0 else None, root=0)
                return out
            return gen()

        sim = _run(program, 4)
        assert sim.return_values == [0.0, 0.0, 2.0, 2.0]
