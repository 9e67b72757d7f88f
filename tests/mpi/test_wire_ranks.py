"""A run bound at an engine base: what moves and what does not.

``context_factory(..., base=B)`` places a run's rank 0 at engine rank
``B`` (a job of a ``repro.cluster`` stream shares its engine with other
jobs).  The run must not be able to tell: every rank it can observe
stays ``0..p-1``; only the peers of the point-to-point requests its
communicators yield are offset.
"""

import numpy as np
import pytest

from repro.collectives import COLLECTIVES
from repro.errors import CollectiveMismatchError
from repro.mpi.comm import context_factory
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.simulator.engine import Engine
from repro.simulator.requests import CollectiveRequest

PARAMS = HockneyParams(alpha=1e-5, beta=1e-9)
P, BASE = 4, 8


def _comms(comm):
    """``comm`` and one of each kind of communicator derived from it."""
    return {
        "world": comm,
        "split": comm.split_by(lambda r: r % 2),
        "dup": comm.dup(),
        "subset": comm.subset([1, 3]),
    }


def test_at_base_zero_the_wire_is_the_world():
    for comm in _comms(context_factory(P)(1).world).values():
        assert comm._wire is comm._world_ranks


def test_a_bound_run_observes_its_own_ranks():
    plain = _comms(context_factory(P)(1).world)
    bound = _comms(context_factory(P, base=BASE)(1).world)
    assert bound["world"].ctx.rank == 1
    for name, comm in bound.items():
        assert comm.rank == plain[name].rank
        assert comm.world_ranks == plain[name].world_ranks
        assert [comm.world_rank(r) for r in range(comm.size)] \
            == list(comm.world_ranks)
        assert comm._wire == tuple(r + BASE for r in comm.world_ranks)


def test_one_wire_tuple_per_communicator_not_per_member():
    context = context_factory(P, base=BASE)
    a, b = _comms(context(1).world), _comms(context(3).world)
    for name in a:
        assert a[name]._wire is b[name]._wire


def test_only_point_to_point_peers_are_offset():
    comm = context_factory(P, base=BASE)(1).world.split_by(lambda r: r % 2)
    assert comm.world_ranks == (1, 3) and comm.rank == 0
    peers = {
        "send": next(comm.send("x", 1)).dst,
        "recv": next(comm.recv(1)).src,
        "recv_retry": next(comm.recv_retry(1)).src,
        "isend": next(comm.isend("x", 1)).dst,
        "irecv": next(comm.irecv(1)).src,
    }
    assert peers == dict.fromkeys(peers, 3 + BASE)
    shift = next(comm.sendrecv("x", dest=1, source=0))
    assert (shift.dst, shift.src) == (3 + BASE, 1 + BASE)


def test_collective_announcements_stay_job_relative():
    context = context_factory(P, base=BASE)
    first, second = context(0).world, context(1).world
    request = next(first.bcast("x", root=0))
    assert isinstance(request, CollectiveRequest)
    assert request.participants == (0, 1, 2, 3)
    assert (request.me, request.root) == (0, 0)
    # The registry still catches a participant that disagrees, naming
    # the field, exactly as at base 0.
    with pytest.raises(CollectiveMismatchError) as err:
        next(second.bcast(None, root=2))
    assert err.value.check == "collective-root-mismatch"


def _bcast_program(ctx, algorithm):
    payload = np.arange(64.0) if ctx.rank == 1 else None
    out = yield from ctx.world.bcast(payload, root=1, algorithm=algorithm)
    return ctx.rank, out


def _idle():
    return None
    yield


@pytest.mark.parametrize("algorithm", sorted(COLLECTIVES["bcast"].algorithms))
def test_every_broadcast_runs_the_same_at_a_base(algorithm):
    # Engine ranks 0..BASE-1 are somebody else's (idle here); the run
    # occupies BASE..BASE+P-1 of the same engine.
    def run(base):
        context = context_factory(P, base=base)
        programs = [_idle() for _ in range(base)]
        programs += [_bcast_program(context(r), algorithm) for r in range(P)]
        sim = Engine(HomogeneousNetwork(base + P, PARAMS)).run(programs)
        return sim.stats[base:], sim.return_values[base:]

    plain_stats, plain_values = run(0)
    bound_stats, bound_values = run(BASE)
    for (rank, out), (_rank, want) in zip(bound_values, plain_values):
        assert rank == _rank  # ctx.rank, not the engine's
        assert np.array_equal(out, want)
    for got, want in zip(bound_stats, plain_stats):
        assert got.rank == want.rank + BASE
        assert (got.messages_sent, got.bytes_sent, got.comm_time,
                got.clock) == (want.messages_sent, want.bytes_sent,
                               want.comm_time, want.clock)
