"""A broadcast stepped from its schedule is its expansion, bit for bit.

Under global time (contention, a transfer or span trace, faults, a job
stream) the engine drives each recordable broadcast from the per-rank
legs of its recorded schedule instead of the algorithm's generators
(:meth:`repro.simulator.engine.Engine._step`).  Everything observable —
every ``RankStats`` float and counter (retries included), every return
value, every ``TransferRecord`` in order, every span — must equal the
same run with every message moved through the generators
(``ExpandingEngine``).

The sweep covers every broadcast the recorder accepts, p = 2..17, roots
0 and p-1 with the root sometimes announcing last.  Expansion puts its
messages on the wire through the same method a stepped leg does, so a
traced run is also held to the wire itself: each message charged to
its sender, no two overlapping on one link, one mode on a wire every
leg shares.  Below it, the fail-safes: what still expands through the
generators says why, and waiting for a root changes nothing a run can
observe.
"""

import numpy as np
import pytest

from repro.cluster import JobSpec, serve
from repro.cluster.engine import ClusterEngine
from repro.collectives import COLLECTIVES
from repro.errors import DeadlockError
from repro.mpi.comm import CollectiveOptions
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.network.torus import Torus3D
from repro.network.tree import SwitchedCluster
from repro.payloads import PhantomArray
from repro.simulator import replay
from repro.simulator.engine import Engine, ExpandingEngine
from repro.simulator.requests import ComputeRequest
from repro.simulator.runtime import run_spmd
from repro.verify import VerifyOptions
from tests.pins import both, observed, spmd, stats

PARAMS = HockneyParams(alpha=1e-5, beta=1e-9)
FAULTS = "drop(p=0.05); slow(rank=3,factor=2)"

#: Every broadcast the recorder accepts (the rest always expand).
RECORDABLE = sorted(
    name for name in COLLECTIVES["bcast"].algorithms
    if replay.record(name, 8, 0, None, 4096, 8).__class__ is replay.Schedule)


class OneWire(HomogeneousNetwork):
    """Every message crosses one shared link: under contention each leg
    waits for the one before it."""

    def links(self, src, dst):
        return (("wire",),) if src != dst else ()


#: Engine switches that make a run observe global time, and the network
#: each runs on (18 nodes: room for p = 17).
MODES = {
    "one shared wire, transfer trace": dict(
        network=lambda: OneWire(18, PARAMS), contention=True,
        collect_trace=True),
    "torus contention, transfer trace": dict(
        network=lambda: Torus3D((3, 3, 2), PARAMS), contention=True,
        collect_trace=True),
    "switched contention": dict(
        network=lambda: SwitchedCluster(18, 4, PARAMS), contention=True),
    "span trace": dict(network=lambda: Torus3D((3, 3, 2), PARAMS),
                       spans=True),
    "faults": dict(network=lambda: Torus3D((3, 3, 2), PARAMS),
                   faults=FAULTS),
}


def rounds(algorithm, size):
    """Four broadcasts over the world from roots 0 and p-1, numpy and
    phantom payloads; the third one's root announces last."""
    def body(ctx):
        out = []
        for i, root in enumerate((0, size - 1, size - 1, 0)):
            late = 60e-6 if i == 2 and ctx.rank == root else 0.0
            yield ComputeRequest(((ctx.rank * 7 + i * 3) % 5) * 13e-6 + late)
            payload = None
            if ctx.rank == root:
                count = (4 * size + 1, 64 * size + 3, 7 * size, 4096)[i]
                payload = (PhantomArray((count,)) if i % 2
                           else np.arange(float(count)) + i)
            got = yield from ctx.world.bcast(payload, root=root,
                                             algorithm=algorithm)
            out.append(got)
        return out
    return spmd(size, body)


def wire_rules_hold(run, network):
    """Held against the wire, not against expansion (both engines put
    every message on it through one method): each traced message is
    charged to its sender, and messages that share a link never
    overlap on it."""
    sent = [0] * len(run.stats)
    for t in run.trace:
        sent[t.src] += 1
    assert sent == [s.messages_sent for s in run.stats]
    free = {}
    for t in sorted(run.trace, key=lambda t: t.start):
        for link in network.links(t.src, t.dst):
            assert free.get(link, 0.0) <= t.start
            free[link] = t.finish


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("size", range(2, 18))
@pytest.mark.parametrize("algorithm", RECORDABLE)
def test_stepped_equals_expansion(algorithm, size, mode):
    stepped, _ = both(rounds(algorithm, size), **MODES[mode])
    assert stepped.replay["stepped"] == stepped.replay["expanded"] == 4
    assert stepped.replay["replayed"] == 0
    if MODES[mode].get("collect_trace"):
        assert len(stepped.trace) == stepped.total_messages > 0
        wire_rules_hold(stepped, MODES[mode]["network"]())


def test_the_sweep_covers_every_blocking_broadcast():
    assert RECORDABLE == ["binary", "binomial", "chain", "flat", "vandegeijn"]


# -- a job stream ---------------------------------------------------------------

def test_a_stream_with_a_slot_failure_steps_what_expansion_moves(monkeypatch):
    # The failure lands mid-broadcast: the killed attempt's legs still
    # in flight complete, charging nothing anyone reads and posting
    # nothing, as its expanded messages would.
    dead_legs = []
    leg_done = ClusterEngine._leg_done

    def spy(engine, inst, leg, finish):
        sender = inst.states[inst.steps[leg][0]]
        dead_legs.append(sender.finished)
        leg_done(engine, inst, leg, finish)

    def stream():
        jobs = [JobSpec(jid=j, arrival=j * 2e-4, n=256, p=p)
                for j, p in enumerate((16, 8, 16, 4))]
        result = serve(jobs, machine=Torus3D((4, 2, 4), PARAMS),
                       slot_grid=(4, 8), gamma=1e-11, collect_trace=True,
                       failures="kill(rank=3,t=0.0003)",
                       options=CollectiveOptions(bcast="vandegeijn"))
        return [(r.status, r.failed_attempts, r.finish,
                 [(a.base, a.start, a.end) for a in r.attempts],
                 observed(r.result)) for r in result.records]

    monkeypatch.setattr(ClusterEngine, "_leg_done", spy)
    stepped = stream()
    monkeypatch.setattr(ClusterEngine, "_replay", False)
    expanded = stream()
    assert stepped == expanded
    assert sum(failed for _s, failed, *_ in stepped) == 1
    assert any(dead_legs) and not all(dead_legs)


# -- the fail-safes ---------------------------------------------------------------

def one_bcast(algorithm, payload, root=0, late=None, delay=5e-5):
    """One broadcast over the world; rank ``late`` arrives ``delay``
    after the others."""
    def body(ctx):
        yield ComputeRequest(delay if ctx.rank == late else ctx.rank * 1e-6)
        got = yield from ctx.world.bcast(
            payload if ctx.rank == root else None, root=root,
            algorithm=algorithm)
        return got
    return body


@pytest.mark.parametrize("algorithm, payload, reason", [
    ("vandegeijn", np.arange(3.0), "zero-byte send"),
    ("binomial", {"step": 3}, "payload without an array signature"),
    ("pipelined", np.arange(64.0), "non-blocking schedule"),
    ("ft_binomial", np.arange(64.0), "non-blocking schedule"),
])
@pytest.mark.parametrize("late", [None, 0])
def test_a_shape_the_recorder_refuses_expands_and_says_why(
        algorithm, payload, reason, late):
    stepped, _ = both(spmd(8, one_bcast(algorithm, payload, late=late)),
                      lambda: Torus3D((2, 2, 2), PARAMS), contention=True)
    assert stepped.replay == {"replayed": 0, "expanded": 1, "stepped": 0,
                              "recorded": stepped.replay["recorded"],
                              "reasons": {reason: 1}}


def test_a_segmented_fourcolor_broadcast_under_contention_expands():
    def body(ctx):
        got = yield from ctx.world.bcast(
            PhantomArray((4096,)) if ctx.rank == 0 else None, root=0,
            algorithm="fourcolor")
        return got

    stepped, _ = both(spmd(8, body, CollectiveOptions(bcast_segments=4)),
                      lambda: Torus3D((2, 2, 2), PARAMS), contention=True)
    assert stepped.replay["reasons"] == {"non-blocking schedule": 1}
    assert stepped.replay["stepped"] == 0


@pytest.mark.parametrize("switch, reason", [
    (dict(contention=True, backend=ExpandingEngine(
        Torus3D((2, 2, 2), PARAMS), contention=True)),
     "expansion requested"),
    (dict(eager_threshold=64), "eager protocol"),
    (dict(contention=True, eager_threshold=64), "contention"),
    (dict(contention=True, verify=VerifyOptions(schedules=0)), "contention"),
])
def test_a_run_that_must_move_every_message_does(switch, reason):
    # The reference engine moves every message through the generators;
    # an eager send does not wait for its receive, which no recorded
    # schedule has; a verified run's recorder must see each rank post
    # its legs, which a stepped rank does not.
    body = one_bcast("vandegeijn", np.arange(4096.0))
    network = Torus3D((2, 2, 2), PARAMS)
    sim = run_spmd(body, 8, network=network, **switch)
    assert sim.replay == {"replayed": 0, "expanded": 1, "stepped": 0,
                          "recorded": 0, "reasons": {reason: 1}}
    engine = {k: v for k, v in switch.items()
              if k not in ("backend", "verify")}
    reference = ExpandingEngine(network, **engine).run(spmd(8, body)())
    assert stats(sim) == stats(reference)


@pytest.mark.parametrize("root", [0, 4])
def test_a_broadcast_whose_receives_time_out_never_waits_for_its_root(root):
    # Held back until a root 0.1 s late, a non-root would post its
    # first timed receive after the deadline it runs from.
    stepped, _ = both(
        spmd(5, one_bcast("ft_binomial", np.arange(64.0), root=root,
                          late=root, delay=0.1)),
        lambda: Torus3D((2, 2, 2), PARAMS), contention=True,
        collect_trace=True)
    assert sum(s.timeouts for s in stepped.stats) > 0
    assert stepped.replay["reasons"] == {"non-blocking schedule": 1}


@pytest.mark.parametrize("algorithm", RECORDABLE)
@pytest.mark.parametrize("root", [0, 5])
def test_non_roots_that_announce_before_the_root_give_the_same_floats(
        algorithm, root):
    stepped, _ = both(
        spmd(8, one_bcast(algorithm, PhantomArray((4096,)), root=root,
                          late=root)),
        lambda: Torus3D((2, 2, 2), PARAMS), contention=True,
        collect_trace=True)
    assert stepped.replay["stepped"] == 1
    # Every non-root waited for the root; none of its legs started early.
    assert min(t.start for t in stepped.trace) >= 5e-5


def deadlock(engine, body, nranks=4):
    with pytest.raises(DeadlockError) as caught:
        engine(Torus3D((2, 2, 1), PARAMS), contention=True).run(
            spmd(nranks, body)())
    return caught.value


@pytest.mark.parametrize("missing", ["root", "non-root"])
@pytest.mark.parametrize("algorithm", ["binomial", "vandegeijn"])
def test_a_broadcast_one_rank_never_joins_deadlocks_as_expansion_does(
        missing, algorithm):
    absent = 0 if missing == "root" else 2

    def body(ctx):
        if ctx.rank == absent:
            return None
        yield ComputeRequest(ctx.rank * 1e-6)
        got = yield from ctx.world.bcast(
            PhantomArray((64,)) if ctx.rank == 0 else None, root=0,
            algorithm=algorithm)
        return got

    stepped = deadlock(Engine, body)
    expanded = deadlock(ExpandingEngine, body)
    assert stepped.blocked == expanded.blocked
    assert str(stepped) == str(expanded)
