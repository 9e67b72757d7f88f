"""Replay is exact or absent, never approximate.

A fault-free DES records a blocking broadcast's message schedule once
and prices every later instance by arithmetic
(:mod:`repro.simulator.replay`).  Everything observable — every
``RankStats`` field, every return value, the data-mode product — must
equal, bit for bit, the same run with every message stepped
(``ExpandingEngine``: the internal switch the verifier uses).

The sweep is registry-driven, like ``tests/collectives/conftest.py``: a
broadcast algorithm enrols by registration.  Below it, one test per way
of getting replay wrong: each fails when its guard is removed from the
engine or the recorder.
"""

import numpy as np
import pytest

from repro.cluster import JobSpec, serve
from repro.cluster.engine import ClusterEngine
from repro.collectives import COLLECTIVES
from repro.core.hsumma import run_hsumma
from repro.core.summa import run_summa
from repro.errors import DeadlockError
from repro.mpi.comm import CollectiveOptions, context_factory
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.network.torus import Torus3D
from repro.network.tree import SwitchedCluster
from repro.payloads import PhantomArray
from repro.simulator import replay
from repro.simulator.engine import Engine, ExpandingEngine
from repro.simulator.requests import RECV_TIMEOUT, ComputeRequest
from repro.simulator.runtime import run_spmd
from repro.verify import Recorder, VerifyOptions
from repro.verify.corpus import run_corpus
from repro.verify.session import VerifySession
from tests.pins import assert_identical, bits, both, spmd, stats

PARAMS = HockneyParams(alpha=1e-5, beta=1e-9)
SIZES = (2, 3, 5, 8, 13, 16)
NETWORKS = {
    "homogeneous": lambda: HomogeneousNetwork(16, PARAMS),
    "switched": lambda: SwitchedCluster(16, 4, PARAMS),
    "torus": lambda: Torus3D((4, 2, 2), PARAMS),
}
HOMOGENEOUS = NETWORKS["homogeneous"]
#: Algorithms that are a straight line of blocking operations.
REPLAYABLE = {"flat", "binomial", "binary", "chain", "vandegeijn"}


def stagger(rank, i):
    """A different arrival clock for every rank before broadcast ``i``
    (zero for some: simultaneous arrivals are a case too)."""
    return ((rank * 7 + i * 3) % 5) * 37e-6


# -- the sweep ----------------------------------------------------------------

def sweep_program(algorithm, size, nranks=16):
    """Consecutive broadcasts over the first ``size`` ranks of the
    world (a sub-communicator from ``subset``) and over the world:
    every root, numpy and phantom payloads of 1, 3, size-1, 4097 and
    65536 elements, a staggered compute before each."""
    counts = (1, 3, max(size - 1, 1), 4097, 65536)

    def body(ctx):
        sub = ctx.world.subset(range(size))
        out = []
        for i in range(max(2 * size, 10)):
            yield ComputeRequest(stagger(ctx.rank, i))
            comm = ctx.world if i % 7 == 6 else sub
            if comm is None:
                continue
            root = i % comm.size
            count = counts[i % 5]
            payload = None
            if comm.rank == root:
                payload = (PhantomArray((count,)) if (i // 5) % 2
                           else np.arange(float(count)) + i)
            got = yield from comm.bcast(payload, root=root,
                                        algorithm=algorithm)
            out.append(got)
        return out

    return spmd(nranks, body)


@pytest.mark.parametrize("network", sorted(NETWORKS))
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("algorithm", sorted(COLLECTIVES["bcast"].algorithms))
def test_replay_equals_expansion(algorithm, size, network):
    replayed, _ = both(sweep_program(algorithm, size), NETWORKS[network])
    report = replayed.replay
    assert report["replayed"] + report["expanded"] == max(2 * size, 10)
    if algorithm in REPLAYABLE:
        assert report["replayed"] > 0
        # What is left is Van de Geijn cutting fewer elements than
        # ranks into zero-byte pieces.
        assert set(report["reasons"]) <= {"zero-byte send"}
    else:
        # A pipelined family member may degenerate to blocking
        # operations on two ranks, and a root's first blocking send may
        # be a zero-byte segment, seen before any non-blocking request.
        assert size == 2 or report["replayed"] == 0
        assert set(report["reasons"]) <= {"non-blocking schedule",
                                          "timed receive", "zero-byte send"}


@pytest.mark.parametrize("runner, kwargs", [
    (run_summa, dict(grid=(4, 4), block=8)),
    (run_hsumma, dict(grid=(4, 4), groups=4, outer_block=8)),
])
@pytest.mark.parametrize("bcast", sorted(REPLAYABLE))
def test_data_mode_product_is_bit_identical(monkeypatch, runner, kwargs,
                                            bcast):
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
    kwargs = dict(kwargs, gamma=1e-9, options=CollectiveOptions(bcast=bcast),
                  network=Torus3D((4, 2, 2), PARAMS))
    c_replayed, replayed = runner(a, b, **kwargs)
    monkeypatch.setattr(Engine, "_replay", False)
    c_expanded, expanded = runner(a, b, **kwargs)
    assert replayed.replay["replayed"] > 0 == expanded.replay["replayed"]
    assert c_replayed.tobytes() == c_expanded.tobytes()
    assert_identical(replayed, expanded)


# -- the named fallbacks --------------------------------------------------------

def one_bcast(algorithm, payload, root=0):
    def body(ctx):
        yield ComputeRequest(stagger(ctx.rank, 1))
        got = yield from ctx.world.bcast(
            payload if ctx.rank == root else None, root=root,
            algorithm=algorithm)
        return got
    return body


@pytest.mark.parametrize("algorithm, payload, reason", [
    ("pipelined", np.arange(64.0), "non-blocking schedule"),
    ("vandegeijn", np.arange(3.0), "zero-byte send"),
    ("binomial", {"step": 3}, "payload without an array signature"),
    ("ft_binomial", np.arange(64.0), "non-blocking schedule"),
])
def test_a_fallback_is_named_in_the_result(algorithm, payload, reason):
    replayed, _ = both(spmd(8, one_bcast(algorithm, payload)), HOMOGENEOUS)
    assert replayed.replay == {"replayed": 0, "expanded": 1, "stepped": 0,
                               "recorded": replayed.replay["recorded"],
                               "reasons": {reason: 1}}


@pytest.mark.parametrize("switch, reason", [
    (dict(contention=True), "contention"),
    (dict(collect_trace=True), "transfer trace"),
    (dict(eager_threshold=64), "eager protocol"),
    (dict(faults="drop(p=0.01)"), "faults"),
    (dict(backend=ExpandingEngine(HomogeneousNetwork(8, PARAMS))),
     "expansion requested"),
    (dict(trace=True), "transfer trace"),
])
def test_a_run_with_global_time_expands_and_says_why(switch, reason):
    # Under global time a broadcast is stepped from its recorded
    # schedule, except where every message must move through the
    # generators (the reference engine) or a send may not wait for its
    # receive.
    stepped = int(reason not in {"eager protocol", "expansion requested"})
    sim = run_spmd(one_bcast("binomial", np.arange(64.0)), 8, **switch)
    assert sim.replay == {"replayed": 0, "expanded": 1, "stepped": stepped,
                          "recorded": stepped, "reasons": {reason: 1}}


def test_backends_that_never_replay_report_none():
    sim = run_spmd(one_bcast("binomial", np.arange(64.0)), 8,
                   backend="macro")
    assert sim.replay is None


def test_spans_without_a_transfer_trace_stop_replay():
    # Root spans are kept in opening order, which replay would permute.
    replayed, _ = both(spmd(8, one_bcast("binomial", np.arange(64.0))),
                       HOMOGENEOUS, spans=True)
    assert replayed.replay["reasons"] == {"span trace": 1}


# -- trap 1: a job stream ---------------------------------------------------------

def test_a_stream_expands_and_a_later_job_still_completes(monkeypatch):
    # In a stream (cid, seq) is not unique and the scheduler observes
    # global time: ClusterEngine never replays; it steps each broadcast
    # from its schedule, keyed by the attempt's base rank.
    reports = []
    release = ClusterEngine._release

    def spy(engine):
        reports.append(engine._report)
        release(engine)

    monkeypatch.setattr(ClusterEngine, "_release", spy)
    jobs = [JobSpec(jid=j, arrival=0.0, n=256, p=16) for j in range(2)]
    result = serve(jobs, slots=32, contention=False,
                   options=CollectiveOptions(bcast="vandegeijn"))
    [report] = reports
    assert report["replayed"] == 0
    assert report["stepped"] == report["expanded"] > 0
    assert report["reasons"] == {"job stream": report["expanded"]}
    assert [r.attempts[0].base for r in result.records] == [0, 16]
    assert [sum(s.messages_sent for s in r.result.stats)
            for r in result.records] == [480, 480]


def test_a_run_bound_at_a_nonzero_base_is_priced_on_engine_ranks():
    # participants are run-relative; the wire belongs to engine ranks
    # (on a torus the two differ in every hop count).
    base, size = 5, 8

    def programs(spans=False):
        context = context_factory(size, base=base)
        idle = [(lambda: (yield ComputeRequest(0.0)))() for _ in range(base)]
        body = one_bcast("vandegeijn", PhantomArray((4096,)), root=3)
        return idle + [body(context(r)) for r in range(size)]

    replayed, _ = both(programs, NETWORKS["torus"])
    assert replayed.replay["replayed"] == 1


# -- trap 2: the verifier ----------------------------------------------------------

#: ``verdict.meta["observed_ops"]`` per corpus case at the parent of the
#: change that introduced replay (what the primary run's recorder saw;
#: a replayed broadcast would show it nothing).  ``spmd-timed-recv``
#: came later; it holds no broadcast, so its three point-to-point posts
#: are all there is to see.
PARENT_OBSERVED_OPS = {
    "summa": 16, "hsumma": 16, "hsumma-multilevel": 320,
    "summa-overlap": 16, "hsumma-overlap": 16, "cyclic": 32, "cannon": 24,
    "fox": 16, "dns3d": 32, "25d": 40, "cannon-collapsed": 16,
    "dns3d-collapsed": 64, "25d-collapsed": 32, "hetero-summa1d": 28,
    "lu": 48, "qr": 60, "spmd-collectives": 22, "summa-segmented": 48,
    "spmd-fourcolor": 48, "spmd-hypersystolic": 60, "spmd-timed-recv": 3,
}


def test_a_verified_run_observes_what_the_parent_observed():
    observed = {case.name: verdict.meta["observed_ops"]
                for case, verdict in run_corpus(
                    verify=VerifyOptions(schedules=0))}
    assert observed == PARENT_OBSERVED_OPS


def test_a_verified_run_and_its_reruns_move_every_message(monkeypatch):
    # Every message is accounted for, none through the generators: the
    # watched run replays and credits the legs to the recorder, the
    # perturbed reruns replay as an unverified run does.
    body = one_bcast("vandegeijn", np.arange(4096.0))
    unverified = run_spmd(body, 8)
    assert unverified.replay["replayed"] == 1
    runs = []
    plain_run = Engine.run

    def spy(engine, programs):
        sim = plain_run(engine, programs)
        runs.append((sim.total_messages, sim.replay))
        return sim

    monkeypatch.setattr(Engine, "run", spy)
    verified = run_spmd(body, 8, verify=VerifyOptions(schedules=2))
    assert verified.verdict.ok and verified.verdict.meta["observed_ops"] > 0
    assert verified.replay == unverified.replay
    assert stats(verified) == stats(unverified)
    assert len(runs) == 3  # the primary run and two perturbed reruns
    for messages, report in runs:
        assert messages == unverified.total_messages > 0
        assert report == unverified.replay


@pytest.mark.parametrize("switch, reason", [
    ({}, None),
    (dict(contention=True), "contention"),
    (dict(collect_trace=True), "transfer trace"),
    (dict(faults="drop(p=0.01)"), "faults"),
])
def test_a_verified_run_replays_but_never_steps(switch, reason):
    # The recorder is credited a replayed broadcast's legs; a stepped
    # one would show it nothing, so under global time it expands.
    body = one_bcast("binomial", np.arange(64.0))
    sim = run_spmd(body, 8, verify=VerifyOptions(schedules=0), **switch)
    if reason is None:
        assert sim.replay == run_spmd(body, 8).replay
        assert sim.replay["replayed"] == 1
    else:
        assert sim.replay == {"replayed": 0, "expanded": 1, "stepped": 0,
                              "recorded": 0, "reasons": {reason: 1}}
    assert sim.verdict.ok and sim.verdict.meta["observed_ops"] == 14


def skips_the_second_broadcast(ctx):
    """Rank 5 skips the second of two broadcasts and waits for a
    message rank 2 never sends."""
    for i in range(2):
        if i and ctx.rank == 5:
            got = yield from ctx.world.recv(2, tag=9)
            return got
        got = yield from ctx.world.bcast(
            np.arange(64.0) if ctx.rank == 0 else None, root=0)
    return got


def verdict_of(backend, net, **switches):
    with pytest.raises(DeadlockError) as exc:
        run_spmd(skips_the_second_broadcast, 8, network=net, backend=backend,
                 verify=VerifyOptions(schedules=0), **switches)
    return exc.value


@pytest.mark.parametrize("switch", ["contention", "collect_trace"])
def test_a_verified_deadlock_under_global_time_reads_as_expanded(switch):
    # Against the reference engine, which moves every message through
    # the generators: the verdict, the blocked ranks and the message are
    # the same to the byte.  Stepped, rank 1 would be blocked in the
    # collective instead of in its send.
    net = Torus3D((2, 2, 2), PARAMS)
    watched = verdict_of(None, net, **{switch: True})
    reference = verdict_of(ExpandingEngine(net, **{switch: True}), net)
    assert watched.verdict.to_dict() == reference.verdict.to_dict()
    assert watched.blocked == reference.blocked
    assert str(watched) == str(reference)
    assert watched.blocked[1]["kind"] == "send"


def test_a_verified_deadlock_without_global_time_keeps_its_findings():
    net = Torus3D((2, 2, 2), PARAMS)
    watched = verdict_of(None, net)
    reference = verdict_of(ExpandingEngine(net), net)
    assert watched.verdict.to_dict() == reference.verdict.to_dict()
    assert str(watched) == str(reference)


def leaks_after_three_broadcasts(ctx):
    """Three broadcasts, then nine sends nobody receives or waits for
    from ranks 0, 3 and 6."""
    for root in range(3):
        got = yield from ctx.world.bcast(
            np.arange(512.0) if ctx.rank == root else None, root=root)
    if ctx.rank in (0, 3, 6):
        for tag in (-1, -2, -3):
            yield from ctx.world.isend(got, (ctx.rank + 1) % 8, tag=tag)
    return got


def test_a_finding_lists_its_examples_in_program_order():
    # Replay changes the order in which the run first meets each
    # channel; the examples follow rank and posting order instead, so
    # the verdict is the reference engine's to the byte.
    net = Torus3D((2, 2, 2), PARAMS)
    body = leaks_after_three_broadcasts
    verify = VerifyOptions(schedules=0)
    watched = run_spmd(body, 8, network=net, verify=verify)
    reference = run_spmd(body, 8, network=net, verify=verify,
                         backend=ExpandingEngine(net))
    assert watched.replay["replayed"] == 3
    assert watched.verdict.to_dict() == reference.verdict.to_dict()
    leaked, = (f for f in watched.verdict.findings
               if f.check == "leaked-send")
    assert leaked.detail["count"] == 9
    assert [e.split(":")[0] for e in leaked.detail["examples"]] == [
        "rank 0", "rank 0", "rank 0", "rank 3"]


@pytest.mark.parametrize("size", [3, 8])
@pytest.mark.parametrize("algorithm", sorted(REPLAYABLE))
def test_a_replayed_broadcast_is_credited_as_its_expansion_is_seen(
        algorithm, size):
    # Every record on every channel, in order: kind, peer, size,
    # fusion, per-rank ordinal, resume and reconstructed match.
    def observe(engine):
        session = VerifySession(VerifyOptions(schedules=0), 16)
        sim = session.execute(engine, sweep_program(algorithm, size)())
        recorder = session.recorder
        recorder.reconstruct_matching()
        return sim.replay["replayed"], {
            key: [(op.rank, op.kind, op.peer, op.nbytes, op.blocking,
                   op.fused, op.index, op.resumed, op.matched)
                  for op in chan.sends + chan.recvs]
            for key, chan in recorder.channels.items()}

    replayed, watched = observe(Engine(HOMOGENEOUS()))
    expanded, reference = observe(ExpandingEngine(HOMOGENEOUS()))
    assert replayed > 0 == expanded
    assert watched == reference


def handshake(comm, obj, root, segments=None):
    """A broadcast whose non-roots first tell the root they are ready:
    a straight line of blocking operations, so it replays, but one a
    non-root opens with a send, so it lays out no lanes."""
    if comm.rank != root:
        yield from comm.send(None, root, tag=-99, nbytes=8)
        got = yield from comm.recv(root, tag=-99)
        return got
    for peer in range(comm.size):
        if peer != root:
            yield from comm.recv(peer, tag=-99)
    for peer in range(comm.size):
        if peer != root:
            yield from comm.send(obj, peer, tag=-99)
    return obj


def test_a_verified_run_expands_a_schedule_without_lanes(monkeypatch):
    monkeypatch.setitem(COLLECTIVES["bcast"].algorithms, "handshake",
                        handshake)
    body = one_bcast("handshake", np.arange(64.0))
    assert run_spmd(body, 4).replay["replayed"] == 1
    sim = run_spmd(body, 4, verify=VerifyOptions(schedules=0))
    assert sim.replay["reasons"] == {"a non-root sends first": 1}
    assert sim.verdict.ok and sim.verdict.meta["observed_ops"] == 12


def test_a_verified_macro_run_credits_no_legs(monkeypatch):
    credited = []
    credit = Recorder._credit

    def spy(recorder, obs, request, schedule):
        credited.append(request)
        credit(recorder, obs, request, schedule)

    monkeypatch.setattr(Recorder, "_credit", spy)
    body = one_bcast("binomial", np.arange(64.0))
    macro = run_spmd(body, 8, backend="macro",
                     verify=VerifyOptions(schedules=0))
    assert macro.verdict.ok and macro.verdict.meta["observed_ops"] == 0
    assert credited == []
    run_spmd(body, 8, verify=VerifyOptions(schedules=0))
    assert len(credited) == 8


def test_a_prebuilt_engine_replays_again_after_a_verified_run():
    engine = Engine(HomogeneousNetwork(8, PARAMS))
    body = one_bcast("binomial", np.arange(64.0))
    run_spmd(body, 8, backend=engine, verify=VerifyOptions(schedules=0))
    assert run_spmd(body, 8, backend=engine).replay["replayed"] == 1


# -- trap 3: a zero-byte message is eager even at eager_threshold 0 ------------------

def test_a_schedule_with_a_zero_byte_send_is_refused():
    # Three elements over eight ranks: five zero-byte pieces.  Replayed
    # as rendezvous they are right at simultaneous arrival — the
    # recorder's self-check passes — and wrong under staggered ones.
    assert replay.record("vandegeijn", 8, 0, None, 3, 8) == "zero-byte send"
    assert isinstance(replay.record("vandegeijn", 8, 0, None, 8, 8),
                      replay.Schedule)
    both(spmd(8, one_bcast("vandegeijn", PhantomArray((3,)))), HOMOGENEOUS)


# -- trap 4: left == right ---------------------------------------------------------

@pytest.mark.parametrize("root", [0, 1])
def test_a_two_rank_ring_pairs_each_leg_with_the_right_one(root):
    replayed, _ = both(spmd(2, one_bcast(
        "vandegeijn", np.arange(4097.0), root=root)), HOMOGENEOUS)
    assert replayed.replay["replayed"] == 1


# -- trap 5: one decision per collective, taken when it fills ---------------------

@pytest.mark.parametrize("algorithm", ["pipelined", "binomial"])
def test_a_verdict_learned_while_another_collective_is_half_parked(algorithm):
    # Two disjoint communicators broadcast the same shape.  The first
    # fills (and learns the shape's verdict) while the second has one
    # rank parked and one still computing: both ranks of the second
    # must take one path.
    def body(ctx):
        pair = ctx.world.split_by(lambda r: r // 2)
        if ctx.rank == 3:
            yield ComputeRequest(1e-3)
        got = yield from pair.bcast(
            np.arange(64.0) if pair.rank == 0 else None, root=0,
            algorithm=algorithm)
        return got

    replayed, _ = both(spmd(4, body), HOMOGENEOUS)
    assert replayed.replay["replayed"] == (2 if algorithm == "binomial" else 0)


# -- trap 6: a timed receive observes global time ---------------------------------

@pytest.mark.parametrize("payload", ["message", np.arange(8.0)])
def test_a_timed_receive_releases_what_is_parked(payload):
    # Ranks 0-2 broadcast; rank 2 arrives at 1.0 s.  Rank 1 has the
    # payload after 28 us and sends on to rank 3, which gives up at
    # 0.5 s.  Parked until rank 2 arrives, rank 1 would let it.
    def body(ctx):
        trio = ctx.world.subset([0, 1, 2])
        if ctx.rank == 3:
            got = yield from ctx.world.recv(1, tag=7, timeout=0.5)
            return "timeout" if got is RECV_TIMEOUT else got
        if ctx.rank == 2:
            yield ComputeRequest(1.0)
        got = yield from trio.bcast(payload if ctx.rank == 0 else None,
                                    root=0, algorithm="binomial")
        if ctx.rank == 1:
            handle = yield from ctx.world.isend(got, 3, tag=7)
            yield from ctx.world.wait(handle)
        return got

    replayed, _ = both(spmd(4, body), HOMOGENEOUS)
    assert bits(replayed.return_values[3]) == bits(payload)
    assert replayed.stats[3].timeouts == 0
    assert replayed.replay["reasons"] == {"timed receive": 1}


@pytest.mark.parametrize("verify", [None, True])
def test_a_released_broadcast_leaves_no_count_behind(monkeypatch, verify):
    # Rank 3's timed receive releases the three ranks parked at the
    # broadcast.  How many participants are still to come is kept for
    # _step alone, which consumes it when rank 3 arrives; a watched run
    # never steps, so it must not keep the count past the run.
    left = []
    release = Engine._release

    def spy(engine):
        left.append(dict(engine._pending))
        release(engine)

    monkeypatch.setattr(Engine, "_release", spy)

    def body(ctx):
        if ctx.rank == 3:
            yield from ctx.world.recv(0, tag=9, timeout=1e-3)
        got = yield from ctx.world.bcast(
            np.arange(8.0) if ctx.rank == 0 else None, root=0,
            algorithm="binomial")
        return got

    sim = run_spmd(body, 4, verify=verify)
    assert bits(sim.return_values[3]) == bits(np.arange(8.0))
    assert sim.replay["reasons"] == {"timed receive": 1}
    assert left and all(pending == {} for pending in left)


# -- trap 6, continued: an unfilled broadcast at drain ------------------------------

def test_a_broadcast_one_rank_never_joins_deadlocks_as_the_parent_did():
    def body(ctx):
        if ctx.rank == 2:
            return None
        got = yield from ctx.world.bcast(
            np.arange(64.0) if ctx.rank == 0 else None, root=0,
            algorithm="binomial")
        return got

    with pytest.raises(DeadlockError) as replayed:
        Engine(HomogeneousNetwork(4, PARAMS)).run(spmd(4, body)())
    with pytest.raises(DeadlockError) as expanded:
        ExpandingEngine(HomogeneousNetwork(4, PARAMS)).run(spmd(4, body)())
    assert replayed.value.blocked == expanded.value.blocked
    assert {info["kind"] for info in replayed.value.blocked.values()} \
        <= {"send", "recv"}
    assert str(replayed.value) == str(expanded.value)


def test_a_broadcast_whose_last_rank_waits_on_a_parked_one_completes():
    # Flat tree: rank 1 has the payload once ranks 0 and 1 arrived, and
    # rank 2 joins only after hearing from rank 1.
    def body(ctx):
        if ctx.rank == 2:
            yield from ctx.world.recv(1, tag=3)
        got = yield from ctx.world.bcast(
            np.arange(64.0) if ctx.rank == 0 else None, root=0,
            algorithm="flat")
        if ctx.rank == 1:
            yield from ctx.world.send(got, 2, tag=3)
        return got

    replayed, _ = both(spmd(3, body), HOMOGENEOUS)
    assert replayed.replay["reasons"] == {"unfilled at drain": 1}


# -- after a replay, ranks step out of time order -----------------------------------
#
# A rank that leaves a broadcast before its last participant arrived is
# resumed at an exit clock the queue has already passed.  What it then
# does must come out as if it had been done on time.

def early_leaver(after):
    """Flat broadcast over ranks 0-3 (rank 3 arrives at 1 ms): ranks 1
    and 2 leave long before that; ``after(ctx)`` runs next."""
    def body(ctx):
        if ctx.rank == 3:
            yield ComputeRequest(1e-3)
        quad = ctx.world.subset([0, 1, 2, 3])
        if quad is not None:
            yield from quad.bcast(
                PhantomArray((512,)) if ctx.rank == 0 else None, root=0,
                algorithm="flat")
        result = yield from after(ctx)
        return result
    return body


@pytest.mark.parametrize("late_leg", ["send", "recv"])
def test_a_fused_shift_behind_its_peer_starts_at_the_later_post(late_leg):
    # Rank 1 shifts right after leaving; one leg's peer (rank 4) posted
    # at 0.5 ms — earlier in processing order, later in virtual time.
    dest, source = (4, 2) if late_leg == "send" else (2, 4)

    def after(ctx):
        if ctx.rank == 1:
            got = yield from ctx.world.sendrecv(PhantomArray((64,)), dest,
                                                source)
            return got
        if ctx.rank == 4:
            yield ComputeRequest(5e-4)
        if ctx.rank == dest:
            got = yield from ctx.world.recv(1)
            return got
        if ctx.rank == source:
            yield from ctx.world.send(PhantomArray((32,)), 1)

    replayed, _ = both(spmd(5, early_leaver(after)), HOMOGENEOUS)
    assert replayed.replay["replayed"] == 1


def test_a_zero_byte_send_behind_its_receive_is_still_eager():
    def after(ctx):
        if ctx.rank == 4:
            yield ComputeRequest(5e-4)
            yield from ctx.world.recv(1, tag=2)
        elif ctx.rank == 1:
            yield from ctx.world.send(None, 4, tag=2)
    both(spmd(5, early_leaver(after)), HOMOGENEOUS)


def test_a_wait_on_a_handle_finished_before_the_wait_charges_nothing():
    def body(ctx):
        # Rank 4 waits (from 0.5 ms) for a message rank 1 sends right
        # after leaving the broadcast at ~20 us — delivered only once
        # rank 3 has let the broadcast fill.
        handle = None
        if ctx.rank == 4:
            handle = yield from ctx.world.irecv(1, tag=2)
            yield ComputeRequest(5e-4)
            got = yield from ctx.world.wait(handle)
            return got
        result = yield from early_leaver(after)(ctx)
        return result

    def after(ctx):
        if ctx.rank == 1:
            yield from ctx.world.send(PhantomArray((8,)), 4, tag=2)

    replayed, _ = both(spmd(5, body), HOMOGENEOUS)
    assert replayed.stats[4].comm_time == 0.0


def patient(ctx, writer):
    """Rank 1 gives ``writer`` 100 us to write, then waits for good."""
    got = yield from ctx.world.recv(writer, tag=2, timeout=1e-4)
    if got is not RECV_TIMEOUT:
        return ("on time", got)
    got = yield from ctx.world.recv(writer, tag=2)
    return ("late", got)


def test_a_send_posted_past_the_deadline_does_not_beat_it(monkeypatch):
    # Rank 4's send is queued (posted at 0.5 ms) when rank 1, resumed
    # at its exit clock, posts a receive that expires at ~0.1 ms.  The
    # receive is never queued, so its expiry meets a channel whose
    # receive queue was never created.
    expired = []
    recv_timeout = Engine._recv_timeout

    def spy(engine, state, ep, chan, deadline):
        expired.append((type(engine).__name__, chan.recvs is None,
                        deadline))
        recv_timeout(engine, state, ep, chan, deadline)

    monkeypatch.setattr(Engine, "_recv_timeout", spy)

    def after(ctx):
        if ctx.rank == 1:
            result = yield from patient(ctx, writer=4)
            return result
        if ctx.rank == 4:
            yield ComputeRequest(5e-4)
            yield from ctx.world.send(PhantomArray((8,)), 1, tag=2)

    replayed, _ = both(spmd(5, early_leaver(after)), HOMOGENEOUS)
    assert replayed.return_values[1][0] == "late"
    # Expanded, nothing steps ahead: the receive is queued as usual.
    assert expired == [("Engine", True, 0.000114096),
                       ("ExpandingEngine", False, 0.000114096)]
    stats1 = replayed.stats[1]
    assert (stats1.timeouts, stats1.clock, stats1.comm_time) \
        == (1, 0.000510064, 0.000510064)


def test_a_wait_that_ends_later_does_not_step_the_rank_ahead():
    # Rank 1 leaves the broadcast first and posts the timed receive;
    # rank 2 leaves second and waits on a handle that is done — at
    # 0.5 ms, long after the deadline.  Stepped on at once, its send
    # would find the timed receive still posted.
    def body(ctx):
        if ctx.rank == 4:
            yield ComputeRequest(5e-4)
            yield from ctx.world.send(PhantomArray((8,)), 2, tag=1)
            return None
        handle = None
        if ctx.rank == 2:
            handle = yield from ctx.world.irecv(4, tag=1)

        def after(ctx):
            if ctx.rank == 1:
                result = yield from patient(ctx, writer=2)
                return result
            if ctx.rank == 2:
                yield from ctx.world.wait(handle)
                yield from ctx.world.send(PhantomArray((8,)), 1, tag=2)

        result = yield from early_leaver(after)(ctx)
        return result

    replayed, _ = both(spmd(5, body), HOMOGENEOUS)
    assert replayed.return_values[1][0] == "late"


def test_a_rank_woken_before_its_clock_is_stepped_at_its_clock():
    # Rank 4 waits from 0.5 ms on a message that — once the broadcast
    # has filled — turns out to have landed at ~40 us.  Woken by that
    # completion, it must not write to rank 1 before the queue has
    # passed rank 1's deadline.
    def body(ctx):
        if ctx.rank == 4:
            handle = yield from ctx.world.irecv(2, tag=1)
            yield ComputeRequest(5e-4)
            yield from ctx.world.wait(handle)
            yield from ctx.world.send(PhantomArray((8,)), 1, tag=2)
            return None

        def after(ctx):
            if ctx.rank == 1:
                result = yield from patient(ctx, writer=4)
                return result
            if ctx.rank == 2:
                yield from ctx.world.send(PhantomArray((8,)), 4, tag=1)

        result = yield from early_leaver(after)(ctx)
        return result

    replayed, _ = both(spmd(5, body), HOMOGENEOUS)
    assert replayed.return_values[1][0] == "late"
