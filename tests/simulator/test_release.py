"""What an engine keeps after a run, and the two stepping contracts a
job stream leans on: a finished rank is never stepped again, and the
engine says when a program returns."""

import gc
import weakref

import pytest

from repro.errors import DeadlockError
from repro.mpi.comm import make_contexts
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.simulator.backends import MacroBackend
from repro.simulator.engine import Engine
from repro.simulator.requests import ComputeRequest, RecvRequest, SendRequest

PARAMS = HockneyParams(alpha=1e-5, beta=1e-9)


def _sender():
    yield SendRequest(1, 0, b"x" * 100)


def _receiver():
    data = yield RecvRequest(0, 0)
    return data


class ChannelSpy(Engine):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.refs = []

    def _make_channel(self, src, dst, tag):
        chan = super()._make_channel(src, dst, tag)
        self.refs.append(weakref.ref(chan))
        return chan


def test_a_finished_run_is_freed_by_reference_count():
    # An engine is a reference cycle (its dispatch table holds its own
    # bound methods), so anything it still held after a run would wait
    # for the collector.
    gc.collect()
    gc.disable()
    try:
        engine = ChannelSpy(HomogeneousNetwork(2, PARAMS))
        programs = [_sender(), _receiver()]
        refs = [weakref.ref(gen) for gen in programs]
        result = engine.run(programs)
        refs += engine.refs  # the one channel
        del programs, engine  # rank states were the programs' last owners
        assert result.return_values[1] == b"x" * 100
        assert len(refs) == 3
        assert [ref for ref in refs if ref() is not None] == []
    finally:
        gc.enable()


def test_a_failed_run_is_released_too_and_the_engine_runs_again():
    engine = ChannelSpy(HomogeneousNetwork(2, PARAMS))
    with pytest.raises(DeadlockError):
        engine.run([_receiver(), _receiver()])
    assert not hasattr(engine, "_channels")
    result = engine.run([_sender(), _receiver()])
    assert result.return_values[1] == b"x" * 100


def test_a_deadlocked_macro_run_releases_the_ranks_it_parked():
    # The park table belongs to the run (_setup / _release), whichever
    # backend fills it: a rank parked on a collective nobody completes
    # must not stay reachable from the engine's reference cycle.
    refs = []

    class Spy(MacroBackend):
        def _collective(self, state, request, now):
            # The rank state is the program's only owner.
            refs.append(weakref.ref(state.gen))
            return super()._collective(state, request, now)

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.world.bcast(b"x" * 100, root=0)

    gc.collect()
    gc.disable()
    try:
        engine = Spy(HomogeneousNetwork(2, PARAMS))
        try:
            engine.run([program(ctx) for ctx in make_contexts(2)])
        except DeadlockError as exc:
            assert exc.blocked[0]["kind"] == "collective"
        else:
            raise AssertionError("rank 0 should be left parked")
        assert not hasattr(engine, "_pending")
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()


def test_an_engine_stays_within_the_shared_key_limit(monkeypatch):
    # CPython shares one key table among the instance dictionaries of a
    # class while they hold at most 30 attributes; past that every
    # ``self.x`` of the hot path slows down (8 % of a collapsed macro
    # run).  A stream engine is past it and pays per message anyway.
    from repro.algorithms.cannon import run_cannon
    from repro.payloads import PhantomArray
    from repro.simulator.runtime import run_spmd

    held = {}
    release = Engine._release

    def spy(engine):
        held[type(engine).__name__] = len(vars(engine))
        release(engine)

    monkeypatch.setattr(Engine, "_release", spy)

    def program(ctx):
        yield from ctx.world.bcast(b"x" if ctx.rank == 0 else None, root=0)

    run_spmd(program, 4)
    run_spmd(program, 4, backend="macro")
    A = PhantomArray((64, 64))
    sim = run_cannon(A, A, grid=(4, 4), backend="macro")[1]
    assert sim.collapse["mode"] == "collapsed"
    assert set(held) == {"Engine", "MacroBackend", "CollapsedMacroEngine"}
    assert max(held.values()) <= 30, held


def test_rank_finished_hook_fires_once_per_program_at_its_resume_time():
    seen = []

    class Hooked(Engine):
        def _rank_finished(self, state, time):
            seen.append((state.stats.rank, time, state.retval))

    def worker(seconds, value):
        yield ComputeRequest(seconds)
        return value

    Hooked(HomogeneousNetwork(2, PARAMS)).run(
        [worker(2.0, "slow"), worker(1.0, "fast")])
    assert seen == [(1, 1.0, "fast"), (0, 2.0, "slow")]


def test_a_finished_rank_is_never_stepped_again():
    # What a killed stream attempt relies on: its ranks are marked
    # finished, and the events still queued for them are dropped.
    class Killer(Engine):
        def _rank_finished(self, state, time):
            victim = self._ranks[1]
            victim.finished = True  # rank 0 returned: kill rank 1

    def victim():
        yield ComputeRequest(5.0)
        raise AssertionError("stepped after being marked finished")

    def quick():
        yield ComputeRequest(1.0)

    result = Killer(HomogeneousNetwork(2, PARAMS)).run([quick(), victim()])
    assert result.stats[1].clock == 0.0  # the stale wake-up never landed


def test_a_channel_that_carried_only_stepped_legs_holds_no_queue(monkeypatch):
    # Under global time a broadcast is stepped from its recorded
    # schedule and never queues a message, so a channel only its legs
    # use creates neither FIFO (each queue is made by the first post
    # that waits on it).  A stream frees each attempt's channels as the
    # attempt ends, so its channels are read there.
    from repro.cluster import JobSpec, serve
    from repro.cluster.engine import ClusterEngine
    from repro.core.summa import run_summa
    from repro.mpi.comm import CollectiveOptions
    from repro.network.torus import Torus3D
    from repro.payloads import PhantomArray

    legs, posted, runs, freed = set(), set(), [], []
    leg_channels = Engine._leg_channels
    post_send = Engine._post_send
    post_recv = Engine._post_recv
    release = Engine._release
    vacate = ClusterEngine._vacate

    def channels(engine):
        return [chan for by_tag in engine._channels.values()
                for chan in by_tag.values()]

    def on_legs(engine, *args):
        chans = leg_channels(engine, *args)
        legs.update(chans)
        return chans

    def on_send(engine, rank, dst, tag, *args):
        post_send(engine, rank, dst, tag, *args)
        posted.add(engine._channels[tag][rank * engine._rankmul + dst])

    def on_recv(engine, state, src, tag, *args):
        post_recv(engine, state, src, tag, *args)
        rank = state.stats.rank
        posted.add(engine._channels[tag][src * engine._rankmul + rank])

    def on_vacate(engine, attempt):
        freed.extend(channels(engine))
        vacate(engine, attempt)

    def on_release(engine):
        # The micro-DES costers a stream prices launches with step
        # nothing; they are not the runs under test.
        if engine._report["stepped"]:
            runs.append((type(engine).__name__, channels(engine) + freed))
        release(engine)

    monkeypatch.setattr(Engine, "_leg_channels", on_legs)
    monkeypatch.setattr(Engine, "_post_send", on_send)
    monkeypatch.setattr(Engine, "_post_recv", on_recv)
    monkeypatch.setattr(Engine, "_release", on_release)
    monkeypatch.setattr(ClusterEngine, "_vacate", on_vacate)

    A = PhantomArray((256, 256))
    sim = run_summa(A, A, grid=(4, 4), block=16,
                    network=Torus3D((4, 2, 2), PARAMS), contention=True)[1]
    assert sim.replay["stepped"] == 128 and sim.replay["replayed"] == 0
    records = serve([JobSpec(jid=0, arrival=0.0, n=256, p=16),
                     JobSpec(jid=1, arrival=0.0, n=256, p=16)], slots=32,
                    options=CollectiveOptions(bcast="vandegeijn"))
    assert [r.status for r in records.records] == ["done", "done"]
    assert [name for name, _ in runs] == ["Engine", "ClusterEngine"]
    for _, chans in runs:
        only_stepped = [c for c in chans if c in legs and c not in posted]
        assert only_stepped
        assert [c for c in only_stepped
                if c.sends is not None or c.recvs is not None] == []
