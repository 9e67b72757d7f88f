"""What an engine keeps after a run, and the two stepping contracts a
job stream leans on: a finished rank is never stepped again, and the
engine says when a program returns."""

import gc
import weakref

import pytest

from repro.errors import DeadlockError
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
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
        self.refs.append(weakref.ref(chan.sends))
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
        refs += engine.refs  # the one channel's queue
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
