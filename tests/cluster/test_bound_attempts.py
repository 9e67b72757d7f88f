"""A stream job runs on its own ranks, wherever the stream binds them.

Every attempt after the first is bound at a non-zero engine base.  The
job must not be able to tell: same messages, same bytes, same times as
the attempt at base 0 — for every registered broadcast (a new one
enrols by registration, as in ``tests/collectives/conftest.py``), as a
later job of a stream and as the retry of a killed attempt.  The costs
of the wire belong to machine slots, so a job placed where an earlier
one ran asks the machine nothing new; and a finished stream leaves
nothing behind for the garbage collector.
"""

import gc
import weakref

import pytest

from repro.cluster import JobSpec, serve
from repro.cluster.engine import ClusterEngine
from repro.cluster.schedulers import FifoScheduler
from repro.collectives import COLLECTIVES
from repro.mpi.comm import CollectiveOptions
from repro.network.torus import Torus3D
from repro.simulator.runtime import DEFAULT_PARAMS

GAMMA = 1e-11
#: Far longer than a p=16, n=256 job runs (a few ms of virtual time).
LATER = 1.0


def _job(jid, arrival, algorithm):
    return JobSpec(jid=jid, arrival=arrival, n=256, p=16,
                   algorithm=algorithm)


def _assert_same_job(attempt_stats, reference_stats):
    assert len(attempt_stats) == len(reference_stats) == 16
    for got, want in zip(attempt_stats, reference_stats):
        assert got.messages_sent == want.messages_sent
        assert got.bytes_sent == want.bytes_sent
        # Clocks start at another magnitude, so the last bits of a
        # difference of two of them may differ.
        assert got.comm_time == pytest.approx(want.comm_time, rel=1e-9)
        assert got.compute_time == pytest.approx(want.compute_time,
                                                 rel=1e-9)


@pytest.mark.parametrize("algorithm", [None, "hsumma"])
@pytest.mark.parametrize("bcast", sorted(COLLECTIVES["bcast"].algorithms))
@pytest.mark.parametrize("contention", [True, False])
def test_later_job_of_a_stream_equals_the_first(bcast, algorithm,
                                                contention):
    machine = Torus3D((4, 2, 2), DEFAULT_PARAMS)
    result = serve(
        [_job(0, 0.0, algorithm), _job(1, LATER, algorithm)],
        machine=machine, slot_grid=(4, 4), gamma=GAMMA,
        contention=contention, options=CollectiveOptions(bcast=bcast))
    first, second = result.records
    assert first.status == second.status == "done"
    assert first.attempts[0].base == 0
    assert second.attempts[0].base == 16
    assert second.first_start == LATER  # the two never overlapped
    _assert_same_job(second.result.stats, first.result.stats)


@pytest.mark.parametrize("algorithm", [None, "hsumma"])
@pytest.mark.parametrize("bcast", sorted(COLLECTIVES["bcast"].algorithms))
def test_retry_after_a_kill_equals_an_unkilled_job(bcast, algorithm):
    # contention=False: the killed attempt's transfers still on the
    # wire would otherwise hold their links past the kill and delay
    # the retry, which is honest but not what is compared here.
    kwargs = dict(slots=16, gamma=GAMMA, contention=False,
                  options=CollectiveOptions(bcast=bcast))
    clean = serve([_job(0, 0.0, algorithm)], **kwargs).records[0]
    kill_at = clean.latency / 2
    retried = serve([_job(0, 0.0, algorithm)], failures=[(5, kill_at)],
                    max_retries=1, **kwargs).records[0]
    assert retried.status == "done"
    killed, retry = retried.attempts
    assert killed.dead and killed.base == 0
    assert not retry.dead and retry.base == 16
    assert retry.start == kill_at
    _assert_same_job(retried.result.stats, clean.result.stats)


def test_two_vandegeijn_jobs_complete_with_480_messages_each():
    # The parent of this test rewrote yielded requests in place, and
    # the Van de Geijn ring re-yields one request every round: the
    # second job deadlocked.
    result = serve([_job(0, 0.0, None), _job(1, 0.0, None)], slots=32,
                   options=CollectiveOptions(bcast="vandegeijn"))
    assert [r.status for r in result.records] == ["done", "done"]
    assert [sum(s.messages_sent for s in r.result.stats)
            for r in result.records] == [480, 480]


class CountingTorus(Torus3D):
    """A torus that counts what it is asked."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.asked = {"links": 0, "transfer_time": 0}

    def links(self, src, dst):
        self.asked["links"] += 1
        return super().links(src, dst)

    def transfer_time(self, src, dst, nbytes):
        self.asked["transfer_time"] += 1
        return super().transfer_time(src, dst, nbytes)


def test_costs_are_kept_per_slot_pair_across_jobs():
    def asked(njobs):
        machine = CountingTorus((4, 2, 2), DEFAULT_PARAMS)
        result = serve([_job(jid, 0.0, None) for jid in range(njobs)],
                       machine=machine, slot_grid=(4, 4), gamma=GAMMA)
        assert all(r.status == "done" for r in result.records)
        assert [r.attempts[0].slots for r in result.records] \
            == [result.records[0].attempts[0].slots] * njobs
        return machine.asked

    once = asked(1)
    assert once["links"] > 0 and once["transfer_time"] > 0
    # Each distinct slot pair / (pair, nbytes) once, however many jobs
    # run on those slots.
    assert asked(3) == once


def test_a_finished_stream_is_freed_by_reference_count():
    refs = []

    class Spy(ClusterEngine):
        def _launch(self, record, slots, now):
            first = len(self._ranks)
            super()._launch(record, slots, now)
            # The rank state is the program's only owner.
            refs.append(weakref.ref(self._ranks[first].gen))

        def _make_channel(self, src, dst, tag):
            chan = super()._make_channel(src, dst, tag)
            refs.append(weakref.ref(chan))
            return chan

    machine = Torus3D((4, 2, 2), DEFAULT_PARAMS)
    scheduler = FifoScheduler(alpha=DEFAULT_PARAMS.alpha,
                              beta=DEFAULT_PARAMS.beta, gamma=GAMMA)
    gc.collect()
    gc.disable()
    try:
        engine = Spy(machine, (4, 4), 32, scheduler=scheduler, gamma=GAMMA)
        records = engine.serve([_job(0, 0.0, None), _job(1, 0.0, None)])
        del engine
        assert [r.status for r in records] == ["done", "done"]
        assert len(refs) > 2
        assert [ref for ref in refs if ref() is not None] == []
    finally:
        gc.enable()


def test_an_ended_attempt_leaves_no_channel_behind():
    # Engine ranks are never reused, so once an attempt ends nothing
    # can post on its channels again: the stream drops them (and its
    # stepped broadcasts' leg channels) then, not when the stream ends.
    seen, made = [], []

    class Spy(ClusterEngine):
        def _launch(self, record, slots, now):
            mul = self._rankmul
            seen.append((
                len(self._ranks),
                sorted({key // mul for by_tag in self._channels.values()
                        for key in by_tag}),
                sorted({key[1] for key in self._schedules
                        if key is not None and len(key) == 3})))
            super()._launch(record, slots, now)

        def _make_channel(self, src, dst, tag):
            made.append(src)
            return super()._make_channel(src, dst, tag)

    machine = Torus3D((4, 2, 2), DEFAULT_PARAMS)
    scheduler = FifoScheduler(alpha=DEFAULT_PARAMS.alpha,
                              beta=DEFAULT_PARAMS.beta, gamma=GAMMA)
    engine = Spy(machine, (4, 4), 32, scheduler=scheduler, gamma=GAMMA)
    records = engine.serve([_job(0, 0.0, None), _job(1, 0.0, None)])
    assert [r.status for r in records] == ["done", "done"]
    first, second = (r.attempts[0] for r in records)
    assert second.start == first.end  # job 1 waited for job 0's slots
    assert min(made) == 0 and max(made) == 31  # both jobs made channels
    # At job 1's launch: job 0 has run (16 ranks), and not one of its
    # channels or leg-channel tuples is left.
    assert seen[1] == (16, [], [])
