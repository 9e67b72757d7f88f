"""Engine-level fault injection: drops retransmit transparently,
degradation and slowdowns stretch virtual time by exact factors, timed
receives expire, and fail-stop deaths raise structured errors."""

import collections

import numpy as np
import pytest

from repro.errors import RankFailure, SimulationError
from repro.faults import (
    FaultSchedule,
    LinkDegradation,
    MessageDrop,
    RankDeath,
    RankSlowdown,
    RetryPolicy,
)
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.simulator import run_spmd
from repro.simulator.requests import RECV_TIMEOUT, CounterRequest

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)

TAG = 7


def _ping(payload_factory):
    """Rank 0 sends one message to rank 1."""

    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.world.send(payload_factory(), 1, tag=TAG)
            return None
        out = yield from ctx.world.recv(0, tag=TAG)
        return out

    return prog


def _chatter(rounds):
    """Rank 0 streams ``rounds`` messages to rank 1."""

    def prog(ctx):
        if ctx.rank == 0:
            for k in range(rounds):
                yield from ctx.world.send(np.full(64, float(k)), 1, tag=TAG)
            return None
        got = []
        for _ in range(rounds):
            got.append((yield from ctx.world.recv(0, tag=TAG)))
        return got

    return prog


class TestEmptySchedule:
    def test_empty_schedule_is_bit_identical_to_none(self):
        prog = _ping(lambda: np.arange(128.0))
        clean = run_spmd(prog, 2, params=PARAMS, collect_trace=True)
        empty = run_spmd(prog, 2, params=PARAMS, collect_trace=True,
                         faults=FaultSchedule())
        assert empty.total_time == clean.total_time
        assert empty.trace == clean.trace
        assert not empty.faulted

    def test_schedule_with_no_matching_faults_adds_no_delay(self):
        """Rules that never match leave timings bit-identical."""
        prog = _ping(lambda: np.arange(128.0))
        clean = run_spmd(prog, 2, params=PARAMS)
        faulty = run_spmd(prog, 2, params=PARAMS, faults=FaultSchedule(
            seed=1,
            faults=[MessageDrop(p=0.5, src=1, dst=0),       # wrong direction
                    LinkDegradation(beta_mult=8.0, t0=100.0, t1=200.0),
                    RankSlowdown(rank=0, factor=4.0, t0=100.0, t1=200.0)],
        ))
        assert faulty.total_time == clean.total_time
        assert not faulty.faulted
        assert faulty.total_fault_delay == 0.0


class TestDrops:
    def test_payload_survives_heavy_drops(self):
        prog = _chatter(16)
        clean = run_spmd(prog, 2, params=PARAMS)
        faulty = run_spmd(prog, 2, params=PARAMS, faults=FaultSchedule(
            seed=3, faults=[MessageDrop(p=0.6)]))
        assert faulty.total_retries > 0
        for a, b in zip(clean.return_values[1], faulty.return_values[1]):
            assert np.array_equal(a, b)

    def test_drops_cost_time(self):
        prog = _chatter(16)
        clean = run_spmd(prog, 2, params=PARAMS)
        faulty = run_spmd(prog, 2, params=PARAMS, faults=FaultSchedule(
            seed=3, faults=[MessageDrop(p=0.6)]))
        assert faulty.total_time > clean.total_time
        assert faulty.total_fault_delay > 0.0
        assert faulty.faulted

    def test_retries_attributed_to_sender(self):
        faulty = run_spmd(_chatter(16), 2, params=PARAMS, faults=FaultSchedule(
            seed=3, faults=[MessageDrop(p=0.6)]))
        assert faulty.stats[0].retries > 0
        assert faulty.stats[1].retries == 0

    def test_retransmit_cap_enforced(self):
        """p close to 1 with a tiny cap still terminates."""
        policy = RetryPolicy(max_retransmits=2)
        faulty = run_spmd(_chatter(8), 2, params=PARAMS, faults=FaultSchedule(
            seed=1, faults=[MessageDrop(p=0.99)], retry=policy))
        assert faulty.stats[0].retries <= 2 * 8 + 2  # cap per message
        assert faulty.return_values[1] is not None

    def test_backoff_charged_per_retransmit(self):
        """One guaranteed-ish drop: delay >= wasted wire + backoff."""
        policy = RetryPolicy(backoff=1e-3, backoff_multiplier=1.0,
                             max_backoff=1e-3)
        faulty = run_spmd(_chatter(16), 2, params=PARAMS, faults=FaultSchedule(
            seed=3, faults=[MessageDrop(p=0.6)], retry=policy))
        n = faulty.total_retries
        assert n > 0
        assert faulty.total_fault_delay >= n * 1e-3


class CountingNetwork(HomogeneousNetwork):
    def __init__(self, *args):
        super().__init__(*args)
        self.calls = collections.Counter()

    def transfer_time(self, src, dst, nbytes):
        self.calls[src, dst, nbytes] += 1
        return super().transfer_time(src, dst, nbytes)


class TestCleanWire:
    def test_each_clean_wire_is_priced_once(self):
        """Retransmissions reuse the memoised fault-free wire time."""
        net = CountingNetwork(2, PARAMS)
        faulty = run_spmd(_chatter(16), 2, network=net, faults=FaultSchedule(
            seed=3, faults=[MessageDrop(p=0.6),
                            RankSlowdown(rank=0, factor=2.0)]))
        assert faulty.total_retries > 0
        assert list(net.calls.values()) == [1]


class TestDegradation:
    def test_exact_degraded_wire_time(self):
        nelems = 1 << 15
        prog = _ping(lambda: np.zeros(nelems))
        net = HomogeneousNetwork(2, PARAMS)
        clean = run_spmd(prog, 2, network=net)
        faulty = run_spmd(prog, 2, network=net, faults=FaultSchedule(faults=[
            LinkDegradation(alpha_mult=3.0, beta_mult=2.0)]))
        alpha = net.transfer_time(0, 1, 0)
        wire = clean.total_time
        assert faulty.total_time == pytest.approx(
            3.0 * alpha + 2.0 * (wire - alpha))

    def test_only_matching_link_degraded(self):
        """A rule pinned to the reverse direction changes nothing."""
        prog = _ping(lambda: np.zeros(4096))
        clean = run_spmd(prog, 2, params=PARAMS)
        faulty = run_spmd(prog, 2, params=PARAMS, faults=FaultSchedule(faults=[
            LinkDegradation(beta_mult=16.0, src=1, dst=0)]))
        assert faulty.total_time == clean.total_time


class TestSlowdown:
    def test_compute_scaled_by_factor(self):
        def prog(ctx):
            yield from ctx.compute(0.01)
            return ctx.rank

        clean = run_spmd(prog, 2, params=PARAMS)
        faulty = run_spmd(prog, 2, params=PARAMS, faults=FaultSchedule(faults=[
            RankSlowdown(rank=1, factor=3.0)]))
        assert clean.total_time == pytest.approx(0.01)
        assert faulty.total_time == pytest.approx(0.03)
        assert faulty.stats[1].fault_delay == pytest.approx(0.02)
        assert faulty.stats[0].fault_delay == 0.0

    def test_window_expiry(self):
        def prog(ctx):
            yield from ctx.compute(0.01)  # starts at 0, inside window
            yield from ctx.compute(0.01)  # starts after t1, clean
            return None

        faulty = run_spmd(prog, 1, params=PARAMS, faults=FaultSchedule(faults=[
            RankSlowdown(rank=0, factor=2.0, t0=0.0, t1=0.015)]))
        assert faulty.total_time == pytest.approx(0.03)


class TestTimedRecv:
    def test_timeout_returns_sentinel(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.compute(0.05)  # send arrives late
                yield from ctx.world.send(np.arange(8.0), 1, tag=TAG)
                return None
            first = yield from ctx.world.recv(0, tag=TAG, timeout=0.01)
            second = yield from ctx.world.recv(0, tag=TAG)  # drain
            return (first, second)

        res = run_spmd(prog, 2, params=PARAMS)
        first, second = res.return_values[1]
        assert first is RECV_TIMEOUT
        assert np.array_equal(second, np.arange(8.0))
        assert res.stats[1].timeouts == 1
        assert res.total_timeouts == 1

    def test_timely_message_does_not_time_out(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.world.send(np.arange(8.0), 1, tag=TAG)
                return None
            out = yield from ctx.world.recv(0, tag=TAG, timeout=10.0)
            return out

        res = run_spmd(prog, 2, params=PARAMS)
        assert np.array_equal(res.return_values[1], np.arange(8.0))
        assert res.total_timeouts == 0

    def test_timeout_advances_clock_to_deadline(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.compute(1.0)
                yield from ctx.world.send(None, 1, tag=TAG, nbytes=8)
                return None
            got = yield from ctx.world.recv(0, tag=TAG, timeout=0.25)
            assert got is RECV_TIMEOUT
            yield from ctx.world.recv(0, tag=TAG)
            return None

        res = run_spmd(prog, 2, params=PARAMS)
        # Rank 1's first wait ended exactly at the 0.25s deadline.
        assert res.stats[1].comm_time >= 0.25

    def test_recv_retry_recovers_after_timeouts(self):
        policy = RetryPolicy(timeout=0.01, timeout_multiplier=2.0,
                             max_attempts=8)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.compute(0.02)  # one escalation's worth
                yield from ctx.world.send(np.arange(4.0), 1, tag=TAG)
                return None
            out = yield from ctx.world.recv_retry(0, tag=TAG, policy=policy)
            return out

        res = run_spmd(prog, 2, params=PARAMS)
        assert np.array_equal(res.return_values[1], np.arange(4.0))
        assert res.stats[1].timeouts >= 1
        assert res.stats[1].recoveries == 1


class TestCounterRequest:
    def test_counter_bumps_stats(self):
        def prog(ctx):
            yield CounterRequest("recoveries")
            yield CounterRequest("recoveries", 2)
            return None

        res = run_spmd(prog, 1, params=PARAMS)
        assert res.stats[0].recoveries == 3
        assert res.total_time == 0.0  # counters are free

    def test_unknown_counter_rejected(self):
        with pytest.raises(SimulationError):
            CounterRequest("bytes_sent")


class TestFailStop:
    def test_death_raises_structured_failure(self):
        def prog(ctx):
            yield from ctx.compute(1.0)
            return None

        with pytest.raises(RankFailure) as info:
            run_spmd(prog, 4, params=PARAMS, faults=FaultSchedule(faults=[
                RankDeath(rank=2, time=0.5)]))
        assert info.value.rank == 2
        assert info.value.time == 0.5
        assert "rank 2" in str(info.value)

    def test_death_after_finish_is_ignored(self):
        def prog(ctx):
            yield from ctx.compute(0.01)
            return "done"

        res = run_spmd(prog, 2, params=PARAMS, faults=FaultSchedule(faults=[
            RankDeath(rank=1, time=5.0)]))
        assert res.return_values == ["done", "done"]

    def test_death_outside_world_is_ignored(self):
        def prog(ctx):
            yield from ctx.compute(0.01)
            return None

        res = run_spmd(prog, 2, params=PARAMS, faults=FaultSchedule(faults=[
            RankDeath(rank=17, time=0.001)]))
        assert res.total_time == pytest.approx(0.01)

    def test_death_preempts_same_time_work(self):
        """A rank that would finish exactly at the death time still dies."""

        def prog(ctx):
            yield from ctx.compute(0.5)
            return None

        with pytest.raises(RankFailure):
            run_spmd(prog, 2, params=PARAMS, faults=FaultSchedule(faults=[
                RankDeath(rank=0, time=0.5)]))


class TestFaultSummary:
    def test_summary_reports_counters(self):
        faulty = run_spmd(_chatter(16), 2, params=PARAMS, faults=FaultSchedule(
            seed=3, faults=[MessageDrop(p=0.6)]))
        text = faulty.fault_summary()
        assert "retransmits" in text
        assert str(faulty.total_retries) in text
