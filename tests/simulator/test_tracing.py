"""Unit tests for SimResult / RankStats / TransferRecord."""

import pytest

from repro.simulator.tracing import RankStats, SimResult, TransferRecord


def _result(clocks, comms, computes):
    stats = [
        RankStats(rank=i, clock=c, comm_time=m, compute_time=p)
        for i, (c, m, p) in enumerate(zip(clocks, comms, computes))
    ]
    return SimResult(stats=stats, return_values=[None] * len(stats))


class TestSimResult:
    def test_total_time_is_max_clock(self):
        res = _result([1.0, 3.0, 2.0], [0, 0, 0], [0, 0, 0])
        assert res.total_time == 3.0

    def test_comm_time_is_max(self):
        res = _result([5, 5], [1.0, 2.5], [0, 0])
        assert res.comm_time == 2.5

    def test_mean_comm(self):
        res = _result([5, 5], [1.0, 3.0], [0, 0])
        assert res.mean_comm_time == 2.0

    def test_empty(self):
        res = SimResult(stats=[], return_values=[])
        assert res.total_time == 0.0
        assert res.comm_time == 0.0
        assert res.mean_comm_time == 0.0

    def test_message_aggregates(self):
        stats = [RankStats(rank=0, messages_sent=2, bytes_sent=10),
                 RankStats(rank=1, messages_sent=3, bytes_sent=20)]
        res = SimResult(stats=stats, return_values=[None, None])
        assert res.total_messages == 5
        assert res.total_bytes == 30

    def test_summary_contains_counts(self):
        res = _result([1.0], [0.5], [0.5])
        assert "1 ranks" in res.summary()

    def test_other_time(self):
        s = RankStats(rank=0, clock=3.0, comm_time=1.0, compute_time=1.5)
        assert s.other_time == pytest.approx(0.5)


class TestTransferRecord:
    def test_duration(self):
        rec = TransferRecord(0, 1, 0, 100, start=1.0, finish=1.5)
        assert rec.duration == pytest.approx(0.5)


class TestFaultCounters:
    def test_defaults_are_zero(self):
        s = RankStats(rank=0)
        assert (s.retries, s.timeouts, s.recoveries, s.fault_delay) == (0, 0, 0, 0.0)

    def test_totals_aggregate_over_ranks(self):
        stats = [RankStats(rank=0, retries=2, fault_delay=0.5),
                 RankStats(rank=1, timeouts=1, recoveries=1, fault_delay=0.25)]
        res = SimResult(stats=stats, return_values=[None, None])
        assert res.total_retries == 2
        assert res.total_timeouts == 1
        assert res.total_recoveries == 1
        assert res.total_fault_delay == pytest.approx(0.75)
        assert res.faulted

    def test_clean_run_not_faulted(self):
        res = _result([1.0], [0.5], [0.5])
        assert not res.faulted

    def test_fault_summary_mentions_every_counter(self):
        stats = [RankStats(rank=0, retries=3, timeouts=2, recoveries=1,
                           fault_delay=0.125)]
        res = SimResult(stats=stats, return_values=[None])
        text = res.fault_summary()
        assert "3 retransmits" in text
        assert "2 timeouts" in text
        assert "1 recoveries" in text
        assert "0.125000s" in text
