"""Unit tests for the discrete-event engine."""

import numpy as np
import pytest

from repro.errors import DeadlockError, SimulationError
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.simulator.engine import Engine
from repro.simulator.requests import (
    ComputeRequest,
    IRecvRequest,
    ISendRequest,
    RecvRequest,
    SendRequest,
)

PARAMS = HockneyParams(alpha=1e-5, beta=1e-9)


def _engine(n: int, **kw) -> Engine:
    return Engine(HomogeneousNetwork(n, PARAMS), **kw)


class TestBasicTransfers:
    def test_ping(self):
        def sender():
            yield SendRequest(1, 0, b"x" * 100)

        def receiver():
            data = yield RecvRequest(0, 0)
            return data

        res = _engine(2).run([sender(), receiver()])
        assert res.return_values[1] == b"x" * 100
        assert res.total_time == pytest.approx(PARAMS.transfer_time(100))

    def test_rendezvous_waits_for_late_receiver(self):
        def sender():
            yield SendRequest(1, 0, b"x")

        def receiver():
            yield ComputeRequest(1.0)
            data = yield RecvRequest(0, 0)
            return data

        res = _engine(2).run([sender(), receiver()])
        # Transfer starts at t=1.0 when the receiver posts.
        assert res.total_time == pytest.approx(1.0 + PARAMS.transfer_time(1))
        # The sender's wait counts as communication time.
        assert res.stats[0].comm_time == pytest.approx(
            1.0 + PARAMS.transfer_time(1)
        )

    def test_fifo_ordering_same_channel(self):
        def sender():
            yield SendRequest(1, 0, "first")
            yield SendRequest(1, 0, "second")

        def receiver():
            a = yield RecvRequest(0, 0)
            b = yield RecvRequest(0, 0)
            return (a, b)

        res = _engine(2).run([sender(), receiver()])
        assert res.return_values[1] == ("first", "second")

    def test_tags_demultiplex(self):
        def sender():
            yield SendRequest(1, 7, "seven")
            yield SendRequest(1, 8, "eight")

        def receiver():
            # Receive in reverse tag order.
            b = yield IRecvRequest(0, 8)
            a = yield IRecvRequest(0, 7)
            va = yield a
            vb = yield b
            return (va, vb)

        res = _engine(2).run([sender(), receiver()])
        assert res.return_values[1] == ("seven", "eight")

    def test_compute_advances_clock(self):
        def prog():
            yield ComputeRequest(2.5)

        res = _engine(1).run([prog()])
        assert res.total_time == pytest.approx(2.5)
        assert res.stats[0].compute_time == pytest.approx(2.5)
        assert res.stats[0].comm_time == 0.0

    def test_message_stats(self):
        def sender():
            yield SendRequest(1, 0, np.zeros(100))

        def receiver():
            yield RecvRequest(0, 0)

        res = _engine(2).run([sender(), receiver()])
        assert res.stats[0].messages_sent == 1
        assert res.stats[0].bytes_sent == 800
        assert res.stats[1].messages_sent == 0
        assert res.total_messages == 1
        assert res.total_bytes == 800


class TestNonblocking:
    def test_isend_returns_immediately(self):
        def sender():
            handle = yield ISendRequest(1, 0, b"data")
            yield ComputeRequest(0.5)  # overlap
            yield handle
            return "done"

        def receiver():
            data = yield RecvRequest(0, 0)
            return data

        res = _engine(2).run([sender(), receiver()])
        assert res.return_values == ["done", b"data"]
        # Sender's compute overlapped with the transfer.
        assert res.stats[0].clock == pytest.approx(0.5)

    def test_irecv_wait_returns_payload(self):
        def sender():
            yield ComputeRequest(0.1)
            yield SendRequest(1, 0, 42.0)

        def receiver():
            handle = yield IRecvRequest(0, 0)
            value = yield handle
            return value

        res = _engine(2).run([sender(), receiver()])
        assert res.return_values[1] == 42.0

    def test_wait_after_completion_is_cheap(self):
        def sender():
            yield SendRequest(1, 0, b"z")

        def receiver():
            handle = yield IRecvRequest(0, 0)
            yield ComputeRequest(10.0)  # transfer finishes long before
            value = yield handle
            return value

        res = _engine(2).run([sender(), receiver()])
        assert res.return_values[1] == b"z"
        assert res.stats[1].clock == pytest.approx(10.0)

    def test_self_message_via_nonblocking(self):
        def prog():
            sh = yield ISendRequest(0, 0, "self")
            rh = yield IRecvRequest(0, 0)
            value = yield rh
            yield sh
            return value

        res = _engine(1).run([prog()])
        assert res.return_values[0] == "self"

    def test_wait_on_foreign_handle_rejected(self):
        def a():
            handle = yield ISendRequest(1, 0, b"x")
            yield SendRequest(1, 1, handle, 8)

        def b():
            handle = yield RecvRequest(0, 1)
            yield RecvRequest(0, 0)
            yield handle

        with pytest.raises(SimulationError, match="waiting on rank"):
            _engine(2).run([a(), b()])


class TestErrors:
    def test_blocking_send_to_self_rejected(self):
        def prog():
            yield SendRequest(0, 0, b"x")

        with pytest.raises(SimulationError, match="self"):
            _engine(1).run([prog()])

    def test_deadlock_detected(self):
        def a():
            yield RecvRequest(1, 0)

        def b():
            yield RecvRequest(0, 0)

        with pytest.raises(DeadlockError, match="rank 0"):
            _engine(2).run([a(), b()])

    def test_deadlock_message_names_operation(self):
        def a():
            yield RecvRequest(1, 99)

        def b():
            return
            yield  # pragma: no cover

        with pytest.raises(DeadlockError, match="Recv"):
            _engine(2).run([a(), b()])

    def test_unknown_request_rejected(self):
        def prog():
            yield "not a request"

        with pytest.raises(SimulationError, match="unknown request"):
            _engine(1).run([prog()])

    def test_no_programs_rejected(self):
        with pytest.raises(SimulationError):
            _engine(1).run([])

    def test_too_many_programs_rejected(self):
        def prog():
            return
            yield  # pragma: no cover

        with pytest.raises(SimulationError):
            _engine(1).run([prog(), prog()])

    def test_event_cap(self):
        def a():
            for _ in range(100):
                yield ComputeRequest(0.001)

        eng = Engine(HomogeneousNetwork(1, PARAMS), max_events=10)
        with pytest.raises(SimulationError, match="event cap"):
            eng.run([a()])


class TestContention:
    def test_shared_link_serialises(self):
        # A network where every transfer uses one global link.
        class OneWire(HomogeneousNetwork):
            def links(self, src, dst):
                return (("wire",),) if src != dst else ()

        net = OneWire(4, PARAMS)
        t_single = PARAMS.transfer_time(1000)

        # Two disjoint transfers (0->1 and 2->3) sharing the one wire.
        def s01():
            yield SendRequest(1, 0, b"x" * 1000)

        def r1():
            yield RecvRequest(0, 0)

        def s23():
            yield SendRequest(3, 0, b"y" * 1000)

        def r3():
            yield RecvRequest(2, 0)

        res = Engine(net, contention=True).run([s01(), r1(), s23(), r3()])
        assert res.total_time == pytest.approx(2 * t_single)
        res_free = Engine(net, contention=False).run(
            [s01(), r1(), s23(), r3()]
        )
        assert res_free.total_time == pytest.approx(t_single)


class TestTracing:
    def test_trace_records(self):
        def sender():
            yield SendRequest(1, 5, b"abc")

        def receiver():
            yield RecvRequest(0, 5)

        res = Engine(
            HomogeneousNetwork(2, PARAMS), collect_trace=True
        ).run([sender(), receiver()])
        assert len(res.trace) == 1
        rec = res.trace[0]
        assert (rec.src, rec.dst, rec.nbytes) == (0, 1, 3)
        assert rec.duration == pytest.approx(PARAMS.transfer_time(3))

    def test_no_trace_by_default(self):
        def sender():
            yield SendRequest(1, 0, b"abc")

        def receiver():
            yield RecvRequest(0, 0)

        res = _engine(2).run([sender(), receiver()])
        assert res.trace == []


class TestAccounting:
    def test_clocks_monotonic_and_consistent(self):
        def prog(rank_peer):
            def gen():
                yield ComputeRequest(0.1)
                if rank_peer == 1:
                    yield SendRequest(1, 0, b"x" * 500)
                else:
                    yield RecvRequest(0, 0)
                yield ComputeRequest(0.2)

            return gen()

        res = _engine(2).run([prog(1), prog(0)])
        for s in res.stats:
            assert s.clock >= 0
            assert s.comm_time >= 0
            assert s.compute_time >= 0
            assert s.other_time == pytest.approx(0.0, abs=1e-12)

    def test_return_values_in_rank_order(self):
        def prog(r):
            def gen():
                yield ComputeRequest(0.01 * (5 - r))
                return r

            return gen()

        res = _engine(4).run([prog(r) for r in range(4)])
        assert res.return_values == [0, 1, 2, 3]
