"""Tests of the batched-yield protocol and the fused SendRecvRequest.

Both exist purely as hot-path accelerations of request sequences that
were already expressible, so the core property asserted here is
*equivalence*: every observable of a run using the fused forms — per
rank clock, comm_time, message counts, payloads, traces — must equal
the run spelled out with individual isend/irecv/wait requests.
"""

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.faults import parse_fault_spec
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.network.torus import Torus3D
from repro.simulator.engine import Engine
from repro.simulator.requests import (
    ComputeRequest,
    IRecvRequest,
    ISendRequest,
    SendRecvRequest,
)
from repro.verify.session import run_verified

PARAMS = HockneyParams(alpha=1e-5, beta=1e-9)


def _engine(n: int, **kw) -> Engine:
    return Engine(HomogeneousNetwork(n, PARAMS), **kw)


def _run_plain(size: int, make):
    return _engine(size).run(make())


def _run_faulty(size: int, make):
    faults = parse_fault_spec("drop(p=0.2); slow(rank=1, factor=3)", seed=11)
    sim = _engine(size, faults=faults).run(make())
    assert sum(s.retries for s in sim.stats) > 0  # drops really fired
    return sim


def _run_contended(size: int, make):
    torus = Torus3D((2, 2, 2), PARAMS)  # covers both ring sizes
    return Engine(torus, contention=True).run(make())


def _run_verified(size: int, make):
    sim = run_verified(make, verify=True, backend=None,
                       network=HomogeneousNetwork(size, PARAMS))
    assert sim.verdict.ok
    return sim


#: Engine set-ups under which the point-to-point path once split.
RUNNERS = [_run_faulty, _run_contended, _run_verified]


def _assert_same_result(res_a, res_b):
    assert ([dataclasses.asdict(s) for s in res_a.stats]
            == [dataclasses.asdict(s) for s in res_b.stats])
    assert res_a.return_values == res_b.return_values


def _ring_explicit(rank: int, size: int, payload: bytes, rounds: int):
    """Ring shift via the four-request sequence the engine always had."""
    carry = payload
    right = (rank + 1) % size
    left = (rank - 1) % size
    for _ in range(rounds):
        shandle = yield ISendRequest(right, 0, carry)
        rhandle = yield IRecvRequest(left, 0)
        carry = yield rhandle
        yield shandle
    return carry


def _ring_fused(rank: int, size: int, payload: bytes, rounds: int):
    carry = payload
    right = (rank + 1) % size
    left = (rank - 1) % size
    for _ in range(rounds):
        carry = yield SendRecvRequest(right, left, 0, 0, carry)
    return carry


def _ring_batched(rank: int, size: int, payload: bytes, rounds: int):
    """Same shift through the generic 2-tuple batches."""
    carry = payload
    right = (rank + 1) % size
    left = (rank - 1) % size
    for _ in range(rounds):
        shandle, rhandle = yield (
            ISendRequest(right, 0, carry),
            IRecvRequest(left, 0),
        )
        carry = yield (rhandle, shandle)
    return carry


def _ring_case(variant, run) -> None:
    size, rounds = 8, 5
    payloads = [bytes([r]) * (100 * (r + 1)) for r in range(size)]
    base = run(size, lambda: [_ring_explicit(r, size, payloads[r], rounds)
                              for r in range(size)])
    fused = run(size, lambda: [variant(r, size, payloads[r], rounds)
                               for r in range(size)])
    _assert_same_result(base, fused)
    # After `rounds` shifts every rank holds the payload that
    # started `rounds` ranks to its left.
    for r in range(size):
        assert fused.return_values[r] == payloads[(r - rounds) % size]


def _skewed_ring_case(variant, run) -> None:
    """Unequal compute between shifts exercises both wait orders
    (send finishing before and after the receive)."""
    size, rounds = 6, 4

    def skew(builder, rank):
        def program():
            carry = bytes([rank]) * 64
            inner = builder(rank, size, carry, rounds)
            # Interleave: advance the inner ring one value at a
            # time with rank-dependent compute in between.
            value = None
            try:
                while True:
                    req = inner.send(value)
                    value = yield req
                    # One compute per completed shift: after the
                    # fused request, or after a *wait* batch (a
                    # tuple of handles — not the posting batch).
                    if isinstance(req, SendRecvRequest) or (
                        isinstance(req, tuple)
                        and not isinstance(req[0], (ISendRequest, IRecvRequest))
                    ):
                        yield ComputeRequest(1e-5 * (rank + 1))
            except StopIteration as stop:
                return stop.value

        return program()

    def skew_explicit(rank):
        def program():
            carry = bytes([rank]) * 64
            right = (rank + 1) % size
            left = (rank - 1) % size
            for _ in range(rounds):
                shandle = yield ISendRequest(right, 0, carry)
                rhandle = yield IRecvRequest(left, 0)
                carry = yield rhandle
                yield shandle
                yield ComputeRequest(1e-5 * (rank + 1))
            return carry

        return program()

    base = run(size, lambda: [skew_explicit(r) for r in range(size)])
    fused = run(size, lambda: [skew(variant, r) for r in range(size)])
    _assert_same_result(base, fused)


class TestSendRecvEquivalence:
    @pytest.mark.parametrize("variant", [_ring_fused, _ring_batched])
    def test_ring_matches_explicit_sequence(self, variant):
        _ring_case(variant, _run_plain)

    @pytest.mark.parametrize("variant", [_ring_fused, _ring_batched])
    def test_skewed_ring_matches_explicit_sequence(self, variant):
        _skewed_ring_case(variant, _run_plain)

    @pytest.mark.parametrize("run", RUNNERS)
    @pytest.mark.parametrize("variant", [_ring_fused, _ring_batched])
    def test_ring_matches_explicit_under(self, variant, run):
        """Faults, contention and the verifier each once sent the fused
        request down its own path; every RankStats field must still
        equal the explicit sequence's."""
        _ring_case(variant, run)

    @pytest.mark.parametrize("run", RUNNERS)
    @pytest.mark.parametrize("variant", [_ring_fused, _ring_batched])
    def test_skewed_ring_matches_explicit_under(self, variant, run):
        _skewed_ring_case(variant, run)

    def test_trace_identical(self):
        size, rounds = 4, 3

        def run(builder):
            eng = _engine(size, collect_trace=True)
            return eng.run(
                [builder(r, size, bytes([r]) * 32, rounds) for r in range(size)]
            )

        base = run(_ring_explicit)
        fused = run(_ring_fused)
        assert [
            (t.src, t.dst, t.nbytes, t.start, t.finish) for t in base.trace
        ] == [
            (t.src, t.dst, t.nbytes, t.start, t.finish) for t in fused.trace
        ]

    def test_eager_sendrecv_matches_explicit(self):
        size, rounds = 4, 3

        def run(builder):
            eng = _engine(size, eager_threshold=1024)
            return eng.run(
                [builder(r, size, bytes([r]) * 32, rounds) for r in range(size)]
            )

        _assert_same_result(run(_ring_explicit), run(_ring_fused))


class TestBatchedYieldProtocol:
    def test_wait_pair_resumes_with_first_payload(self):
        def sender():
            shandle = yield ISendRequest(1, 0, b"data")
            yield (shandle, shandle)

        def receiver():
            rhandle = yield IRecvRequest(0, 0)
            shandle = yield ISendRequest(2, 1, b"back")
            got = yield (rhandle, shandle)
            return got

        def sink():
            got = yield IRecvRequest(1, 1)
            payload = yield got
            return payload

        res = _engine(3).run([sender(), receiver(), sink()])
        assert res.return_values[1] == b"data"
        assert res.return_values[2] == b"back"

    def test_wait_pair_on_completed_handles(self):
        def left():
            yield ISendRequest(1, 0, b"x")
            yield ComputeRequest(1.0)  # both transfers long done
            yield IRecvRequest(1, 1)

        def right():
            rhandle = yield IRecvRequest(0, 0)
            shandle = yield ISendRequest(0, 1, b"y")
            yield ComputeRequest(1.0)
            got = yield (rhandle, shandle)
            return got

        res = _engine(2).run([left(), right()])
        assert res.return_values[1] == b"x"

    def test_batch_of_blocking_requests_rejected(self):
        def program():
            yield (ComputeRequest(1.0), ComputeRequest(1.0))

        with pytest.raises(SimulationError, match="blocking"):
            _engine(1).run([program()])

    def test_non_pair_tuple_rejected(self):
        def program():
            yield (ComputeRequest(1.0),)

        with pytest.raises(SimulationError, match="pairs"):
            _engine(1).run([program()])

    def test_foreign_handle_pair_rejected(self):
        def maker():
            handle = yield ISendRequest(1, 0, b"x")
            yield ComputeRequest(1.0)
            return handle

        def receiver():
            yield IRecvRequest(0, 0)

        res = _engine(2).run([maker(), receiver()])
        stolen = res.return_values[0]

        def thief():
            yield (stolen, stolen)

        def receiver2():
            yield IRecvRequest(0, 0)

        with pytest.raises(SimulationError, match="another rank"):
            _engine(2).run([receiver2(), thief()])

    def test_sendrecv_to_and_from_self(self):
        def loner():
            got = yield SendRecvRequest(0, 0, 0, 0, b"me")
            return got

        res = _engine(1).run([loner()])
        assert res.return_values[0] == b"me"
