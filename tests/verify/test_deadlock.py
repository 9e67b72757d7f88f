"""Deadlock-diagnoser and timed-receive regressions.

The structured :class:`~repro.errors.DeadlockError` plus the verifier's
wait-for graph must replace the old string-only quiescence report: the
blocking cycle gets named rank by rank, orphan waits point at the
likely dropped send, and timed receives escalate without tripping any
error-severity check.
"""

from __future__ import annotations

import pytest

from repro.errors import DeadlockError
from repro.faults.schedule import RetryPolicy
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.simulator.requests import (
    RECV_TIMEOUT,
    ComputeRequest,
    RecvRequest,
    SendRequest,
    SendRecvRequest,
)
from repro.simulator.runtime import run_spmd
from repro.verify import VerifyOptions, run_verified

PARAMS = HockneyParams(alpha=1e-5, beta=1e-9)
NO_SCHED = VerifyOptions(schedules=0)


def _run_raw(make, nranks, verify=NO_SCHED):
    return run_verified(make, verify=verify, backend=None,
                        network=HomogeneousNetwork(nranks, PARAMS))


class TestStructuredDeadlockError:
    def test_blocked_map_without_verifier(self):
        """The engine's DeadlockError names each blocked rank's pending
        operation even when no verifier is installed."""

        def make():
            def a():
                yield RecvRequest(1, 0)

            def b():
                yield RecvRequest(0, 0)

            return [a(), b()]

        with pytest.raises(DeadlockError) as exc_info:
            _run_raw(make, 2, verify=None)
        blocked = exc_info.value.blocked
        assert set(blocked) == {0, 1}
        for rank in (0, 1):
            assert "recv" in blocked[rank]["kind"]


class TestCycleDiagnosis:
    def test_two_cycle(self):
        def make():
            def a():
                yield RecvRequest(1, 0)

            def b():
                yield RecvRequest(0, 0)

            return [a(), b()]

        with pytest.raises(DeadlockError) as exc_info:
            _run_raw(make, 2)
        [finding] = exc_info.value.verdict.by_check("deadlock")
        assert "cycle" in finding.message
        assert finding.detail["cycle"] == [0, 1]

    def test_three_cycle_via_sendrecv_misroute(self):
        """Three ranks each blocking-send clockwise while receiving
        clockwise too — nobody's partner ever posts the matching op."""

        def make():
            def ring(rank):
                def gen():
                    nxt = (rank + 1) % 3
                    yield SendRequest(nxt, 0, b"x" * 8)
                    yield RecvRequest(nxt, 0)
                return gen()

            return [ring(r) for r in range(3)]

        with pytest.raises(DeadlockError) as exc_info:
            _run_raw(make, 3)
        [finding] = exc_info.value.verdict.by_check("deadlock")
        assert len(finding.detail["cycle"]) == 3

    def test_fused_sendrecv_cycle(self):
        """Two ranks sendrecv with mismatched tags: the fused op can
        never complete on either side."""

        def make():
            def a():
                yield SendRecvRequest(1, 1, b"x" * 8, 1, 2)

            def b():
                yield SendRecvRequest(0, 1, b"y" * 8, 0, 2)

            return [a(), b()]

        with pytest.raises(DeadlockError) as exc_info:
            _run_raw(make, 2)
        verdict = exc_info.value.verdict
        [finding] = verdict.by_check("deadlock")
        assert set(finding.ranks) == {0, 1}


class TestOrphanDiagnosis:
    def test_recv_from_finished_rank(self):
        """Rank 1 waits on a rank that exited without sending — no
        cycle, so the diagnoser must point at the dropped send."""

        def make():
            def quitter():
                return "bye"
                yield  # pragma: no cover

            def waiter():
                yield RecvRequest(0, 0)

            return [quitter(), waiter()]

        with pytest.raises(DeadlockError) as exc_info:
            _run_raw(make, 2)
        [finding] = exc_info.value.verdict.by_check("deadlock")
        assert "dropped or mis-addressed" in finding.message
        assert finding.detail["orphans"]


class TestTimedReceives:
    def test_expired_timeout_is_warning(self):
        """A timed receive that expires and is handled by the program
        is a recv-timeout warning, not an error."""

        def make():
            def patient():
                got = yield RecvRequest(1, 0, timeout=0.5)
                return got

            def silent():
                return None
                yield  # pragma: no cover

            return [patient(), silent()]

        sim = _run_raw(make, 2)
        assert sim.verdict.ok
        [finding] = sim.verdict.by_check("recv-timeout")
        assert finding.severity == "warning"

    def test_expiry_is_credited_to_the_rank_that_timed_out(self):
        """Rank 1's timed receive expires while rank 0, which posted
        later, is still blocked in its own receive: the expiry belongs
        to rank 1's receive, and rank 0's receive matches rank 2's
        late send."""

        def make():
            def waiter():
                got = yield RecvRequest(2, 9, timeout=0.5)
                return got is RECV_TIMEOUT

            def receiver():
                yield ComputeRequest(1e-4)
                got = yield RecvRequest(2, 5)
                return got

            def late_sender():
                yield ComputeRequest(1.0)
                yield SendRequest(0, 5, "late", nbytes=8)

            return [receiver(), waiter(), late_sender()]

        sim = _run_raw(make, 3)
        assert sim.return_values[:2] == ["late", True]
        assert sim.verdict.ok, sim.verdict.to_text()
        assert [f.check for f in sim.verdict.findings] == ["recv-timeout"]
        [finding] = sim.verdict.findings
        assert finding.ranks == (1,)

    def test_recv_retry_escalation_verifies_clean(self):
        """recv_retry: the first window expires, the retry succeeds.
        The verifier must not flag the expired attempt as unmatched."""

        def program(ctx):
            def gen():
                if ctx.world.rank == 0:
                    yield ComputeRequest(0.2)
                    yield from ctx.world.send(b"late" * 8, 1)
                    return "sent"
                policy = RetryPolicy(timeout=0.05, max_attempts=6)
                got = yield from ctx.world.recv_retry(0, policy=policy)
                return got
            return gen()

        sim = run_spmd(program, 2, verify=NO_SCHED)
        assert sim.return_values[1] == b"late" * 8
        assert sim.verdict.ok
        # The expired windows surface as informational timeout warnings.
        assert sim.verdict.by_check("recv-timeout")
