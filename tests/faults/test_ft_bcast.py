"""The fault-tolerant broadcast: tree helpers, clean-path equivalence
with the plain binomial, escalation under stragglers, and the
recv_retry failure path."""

import numpy as np
import pytest

from repro.collectives import COLLECTIVES
from repro.collectives.ft import ancestor_chain, subtree_backups
from repro.errors import FaultToleranceError
from repro.faults import FaultSchedule, RetryPolicy
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray
from repro.simulator import run_spmd

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)


class TestTreeHelpers:
    def test_registry_has_ft_binomial(self):
        assert "ft_binomial" in COLLECTIVES["bcast"].algorithms

    def test_ancestor_chain_examples(self):
        assert ancestor_chain(0) == []
        assert ancestor_chain(1) == [0]
        assert ancestor_chain(5) == [1, 0]
        assert ancestor_chain(7) == [3, 1, 0]
        assert ancestor_chain(12) == [4, 0]

    def test_ancestor_chain_ends_at_root(self):
        for vr in range(1, 64):
            chain = ancestor_chain(vr)
            assert chain[-1] == 0
            assert all(a < vr for a in chain)
            assert len(chain) <= vr.bit_length()

    def test_subtree_examples(self):
        assert list(subtree_backups(2, 8)) == [(6, 0)]
        assert list(subtree_backups(1, 8)) == [(3, 0), (5, 0), (7, 1)]
        assert list(subtree_backups(7, 8)) == []

    def test_backups_cover_every_escalation_path(self):
        """(d, level) is served by ancestor ``a`` exactly when ``a`` is
        the level-th entry of d's ancestor chain — so every timed recv a
        descendant can post has a matching backup sender."""
        size = 16
        served = {(a, d, level)
                  for a in range(size)
                  for d, level in subtree_backups(a, size)}
        expected = {(anc, d, level)
                    for d in range(1, size)
                    for level, anc in enumerate(ancestor_chain(d))}
        assert served == expected

    def test_root_subtree_is_everyone(self):
        for size in (2, 5, 8, 13):
            assert [d for d, _ in subtree_backups(0, size)] == list(
                range(1, size))


def _bcast_prog(root, payload_factory, straggler=None, delay=0.0):
    def prog(ctx):
        if ctx.rank == straggler:
            yield from ctx.compute(delay)
        payload = payload_factory() if ctx.rank == root else None
        out = yield from ctx.world.bcast(payload, root=root,
                                         algorithm="ft_binomial")
        return out

    return prog


class TestCleanPath:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8, 13, 16])
    def test_all_ranks_receive(self, size):
        res = run_spmd(_bcast_prog(0, lambda: np.arange(24.0)), size,
                       params=PARAMS)
        for value in res.return_values:
            assert np.array_equal(value, np.arange(24.0))
        assert res.total_recoveries == 0
        assert res.total_timeouts == 0

    @pytest.mark.parametrize("root", [0, 1, 3, 6])
    def test_nonzero_roots(self, root):
        res = run_spmd(_bcast_prog(root, lambda: np.full(10, float(root))), 7,
                       params=PARAMS)
        for value in res.return_values:
            assert np.array_equal(value, np.full(10, float(root)))

    def test_same_payloads_as_binomial(self):
        def ref_prog(ctx):
            payload = np.arange(32.0) if ctx.rank == 2 else None
            out = yield from ctx.world.bcast(payload, root=2,
                                             algorithm="binomial")
            return out

        ft = run_spmd(_bcast_prog(2, lambda: np.arange(32.0)), 12,
                      params=PARAMS)
        ref = run_spmd(ref_prog, 12, params=PARAMS)
        for a, b in zip(ft.return_values, ref.return_values):
            assert np.array_equal(a, b)

    def test_phantom_payload(self):
        res = run_spmd(_bcast_prog(0, lambda: PhantomArray((8, 8))), 6,
                       params=PARAMS)
        for value in res.return_values:
            assert isinstance(value, PhantomArray)
            assert value.shape == (8, 8)

    def test_consecutive_broadcasts_do_not_cross_match(self):
        """The per-communicator tag sequence keeps a second broadcast's
        messages apart from the first's unclaimed backups."""

        def prog(ctx):
            first = np.zeros(4) if ctx.rank == 0 else None
            first = yield from ctx.world.bcast(first, root=0,
                                               algorithm="ft_binomial")
            second = np.ones(4) if ctx.rank == 0 else None
            second = yield from ctx.world.bcast(second, root=0,
                                                algorithm="ft_binomial")
            return (first, second)

        res = run_spmd(prog, 8, params=PARAMS)
        for first, second in res.return_values:
            assert np.array_equal(first, np.zeros(4))
            assert np.array_equal(second, np.ones(4))


class TestEscalation:
    def test_straggler_parent_triggers_recovery(self):
        """Rank 1 (parent of relative rank 3) enters the broadcast late;
        its child times out and recovers from the grandparent (root)."""
        policy = RetryPolicy(timeout=0.01)
        faults = FaultSchedule(retry=policy)
        res = run_spmd(
            _bcast_prog(0, lambda: np.arange(16.0), straggler=1, delay=0.5),
            4, params=PARAMS, faults=faults,
        )
        for value in res.return_values:
            assert np.array_equal(value, np.arange(16.0))
        assert res.total_timeouts >= 1
        assert res.total_recoveries >= 1
        assert res.stats[3].recoveries == 1

    def test_recovered_run_still_bit_identical(self):
        policy = RetryPolicy(timeout=0.01)
        clean = run_spmd(_bcast_prog(0, lambda: np.arange(16.0)), 8,
                         params=PARAMS)
        faulty = run_spmd(
            _bcast_prog(0, lambda: np.arange(16.0), straggler=1, delay=0.5),
            8, params=PARAMS, faults=FaultSchedule(retry=policy),
        )
        for a, b in zip(clean.return_values, faulty.return_values):
            assert np.array_equal(a, b)

    def test_deep_escalation(self):
        """Relative rank 7's whole ancestor chain (3 and 1) straggles, so
        it must fall all the way back to the blocking root receive."""
        policy = RetryPolicy(timeout=0.01)

        def prog(ctx):
            if ctx.rank in (1, 3):
                yield from ctx.compute(1.0)
            payload = np.arange(8.0) if ctx.rank == 0 else None
            out = yield from ctx.world.bcast(payload, root=0,
                                             algorithm="ft_binomial")
            return out

        res = run_spmd(prog, 8, params=PARAMS,
                       faults=FaultSchedule(retry=policy))
        assert np.array_equal(res.return_values[7], np.arange(8.0))
        assert res.stats[7].timeouts == 2
        assert res.stats[7].recoveries == 1


class TestRecvRetryFailure:
    def test_all_attempts_expired_raises(self):
        policy = RetryPolicy(timeout=0.001, max_attempts=3)

        def prog(ctx):
            if ctx.rank == 0:
                return None  # never sends
            out = yield from ctx.world.recv_retry(0, tag=5, policy=policy)
            return out

        with pytest.raises(FaultToleranceError) as info:
            run_spmd(prog, 2, params=PARAMS)
        assert "rank 0" in str(info.value)
        assert "3" in str(info.value)
