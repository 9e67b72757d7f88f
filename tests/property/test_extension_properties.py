"""Property-based tests for the extension subsystems."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hetero.partition import proportional_partition
from repro.network.model import HockneyParams
from repro.simulator import run_spmd

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)


class TestPartitionProperties:
    @settings(max_examples=80)
    @given(
        total=st.integers(min_value=1, max_value=5000),
        speeds=st.lists(st.floats(min_value=0.01, max_value=100),
                        min_size=1, max_size=12),
    )
    def test_partition_invariants(self, total, speeds):
        if total < len(speeds):
            return
        shares = proportional_partition(total, speeds)
        assert sum(shares) == total
        assert len(shares) == len(speeds)
        assert all(s >= 1 for s in shares)

    @settings(max_examples=40)
    @given(
        total=st.integers(min_value=100, max_value=5000),
        p=st.integers(min_value=1, max_value=10),
        scale=st.floats(min_value=0.1, max_value=10),
    )
    def test_scale_invariance(self, total, p, scale):
        """Scaling all speeds preserves the shares up to remainder-tie
        reshuffling (largest-remainder ties are float-order dependent,
        so exact equality is not guaranteed — but each share may move
        by at most one item)."""
        speeds = [float(i + 1) for i in range(p)]
        a = proportional_partition(total, speeds)
        b = proportional_partition(total, [s * scale for s in speeds])
        assert all(abs(x - y) <= 1 for x, y in zip(a, b))

    @settings(max_examples=40)
    @given(
        total=st.integers(min_value=50, max_value=2000),
        p=st.integers(min_value=2, max_value=8),
    )
    def test_deviation_bounded(self, total, p):
        """Each share is within p of its ideal fractional value."""
        speeds = [float(2**i) for i in range(p)]
        shares = proportional_partition(total, speeds)
        weight = sum(speeds)
        for share, s in zip(shares, speeds):
            ideal = total * s / weight
            assert abs(share - ideal) <= p


class TestEagerProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        size=st.integers(min_value=2, max_value=8),
        threshold=st.sampled_from([0, 64, 1 << 20]),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_collectives_identical_results_any_protocol(
        self, size, threshold, seed
    ):
        """The eager knob changes timing, never data."""
        rng = np.random.default_rng(seed)
        data = rng.standard_normal(8)

        def prog(ctx):
            obj = data if ctx.rank == 0 else None
            obj = yield from ctx.world.bcast(obj, root=0)
            total = yield from ctx.world.allreduce(float(ctx.rank))
            return (float(obj.sum()), total)

        res = run_spmd(prog, size, params=PARAMS, eager_threshold=threshold)
        expected_sum = float(data.sum())
        expected_total = float(sum(range(size)))
        for dsum, total in res.return_values:
            assert dsum == pytest.approx(expected_sum)
            assert total == pytest.approx(expected_total)
