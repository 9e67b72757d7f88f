"""Tests for the heterogeneous 1-D SUMMA and proportional partitioning."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hetero import proportional_partition, run_hetero_summa1d
from repro.hetero.partition import partition_bounds
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray

PARAMS = HockneyParams(alpha=1e-5, beta=1e-9)


class TestProportionalPartition:
    def test_exact_ratio(self):
        assert proportional_partition(100, [1.0, 1.0, 2.0]) == [25, 25, 50]

    def test_sums_to_total(self):
        for total in (7, 64, 1001):
            for speeds in ([1, 2, 3], [0.3, 0.3, 0.4], [5, 1, 1, 1]):
                assert sum(proportional_partition(total, speeds)) == total

    def test_minimum_one_each(self):
        shares = proportional_partition(10, [1000.0, 1.0, 1.0])
        assert min(shares) >= 1
        assert sum(shares) == 10

    def test_uniform(self):
        assert proportional_partition(12, [1, 1, 1, 1]) == [3, 3, 3, 3]

    def test_largest_remainder(self):
        # Ideal shares 3.33.., so two ranks get 3, one gets 4.
        shares = proportional_partition(10, [1, 1, 1])
        assert sorted(shares) == [3, 3, 4]

    def test_errors(self):
        with pytest.raises(ConfigurationError):
            proportional_partition(0, [1])
        with pytest.raises(ConfigurationError):
            proportional_partition(10, [])
        with pytest.raises(ConfigurationError):
            proportional_partition(10, [1, -1])
        with pytest.raises(ConfigurationError):
            proportional_partition(2, [1, 1, 1])

    def test_bounds_contiguous(self):
        bounds = partition_bounds(20, [1, 3])
        assert bounds == [(0, 5), (5, 20)]


class TestHeteroSumma1d:
    @pytest.mark.parametrize("speeds,groups", [
        ([1, 1, 1, 1], 1),
        ([1, 2, 3, 4], 1),
        ([1, 2, 3, 4], 2),
        ([1, 2, 3, 4], 4),
        ([1, 1, 2, 2, 4, 4], 3),
        ([5], 1),
    ])
    def test_correct(self, rng, speeds, groups):
        m, l, n = 24, 32, 40
        A = rng.standard_normal((m, l))
        B = rng.standard_normal((l, n))
        C, _ = run_hetero_summa1d(A, B, speeds=speeds, block=8,
                                  groups=groups, params=PARAMS)
        assert np.max(np.abs(C - A @ B)) < 1e-10

    def test_compute_load_balanced(self):
        """Speed-proportional widths equalise per-rank compute time."""
        _, sim = run_hetero_summa1d(
            PhantomArray((256, 256)), PhantomArray((256, 256)),
            speeds=[1, 2, 4, 8], block=32, params=PARAMS, base_gamma=1e-8,
        )
        comps = [s.compute_time for s in sim.stats]
        assert max(comps) / min(comps) < 1.05

    def test_balanced_beats_naive_partition(self):
        """A uniform split on a 1:8 machine leaves the slow rank as the
        straggler; the proportional split wins."""
        kwargs = dict(block=32, params=PARAMS, base_gamma=1e-8)
        A = PhantomArray((256, 256))
        B = PhantomArray((256, 256))
        speeds = [1, 2, 4, 8]
        _, balanced = run_hetero_summa1d(A, B, speeds=speeds, **kwargs)
        _, naive = run_hetero_summa1d(
            A, B, speeds=speeds, partition_speeds=[1, 1, 1, 1], **kwargs
        )
        assert balanced.total_time < naive.total_time * 0.75

    def test_hierarchical_groups_reduce_comm(self):
        """The HSUMMA two-phase trick composes with heterogeneity."""
        from repro.mpi.comm import CollectiveOptions

        opts = CollectiveOptions(bcast="vandegeijn")
        A = PhantomArray((512, 512))
        B = PhantomArray((512, 512))
        speeds = [1, 2] * 8  # 16 ranks
        kwargs = dict(block=16, params=HockneyParams(1e-4, 1e-9),
                      base_gamma=0.0, options=opts)
        _, flat = run_hetero_summa1d(A, B, speeds=speeds, groups=1, **kwargs)
        _, hier = run_hetero_summa1d(A, B, speeds=speeds, groups=4, **kwargs)
        assert hier.comm_time < flat.comm_time

    def test_phantom_mode(self):
        C, sim = run_hetero_summa1d(
            PhantomArray((64, 64)), PhantomArray((64, 64)),
            speeds=[1, 3], block=16, params=PARAMS,
        )
        assert isinstance(C, PhantomArray)
        assert sim.total_time > 0

    def test_partition_speeds_length_checked(self, rng):
        with pytest.raises(ConfigurationError):
            run_hetero_summa1d(
                rng.standard_normal((8, 8)), rng.standard_normal((8, 8)),
                speeds=[1, 1], partition_speeds=[1, 1, 1], block=4,
                params=PARAMS,
            )

    def test_groups_must_divide(self, rng):
        with pytest.raises(ConfigurationError):
            run_hetero_summa1d(
                rng.standard_normal((8, 8)), rng.standard_normal((8, 8)),
                speeds=[1, 1, 1], groups=2, block=4, params=PARAMS,
            )


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kwargs,named", [
    ({"speeds": (1.0, NAN), "partition_speeds": (1.0, 1.0)}, "speeds[1]"),
    ({"speeds": (1.0, 0.0), "partition_speeds": (1.0, 1.0)}, "speeds[1]"),
    ({"speeds": (1.0, INF), "partition_speeds": (1.0, 1.0)}, "speeds[1]"),
    ({"speeds": (1.0, -1.0)}, "speeds[1]"),
    ({"speeds": (1.0, INF)}, "speeds[1]"),
    ({"speeds": (1.0, 1.0), "partition_speeds": (INF, 1.0)},
     "partition_speeds[0]"),
    ({"speeds": (1.0, 1.0), "base_gamma": NAN}, "base_gamma"),
    ({"speeds": (1.0, 1.0), "base_gamma": INF}, "base_gamma"),
    ({"speeds": (1.0, 1.0), "base_gamma": -1e-9}, "base_gamma"),
], ids=["speed-nan", "speed-zero", "speed-inf", "speed-negative",
        "speed-inf-unpartitioned", "partition-speed-inf", "base-gamma-nan",
        "base-gamma-inf", "base-gamma-negative"])
def test_bad_speeds_and_base_gamma_are_refused_by_name(kwargs, named):
    with pytest.raises(ConfigurationError) as err:
        run_hetero_summa1d(PhantomArray((64, 64)), PhantomArray((64, 64)),
                           block=16, params=PARAMS, **kwargs)
    assert str(err.value).startswith(named)
