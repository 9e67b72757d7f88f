"""Tests for the step-synchronous executor and costers.

The crucial property: on homogeneous networks the step model equals the
full discrete-event simulation *exactly* — so everything it predicts at
16384 ranks is backed by the executable semantics at small scale.
"""

import itertools

import pytest

from repro.core.hsumma import HSummaConfig, run_hsumma
from repro.core.summa import SummaConfig, run_summa
from repro.errors import ConfigurationError
from repro.experiments.stepmodel import hsumma_step_model, summa_step_model
from repro.mpi.comm import CollectiveOptions
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.network.torus import Torus3D
from repro.payloads import PhantomArray
from repro.simulator.costers import (
    AnalyticCoster,
    MicroDesCoster,
    TopologyCoster,
)
from tests.pins import canon, digest

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)
GAMMA = 1e-10


class TestCrossValidationHomogeneous:
    @pytest.mark.parametrize("bcast", ["binomial", "vandegeijn"])
    def test_summa_exact(self, bcast):
        n = 256
        cfg = SummaConfig(m=n, l=n, n=n, s=4, t=4, block=16)
        _, sim = run_summa(
            PhantomArray((n, n)), PhantomArray((n, n)),
            grid=(4, 4), block=16, params=PARAMS, gamma=GAMMA,
            options=CollectiveOptions(bcast=bcast),
        )
        rep = summa_step_model(cfg, AnalyticCoster(PARAMS, bcast), GAMMA)
        assert rep.total_time == pytest.approx(sim.total_time)
        assert rep.comm_time == pytest.approx(sim.comm_time)
        assert rep.compute_time == pytest.approx(sim.compute_time)

    @pytest.mark.parametrize("bcast", ["binomial", "vandegeijn"])
    @pytest.mark.parametrize("groups", [(1, 1), (2, 2), (4, 2), (4, 4)])
    def test_hsumma_exact(self, bcast, groups):
        n = 256
        I, J = groups
        cfg = HSummaConfig(m=n, l=n, n=n, s=4, t=4, I=I, J=J,
                           outer_block=16, inner_block=16)
        _, sim = run_hsumma(
            PhantomArray((n, n)), PhantomArray((n, n)),
            grid=(4, 4), groups=groups, outer_block=16,
            params=PARAMS, gamma=GAMMA,
            options=CollectiveOptions(bcast=bcast),
        )
        rep = hsumma_step_model(cfg, AnalyticCoster(PARAMS, bcast), GAMMA)
        assert rep.total_time == pytest.approx(sim.total_time)
        assert rep.comm_time == pytest.approx(sim.comm_time)

    def test_hsumma_b_ne_B_exact(self):
        n = 256
        cfg = HSummaConfig(m=n, l=n, n=n, s=4, t=4, I=2, J=2,
                           outer_block=32, inner_block=8)
        _, sim = run_hsumma(
            PhantomArray((n, n)), PhantomArray((n, n)),
            grid=(4, 4), groups=(2, 2), outer_block=32, inner_block=8,
            params=PARAMS, gamma=GAMMA,
        )
        rep = hsumma_step_model(cfg, AnalyticCoster(PARAMS, "binomial"), GAMMA)
        assert rep.total_time == pytest.approx(sim.total_time)

    def test_micro_des_equals_analytic_on_homogeneous(self):
        cfg = SummaConfig(m=128, l=128, n=128, s=4, t=4, block=8)
        net = HomogeneousNetwork(16, PARAMS)
        a = summa_step_model(cfg, AnalyticCoster(PARAMS, "vandegeijn"), GAMMA)
        m = summa_step_model(cfg, MicroDesCoster(net, "vandegeijn"), GAMMA)
        assert m.total_time == pytest.approx(a.total_time)

    def test_topology_coster_equals_analytic_on_homogeneous(self):
        cfg = SummaConfig(m=128, l=128, n=128, s=4, t=4, block=8)
        net = HomogeneousNetwork(16, PARAMS)
        a = summa_step_model(cfg, AnalyticCoster(PARAMS, "binomial"), GAMMA)
        t = summa_step_model(cfg, TopologyCoster(net, "binomial"), GAMMA)
        assert t.total_time == pytest.approx(a.total_time)


class TestCrossValidationTopology:
    def test_switched_cluster_step_model_close_to_des(self):
        """On a non-uniform (switched) topology the step model is an
        approximation; it must stay within a few percent of the full
        event simulation at Grid5000-figure scale."""
        from repro.core.summa import run_summa
        from repro.mpi.comm import CollectiveOptions
        from repro.platforms.grid5000 import grid5000_graphene

        platform = grid5000_graphene(16)
        net = platform.network(16)
        n = 512
        cfg = SummaConfig(m=n, l=n, n=n, s=4, t=4, block=32)
        _, sim = run_summa(
            PhantomArray((n, n)), PhantomArray((n, n)),
            grid=(4, 4), block=32, network=net,
            options=CollectiveOptions(bcast="vandegeijn"),
        )
        rep = summa_step_model(
            cfg, MicroDesCoster(platform.network(16), "vandegeijn")
        )
        assert rep.comm_time == pytest.approx(sim.comm_time, rel=0.05)


#: (s, t, I, J) grids and group grids of the phase-pricing pin.
PHASE_GRIDS = [(4, 4, 2, 2), (2, 8, 1, 4), (4, 4, 4, 1), (8, 8, 2, 4)]
PHASE_BCASTS = ["binomial", "vandegeijn", "segmented", "fourcolor",
                "hypersystolic"]


def test_outer_phase_is_priced_by_its_announced_algorithm():
    """Each HSUMMA phase is priced under the broadcast algorithm its
    requests announce, for every mix of outer and inner algorithm.  The
    digest (``float.hex`` of total, comm and compute over 200
    configurations) was computed when the outer phase still had a
    coster of its own."""
    hexes = []
    for (s, t, I, J), outer, inner, depth in itertools.product(
            PHASE_GRIDS, PHASE_BCASTS, PHASE_BCASTS, [None, 3]):
        cfg = HSummaConfig(m=256, l=256, n=256, s=s, t=t, I=I, J=J,
                           outer_block=16, inner_block=8,
                           outer_bcast=outer, inner_bcast=inner)
        rep = hsumma_step_model(
            cfg, AnalyticCoster(PARAMS, inner, segments=depth), GAMMA)
        hexes += canon((rep.total_time, rep.comm_time, rep.compute_time))
    assert digest("".join(hexes), 64) == (
        "87c4cf5123c65d4dc48a2fd59a3f72a8a2735bd46fe6d1d1b0d11ba11d290559")


class TestCosters:
    def test_single_participant_free(self):
        for coster in (
            AnalyticCoster(PARAMS),
            MicroDesCoster(HomogeneousNetwork(4, PARAMS)),
            TopologyCoster(HomogeneousNetwork(4, PARAMS)),
        ):
            assert coster.bcast_time((3,), 0, 1 << 20) == 0.0

    def test_micro_des_memoises(self):
        net = HomogeneousNetwork(8, PARAMS)
        coster = MicroDesCoster(net, "binomial")
        t1 = coster.bcast_time((0, 1, 2, 3), 0, 4096)
        assert len(coster._memo) == 1
        t2 = coster.bcast_time((4, 5, 6, 7), 0, 4096)  # same size: memo hit
        assert len(coster._memo) == 1
        assert t1 == t2

    def test_micro_des_torus_position_sensitive(self):
        net = Torus3D((8, 8, 1), HockneyParams(3e-6, 1e-9), alpha_hop=1e-6)
        coster = MicroDesCoster(net, "binomial")
        # A compact row vs a scattered diagonal.
        compact = coster.bcast_time(tuple(range(8)), 0, 4096)
        spread = coster.bcast_time(tuple(9 * i for i in range(7)), 0, 4096)
        assert spread > compact

    def test_topology_coster_torus_sensitivity(self):
        net = Torus3D((8, 8, 1), HockneyParams(3e-6, 1e-9), alpha_hop=1e-6)
        coster = TopologyCoster(net, "binomial")
        compact = coster.bcast_time(tuple(range(8)), 0, 4096)
        spread = coster.bcast_time(tuple(9 * i for i in range(7)), 0, 4096)
        assert spread > compact

    def test_report_validation(self):
        from repro.experiments.stepmodel import StepModelReport

        with pytest.raises(ConfigurationError):
            StepModelReport(total_time=-1, comm_time=0, compute_time=0, nsteps=1)


class TestTopologyPairSampling:
    """Regression tests for ``TopologyCoster._pairs``.

    The old sampler drew ``(i * stride) % n`` index pairs, which both
    repeated pairs (wasting samples) and biased the estimate toward
    low-index participants.  The fixed sampler must return *distinct*
    ordered pairs spread over the whole pair lattice.
    """

    def _coster(self, nranks=4096):
        return TopologyCoster(HomogeneousNetwork(nranks, PARAMS))

    def test_small_groups_use_all_ordered_pairs(self):
        coster = self._coster()
        participants = tuple(range(10, 20))  # 10*9 = 90 <= 512 cap
        pairs = coster._pairs(participants)
        assert len(pairs) == 10 * 9
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) == {
            (a, b) for a in participants for b in participants if a != b
        }

    def test_large_groups_sample_distinct_pairs(self):
        coster = self._coster()
        participants = tuple(range(0, 4096, 2))  # 2048 ranks, ~4.2M pairs
        pairs = coster._pairs(participants)
        assert len(pairs) == TopologyCoster.MAX_PAIR_SAMPLES
        assert len(set(pairs)) == len(pairs), "sampler returned duplicates"
        members = set(participants)
        assert all(a in members and b in members and a != b for a, b in pairs)

    def test_large_groups_cover_senders_evenly(self):
        # The old sampler's senders clustered at low indices; the fixed
        # one walks the lattice uniformly, so both halves of the group
        # must appear as senders in roughly equal measure.
        coster = self._coster()
        participants = tuple(range(1024))
        pairs = coster._pairs(participants)
        mid = participants[len(participants) // 2]
        low = sum(1 for a, _ in pairs if a < mid)
        high = sum(1 for a, _ in pairs if a >= mid)
        assert abs(low - high) <= TopologyCoster.MAX_PAIR_SAMPLES * 0.1

    def test_sampling_is_deterministic(self):
        coster = self._coster()
        participants = tuple(range(0, 3000, 3))
        assert coster._pairs(participants) == coster._pairs(participants)

    def test_just_over_cap_still_distinct(self):
        # Smallest group where sampling kicks in: n*(n-1) barely above
        # the cap exercises the strictly-increasing-q argument hardest.
        coster = self._coster()
        n = 24  # 24*23 = 552 > 512
        participants = tuple(range(100, 100 + n))
        pairs = coster._pairs(participants)
        assert len(pairs) == TopologyCoster.MAX_PAIR_SAMPLES
        assert len(set(pairs)) == len(pairs)
