"""Unit tests for repro.network.homogeneous."""

from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams


class TestHomogeneousNetwork:
    def test_all_pairs_equal(self):
        net = HomogeneousNetwork(6, HockneyParams(1e-5, 1e-9))
        times = {
            net.transfer_time(a, b, 1000)
            for a in range(6)
            for b in range(6)
            if a != b
        }
        assert len(times) == 1

    def test_links_unique_per_pair(self):
        net = HomogeneousNetwork(4, HockneyParams(1e-5, 1e-9))
        assert net.links(0, 1) != net.links(1, 0)
        assert net.links(0, 1) != net.links(0, 2)
