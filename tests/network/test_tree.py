"""Unit tests for repro.network.tree (switched cluster)."""

import pytest

from repro.errors import TopologyError
from repro.network.model import HockneyParams
from repro.network.tree import SwitchedCluster

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)


class TestSwitchedCluster:
    def test_same_switch_one_traversal(self):
        net = SwitchedCluster(8, 4, PARAMS)
        assert net.hops(0, 3) == 1

    def test_cross_switch_two_traversals(self):
        net = SwitchedCluster(8, 4, PARAMS)
        assert net.hops(0, 4) == 2

    def test_cross_switch_costs_more(self):
        net = SwitchedCluster(8, 4, PARAMS)
        assert net.transfer_time(0, 4, 1000) > net.transfer_time(0, 3, 1000)

    def test_extra_cost_is_switch_hop_alpha(self):
        net = SwitchedCluster(8, 4, PARAMS, switch_hop_alpha=5e-5)
        near = net.transfer_time(0, 1, 1000)
        far = net.transfer_time(0, 7, 1000)
        assert far - near == pytest.approx(5e-5)

    def test_intra_node(self):
        net = SwitchedCluster(2, 2, PARAMS, ranks_per_node=2)
        assert net.hops(0, 1) == 0
        assert net.transfer_time(0, 1, 1000) < net.transfer_time(0, 2, 1000)
        intra = HockneyParams(1e-7, 1e-10)
        net = SwitchedCluster(2, 2, PARAMS, ranks_per_node=2,
                              intra_params=intra)
        assert net.transfer_time(0, 1, 1000) == intra.transfer_time(1000)

    def test_switch_of(self):
        net = SwitchedCluster(10, 3, PARAMS)
        assert net.switch_of(0) == 0
        assert net.switch_of(2) == 0
        assert net.switch_of(3) == 1
        assert net.switch_of(9) == 3

    def test_switch_of_bounds(self):
        net = SwitchedCluster(4, 2, PARAMS)
        with pytest.raises(TopologyError):
            net.switch_of(4)

    def test_links_share_uplink(self):
        net = SwitchedCluster(8, 4, PARAMS)
        links_a = set(net.links(0, 4))
        links_b = set(net.links(1, 5))
        # Both cross from switch 0 to switch 1: shared uplinks.
        shared = links_a & links_b
        assert ("uplink", 0, "up") in shared

    def test_same_switch_no_uplink(self):
        net = SwitchedCluster(8, 4, PARAMS)
        assert not any(c[0] == "uplink" for c in net.links(0, 3))

    def test_self_free(self):
        net = SwitchedCluster(4, 2, PARAMS)
        assert net.transfer_time(1, 1, 5) == 0.0

    def test_bad_construction(self):
        with pytest.raises(TopologyError):
            SwitchedCluster(0, 4, PARAMS)
        with pytest.raises(TopologyError):
            SwitchedCluster(4, 0, PARAMS)
        with pytest.raises(TopologyError):
            SwitchedCluster(4, 2, PARAMS, switch_hop_alpha=-1)
