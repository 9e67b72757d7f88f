"""Each distinct placement is priced once.

The identity-dependent costers memoise on the network's placement key
and one coster serves a whole ``group_sweep`` call.  Pinned here: the count
chain for fig6 at paper defaults (3584 queries, 168 engine runs), that
the Series are bit-identical to pricing every point with a fresh coster
keyed on the raw rank tuple, and that contended simulations are shared
only between placements whose link claims are isomorphic.
"""

import pytest

from repro.experiments import figures
from repro.experiments.figures import fig5, fig6, fig7, fig8
from repro.simulator.costers import MicroDesCoster, TopologyCoster
from repro.network.model import HockneyParams, Network
from repro.network.torus import Torus3D
from repro.network.tree import SwitchedCluster


@pytest.fixture
def costers(monkeypatch):
    """Every ``MicroDesCoster`` the figure drivers build, in order."""
    built = []

    def recording(*args, **kwargs):
        built.append(MicroDesCoster(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(figures, "MicroDesCoster", recording)
    return built


def price_unshared(monkeypatch):
    """Switch the drivers to the reference pricing: a fresh coster for
    every sweep point, memoising on the identity key."""
    monkeypatch.setattr(          # un-cache: built anew at every access
        figures._Sweep, "coster", property(figures._Sweep.coster.func))
    for topology in (SwitchedCluster, Torus3D):
        monkeypatch.setattr(topology, "placement_key", Network.placement_key)


def test_fig6_simulates_each_placement_class_once(costers):
    fig6()
    [coster] = costers                       # one coster for the sweep
    assert coster.calls == 3584
    assert coster.simulations == 168 == len(coster._memo)


def test_reference_pays_for_every_query(costers, monkeypatch):
    price_unshared(monkeypatch)
    fig6(p=32, n=2048, block=128)
    assert len(costers) > 1                  # one per point
    assert all(c.simulations == c.calls for c in costers)


@pytest.mark.parametrize("driver, kwargs", [
    (fig5, {"p": 64, "n": 2048, "block": 32}),
    (fig6, {}),
    (fig7, {"procs": (16, 64), "n": 2048, "block": 128}),
    (fig8, {"p": 64, "n": 4096, "block": 128}),      # topology coster
], ids=["fig5", "fig6", "fig7", "fig8"])
def test_series_bit_identical_to_per_point_identity_keyed_pricing(
        driver, kwargs, monkeypatch):
    shared = driver(**kwargs)
    price_unshared(monkeypatch)
    reference = driver(**kwargs)
    assert shared.x == reference.x
    assert shared.columns.keys() == reference.columns.keys()
    for name, column in shared.columns.items():
        assert [float(v).hex() for v in column] == [
            float(v).hex() for v in reference.columns[name]], name


def test_contended_simulation_shared_only_within_a_placement_class():
    """Two grid rows dealt alike over the switches contend alike."""
    net = SwitchedCluster(12, 3, HockneyParams(alpha=1e-4, beta=1e-9))
    # Ring neighbours alternate between two edge switches, so the
    # allgather's transfers queue on the uplinks; the third tuple puts
    # its last rank under another switch.
    row0, row1 = (0, 3, 1, 4, 2, 5), (6, 9, 7, 10, 8, 11)
    elsewhere = (0, 3, 1, 4, 2, 6)
    assert net.placement_key(row0) == net.placement_key(row1)
    assert net.placement_key(row0) != net.placement_key(elsewhere)

    def simulate(ranks, contention):
        coster = MicroDesCoster(net, "vandegeijn", contention=contention)
        return coster._simulate("bcast", "vandegeijn", ranks, 2, 1 << 20, None)

    assert simulate(row0, True) > 2 * simulate(row0, False)
    assert simulate(row0, True).hex() == simulate(row1, True).hex()
    assert simulate(elsewhere, True) != simulate(row0, True)

    coster = MicroDesCoster(net, "vandegeijn", contention=True)
    for ranks in (row0, row1, elsewhere):
        assert coster.bcast_time(ranks, 2, 1 << 20) == simulate(ranks, True)
    assert (coster.calls, coster.simulations) == (3, 2)


def test_topology_coster_sweeps_pairs_once_per_placement_class():
    net = Torus3D((4, 4, 2), HockneyParams(alpha=3e-6, beta=1e-9),
                  ranks_per_node=2, alpha_hop=1e-6)
    rows = [tuple(range(8 * r, 8 * r + 8)) for r in range(8)]
    coster = TopologyCoster(net, "vandegeijn")
    times = [coster.bcast_time(row, 0, 1 << 16) for row in rows]
    assert len(coster._memo) == 1            # every row is row 0 translated
    assert times == [TopologyCoster(net, "vandegeijn").bcast_time(
        row, 0, 1 << 16) for row in rows]
    coster.bcast_time(tuple(range(0, 64, 8)), 0, 1 << 16)   # a column
    assert len(coster._memo) == 2
