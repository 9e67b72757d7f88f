"""Soundness of ``Network.placement_key`` over every network model.

The contract (see :meth:`repro.network.model.Network.placement_key`):
rank tuples with equal keys have bit-equal pairwise ``transfer_time``
for every size and ``links`` claims equal under one consistent
relabelling.  Costers memoise whole simulated collectives on the key,
contended ones included, so an unsound key is a silently wrong figure.

Registry-style: every ``Network`` subclass defined under
``repro.network`` must have cases here — a new topology fails
``test_every_network_class_has_cases`` until it is added, and then its
key (overridden or inherited) is checked like the others.
"""

import importlib
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.network
from repro.cluster.network import ClusterNetwork
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.mapping import (
    block_mapping,
    round_robin_mapping,
    shuffled_mapping,
)
from repro.network.model import HockneyParams, Network
from repro.network.subnet import SubNetwork
from repro.network.torus import Torus3D
from repro.network.tree import SwitchedCluster

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)
SIZES = (0, 1, 4096, 2 ** 20)


def _mappings(nranks, ranks_per_node):
    """Block (the default), cyclic and seeded-random placements."""
    nnodes = nranks // ranks_per_node
    return {
        "block": block_mapping(nranks, ranks_per_node),
        "cyclic": round_robin_mapping(nranks, nnodes),
        "random": shuffled_mapping(nranks, ranks_per_node, seed=7),
    }


def _cases():
    cases = {
        "homogeneous": HomogeneousNetwork(12, PARAMS),
    }
    for rpn in (1, 2):
        # A cluster places its ranks in blocks.
        cases[f"switched-rpn{rpn}-block"] = SwitchedCluster(
            12, 3, PARAMS, ranks_per_node=rpn)
        for name, mapping in _mappings(12 * rpn, rpn).items():
            cases[f"torus-rpn{rpn}-{name}"] = Torus3D(
                (3, 2, 2), PARAMS, ranks_per_node=rpn, alpha_hop=1e-5,
                mapping=mapping)
    # A view of each, over a scrambled half of its ranks.
    for name, net in list(cases.items()):
        ranks = list(range(net.nranks))
        cases[f"sub-{name}"] = SubNetwork(net, ranks[1::2] + ranks[0:4:2])
    return cases


CASES = _cases()


def _network_classes():
    for mod in pkgutil.iter_modules(repro.network.__path__):
        importlib.import_module(f"repro.network.{mod.name}")
    found, todo = set(), [Network]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("repro.network."):
                found.add(sub)
    return found


def _base(net):
    return _base(net.base) if isinstance(net, SubNetwork) else net


def test_every_network_class_has_cases():
    covered = {type(net) for net in CASES.values()}
    covered |= {type(_base(net)) for net in CASES.values()}
    assert _network_classes() <= covered


def assert_same_placement(net, a, b):
    """``a`` and ``b`` cost the same and claim isomorphic links."""
    fwd, bwd = {}, {}
    for i in range(len(a)):
        for j in range(len(a)):
            for nbytes in SIZES:
                ta = net.transfer_time(a[i], a[j], nbytes)
                tb = net.transfer_time(b[i], b[j], nbytes)
                assert ta.hex() == tb.hex(), (a, b, i, j, nbytes)
            la, lb = net.links(a[i], a[j]), net.links(b[i], b[j])
            assert len(la) == len(lb), (a, b, i, j)
            for ca, cb in zip(la, lb):
                assert fwd.setdefault(ca, cb) == cb, (a, b, ca, cb)
                assert bwd.setdefault(cb, ca) == ca, (a, b, ca, cb)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_equal_keys_mean_equal_costs_and_isomorphic_links(name, data):
    net = CASES[name]
    size = data.draw(st.integers(1, 4), label="size")
    tuples = data.draw(
        st.lists(
            st.permutations(range(net.nranks)).map(lambda p: tuple(p[:size])),
            min_size=2, max_size=30,
        ),
        label="tuples",
    )
    classes: dict = {}
    for ranks in tuples:
        classes.setdefault(net.placement_key(ranks), []).append(ranks)
    for members in classes.values():
        for a, b in zip(members, members[1:]):
            assert_same_placement(net, a, b)


class TestKeysActuallyCollapse:
    """The property above is vacuous for a key that never collides;
    these pin the collisions the figure sweeps rely on."""

    def test_default_is_the_tuple(self):
        # A job's view of a shared machine keeps the base key.
        net = ClusterNetwork(HomogeneousNetwork(8, PARAMS), 8)
        assert net.placement_key([3, 1, 2]) == (3, 1, 2)
        assert net.placement_key((3, 1, 2)) != net.placement_key((1, 3, 2))

    def test_homogeneous_is_the_size(self):
        net = HomogeneousNetwork(8, PARAMS)
        assert net.placement_key((0, 1, 2)) == net.placement_key((7, 3, 5)) == 3

    def test_switched_rows_sit_alike(self):
        net = SwitchedCluster(12, 3, PARAMS)
        row0, row1 = (0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11)
        assert net.placement_key(row0) == net.placement_key(row1)
        assert_same_placement(net, row0, row1)
        # Straddling the switches differently is another class...
        assert net.placement_key((1, 2, 3, 4, 5, 6)) != net.placement_key(row0)
        # ...and so is the same set interleaved across them.
        assert net.placement_key((0, 3, 1, 4, 2, 5)) != net.placement_key(row0)

    def test_switched_colocated_ranks_are_told_apart(self):
        net = SwitchedCluster(4, 2, PARAMS, ranks_per_node=2)
        assert net.placement_key((0, 1)) != net.placement_key((0, 2))
        assert net.placement_key((0, 1)) == net.placement_key((6, 7))

    def test_torus_is_translation_invariant(self):
        net = Torus3D((4, 4, 2), PARAMS, alpha_hop=1e-5)
        line = (0, 1, 2, 3)
        shifted = tuple(r + 4 * 3 + 16 for r in line)    # y+3, z+1
        wrapped = (2, 3, 0, 1)                           # x+2 around the ring
        assert net.placement_key(line) == net.placement_key(shifted)
        assert net.placement_key(line) == net.placement_key(wrapped)
        assert_same_placement(net, line, shifted)
        assert_same_placement(net, line, wrapped)
        assert net.placement_key((0, 4, 8, 12)) != net.placement_key(line)

    def test_subnetwork_defers_to_its_base(self):
        base = SwitchedCluster(12, 3, PARAMS)
        sub = SubNetwork(base, (6, 7, 8, 9, 10, 11, 0, 1, 2, 3, 4, 5))
        assert sub.placement_key((0, 1, 2, 3)) == base.placement_key((6, 7, 8, 9))
        assert sub.placement_key((0, 1, 2, 3)) == sub.placement_key((6, 7, 8, 9))
