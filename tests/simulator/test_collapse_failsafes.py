"""The collapsed engine's point-to-point fail-safes.

Each way a Cannon run can stray from its declared symmetry must fall
back to the per-rank path, say why in the collapse report, and give
exactly the per-rank floats.  The 8-rank probe below is a test-only
declaration: the four ranks of ``{0, 1}^2`` the clamped twins land on,
plus the four wrap-around partners of the shifts at the far row and
column, which complete every class's point-to-point streams.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.algorithms.cannon import run_cannon
from repro.errors import SimulationError
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray
from repro.simulator.backends import MacroBackend
from repro.simulator.collapse import cannon_symmetry
from tests.pins import assert_identical

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)
GAMMA = 1e-10


def corner_probe(q):
    """``{0, 1, q-1}^2`` without ``(q-1, q-1)``, as world ranks."""
    edge = (0, 1, q - 1)
    return tuple(sorted({i * q + j for i in edge for j in edge}
                        - {q * q - 1}))


def run_both(q, operands=None, **changes):
    """Cannon under ``cannon_symmetry(q)`` with ``changes`` applied, and
    the same run stepped per rank; asserts every field agrees."""
    operands = operands or (PhantomArray((8 * q, 8 * q)),) * 2
    network = HomogeneousNetwork(q * q, PARAMS)
    symmetry = dataclasses.replace(cannon_symmetry(q), **changes)
    C, sim = run_cannon(*operands, grid=(q, q), network=network,
                        backend=MacroBackend(network, symmetry=symmetry),
                        gamma=GAMMA)
    _, ref = run_cannon(*operands, grid=(q, q), network=network,
                        backend=MacroBackend(network), gamma=GAMMA)
    assert_identical(sim, ref)
    return C, sim


def test_an_undeclared_tag_falls_back():
    _, sim = run_both(4, p2p_tags=frozenset({1, 2, 3}))
    assert sim.collapse["mode"] == "per-rank"
    assert "undeclared p2p tag 4" in sim.collapse["reason"]


def test_concrete_tiles_fall_back_with_the_right_product():
    rng = np.random.default_rng(5)
    A, B = rng.standard_normal((32, 32)), rng.standard_normal((32, 32))
    C, sim = run_both(4, (A, B))
    assert sim.collapse["mode"] == "per-rank"
    assert "sent concrete data" in sim.collapse["reason"]
    np.testing.assert_allclose(C, A @ B, rtol=1e-10)


def test_an_undersized_probe_deadlocks_and_falls_back():
    # The clamped twins alone: no class ever hears from the far column.
    _, sim = run_both(6, probe=(0, 1, 6, 7))
    assert sim.collapse["mode"] == "per-rank"
    assert "deadlocked" in sim.collapse["reason"]


@pytest.mark.parametrize("q", [3, 4, 5, 7, 16])
def test_the_corner_probe_collapses(q):
    _, sim = run_both(q, probe=corner_probe(q))
    assert sim.collapse == {"mode": "collapsed", "probed": 8,
                            "ranks": q * q}


@pytest.mark.parametrize("i, j", [(0, -1), (1, -1), (-1, 0), (-1, 1)])
def test_each_wraparound_rank_of_the_corner_probe_is_needed(i, j):
    q = 6
    dropped = (i % q) * q + j % q
    _, sim = run_both(q, probe=tuple(r for r in corner_probe(q)
                                     if r != dropped))
    assert sim.collapse["mode"] == "per-rank"
    assert "deadlocked" in sim.collapse["reason"]


@pytest.mark.parametrize("probe, message", [
    ((0, 1, 16), "probe rank 16 is outside the 16-rank world"),
    ((-1, 0, 1), "probe rank -1 is outside the 16-rank world"),
    ((0, 1, 1, 2), "probe rank 1 is listed twice"),
])
def test_a_malformed_probe_is_refused_by_name(probe, message):
    with pytest.raises(SimulationError, match=message):
        dataclasses.replace(cannon_symmetry(4), probe=probe)
