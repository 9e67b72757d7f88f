"""Bit-for-bit pins of symmetry-collapsed macro runs.

Each case runs one family on the collapsed macro engine and hashes what
the run reports through ``tests/pins.py``: every ``RankStats`` field,
the shapes of the return values and the collapse report.  Each case is
also held equal, field for field, to the same run stepped per rank, so
a digest change is either a change of what the per-rank macro backend
computes or a collapse that no longer reproduces it.

The cases cover every way the collapsed engine satisfies an operation:
point-to-point lanes (Cannon's sendrecv shifts, Fox's ring roll, the
DNS-3D blocking send/recv routes), memo joins of partially-probed
communicators (plain and root-rotated), and a placement-keyed coster on
a torus.
"""

from __future__ import annotations

import pytest

from repro.algorithms.cannon import run_cannon
from repro.algorithms.dns3d import run_dns3d
from repro.algorithms.fox import run_fox
from repro.core.cyclic import run_cyclic
from repro.core.hsumma import run_hsumma
from repro.simulator.costers import TopologyCoster
from repro.mpi.comm import CollectiveOptions
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.network.torus import Torus3D
from repro.payloads import PhantomArray
from repro.simulator.backends import MacroBackend
from repro.simulator.collapse import summa_symmetry
from tests.pins import assert_identical, canon, check

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)
GAMMA = 1e-10


def _phantom(n):
    return PhantomArray((n, n)), PhantomArray((n, n))


def _cannon(q):
    return lambda **run: run_cannon(*_phantom(8 * q), grid=(q, q), **run)


def _fox(q):
    return lambda **run: run_fox(*_phantom(8 * q), grid=(q, q), **run)


def _dns3d(q):
    return lambda **run: run_dns3d(*_phantom(4 * q), nprocs=q ** 3, **run)


def _cyclic(groups):
    return lambda **run: run_cyclic(*_phantom(128), grid=(8, 8), nb=8,
                                    groups=groups, **run)


def _hsumma(**run):
    return run_hsumma(*_phantom(128), grid=(8, 8), groups=4,
                      outer_block=16, inner_block=8, **run)


#: name -> (run, world size, torus dims or None for a homogeneous wire).
CASES = {
    **{f"cannon-q{q}": (_cannon(q), q * q, None) for q in (3, 4, 5, 8, 11)},
    **{f"fox-q{q}": (_fox(q), q * q, None) for q in (4, 8)},
    **{f"dns3d-q{q}": (_dns3d(q), q ** 3, None) for q in (4, 5)},
    "cyclic-8x8": (_cyclic((1, 1)), 64, None),
    "cyclic-8x8-G2x2": (_cyclic((2, 2)), 64, None),
    "hsumma-8x8-G4": (_hsumma, 64, None),
    "hsumma-8x8-G4-torus4x4x4": (_hsumma, 64, (4, 4, 4)),
}


def _backends(nranks, torus):
    """(collapsing backend, per-rank backend) on the case's network."""
    if torus is None:
        network = HomogeneousNetwork(nranks, PARAMS)
        return network, "macro", MacroBackend(network)
    network = Torus3D(torus, PARAMS)
    bcast = CollectiveOptions().bcast
    symmetry = summa_symmetry(8, 8, (2, 4), (2, 4))
    return (network,
            MacroBackend(network, coster=TopologyCoster(network, bcast),
                         symmetry=symmetry),
            MacroBackend(network, coster=TopologyCoster(network, bcast)))


def record(name):
    """The collapsed run's canonical report, after holding it equal to
    the per-rank run."""
    run, nranks, torus = CASES[name]
    network, collapsing, per_rank = _backends(nranks, torus)
    _, sim = run(network=network, backend=collapsing, gamma=GAMMA)
    _, ref = run(network=network, backend=per_rank, gamma=GAMMA)
    assert sim.collapse["mode"] == "collapsed", sim.collapse
    assert ref.collapse["mode"] == "per-rank"
    assert_identical(sim, ref)
    return canon(sim.stats), canon(sim.return_values), canon(sim.collapse)


PINS = {
    'cannon-q3': 'f31fede7471691ec',
    'cannon-q4': '16eebe4664c5feaa',
    'cannon-q5': '46d512ea9386ead1',
    'cannon-q8': 'cd1634dcdbd307a6',
    'cannon-q11': '6bf6883a185c7445',
    'fox-q4': '66aad714a97f47be',
    'fox-q8': '767be0e3db77d760',
    'dns3d-q4': '9820317152b890e9',
    'dns3d-q5': '4ae0f603b4f2183a',
    'cyclic-8x8': 'dde3df85eb233fe6',
    'cyclic-8x8-G2x2': '07415e4ddb96e8d9',
    'hsumma-8x8-G4': 'd86c5db2420d2eef',
    'hsumma-8x8-G4-torus4x4x4': 'd93ad65fd623f283',
}


@pytest.mark.parametrize("name", CASES)
def test_collapsed_runs_are_pinned(name, request):
    check(request, {name: record(name)})

