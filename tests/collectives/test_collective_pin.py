"""Bit-for-bit pins of every collective op and algorithm on its own.

Each ``(op, algorithm)`` pair runs alone on communicators of
p = 1, 2, 3, 5, 8 ranks (rooted ops at roots 0 and p - 1) through the
public :class:`repro.mpi.Comm` method, on a homogeneous network: on
the discrete-event engine untraced and traced, and on the macro
backend.  Every ``RankStats`` field, the per-rank return values and
the traced ``coll.*`` span trees (names, attributes in their order,
start/end) are hashed through ``tests/pins.py``.  A fourth and fifth
digest pin ``MicroDesCoster.collective_time`` for the pair on a
homogeneous network and on a 2x2x2 torus.  A refusal is recorded as
its message.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError
from repro.simulator.costers import MicroDesCoster
from repro.mpi.comm import CollectiveOptions
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.network.torus import Torus3D
from repro.simulator import run_spmd
from tests.pins import canon, check

PARAMS = HockneyParams(alpha=1e-5, beta=1e-9)
SIZES = (1, 2, 3, 5, 8)
#: Elements of each rank's float64 contribution.
COUNT = 48
#: Message sizes handed to the micro-DES coster.
COSTER_BYTES = (4096, 1 << 20)

#: Every collective op and algorithm the communicator can run.
PAIRS = (
    *(("bcast", name) for name in (
        "flat", "binomial", "binary", "chain", "pipelined", "segmented",
        "fourcolor", "hypersystolic", "vandegeijn", "ft_binomial")),
    ("scatter", "binomial"),
    ("gather", "binomial"),
    ("allgather", "ring"),
    ("reduce", "binomial"),
    ("allreduce", "recursive_doubling"),
    ("barrier", "dissemination"),
)

ROOTED = frozenset({"bcast", "scatter", "gather", "reduce"})


def _contribution(rank, index=0):
    return np.arange(COUNT, dtype=float) + 100.0 * rank + index


def _program(op, root):
    """One call of ``op`` through the public communicator method."""

    def program(ctx):
        comm = ctx.world
        me = ctx.rank
        if op == "bcast":
            out = yield from comm.bcast(
                _contribution(me) if me == root else None, root=root)
        elif op == "scatter":
            parts = None
            if me == root:
                parts = [_contribution(me, i) for i in range(comm.size)]
            out = yield from comm.scatter(parts, root=root)
        elif op == "gather":
            out = yield from comm.gather(_contribution(me), root=root)
        elif op == "allgather":
            out = yield from comm.allgather(_contribution(me))
        elif op == "reduce":
            out = yield from comm.reduce(_contribution(me), root=root)
        elif op == "allreduce":
            out = yield from comm.allreduce(_contribution(me))
        else:
            out = yield from comm.barrier()
        return out

    return program


def _options(op, algorithm):
    if op == "bcast":
        return CollectiveOptions(bcast=algorithm)
    return CollectiveOptions()


def _roots(op, p):
    return sorted({0, p - 1}) if op in ROOTED else [None]


RUNS = (
    ("des", {}),
    ("des traced", {"trace": True}),
    ("macro", {"backend": "macro"}),
)


def record_runs(op, algorithm, tier):
    """What one run tier reports for the pair, canonicalised."""
    run = dict(RUNS)[tier]
    out = []
    for p in SIZES:
        for root in _roots(op, p):
            try:
                sim = run_spmd(_program(op, root), p, params=PARAMS,
                               options=_options(op, algorithm), **run)
            except ReproError as exc:
                out.append((p, root, "refused", str(exc)))
                continue
            # Insertion order: a span's attributes are pinned in order.
            values = canon(sim.return_values, sort_keys=False)
            out.append((p, root, values, canon(sim.stats, sort_keys=False),
                        canon(sim.spans, sort_keys=False)))
    return tuple(out)


COSTER_NETWORKS = (
    ("micro homogeneous", lambda: HomogeneousNetwork(8, PARAMS)),
    ("micro torus", lambda: Torus3D((2, 2, 2), PARAMS)),
)


def record_coster(op, algorithm, tier):
    """``MicroDesCoster.collective_time`` for the pair, canonicalised."""
    network = dict(COSTER_NETWORKS)[tier]()
    out = []
    for p in SIZES:
        # A permutation of the eight ranks: participants are not a
        # contiguous block of the torus.
        participants = tuple((3 * i + 1) % 8 for i in range(p))
        for root in _roots(op, p):
            for nbytes in COSTER_BYTES:
                coster = MicroDesCoster(network)
                try:
                    t = coster.collective_time(
                        op, algorithm, participants, root or 0, nbytes)
                except ReproError as exc:
                    out.append((p, root, nbytes, "refused", str(exc)))
                    continue
                out.append((p, root, nbytes, canon(t)))
    return tuple(out)


TIERS = (*(label for label, _ in RUNS),
         *(label for label, _ in COSTER_NETWORKS))


def record(op, algorithm, tier):
    if tier in dict(RUNS):
        return record_runs(op, algorithm, tier)
    return record_coster(op, algorithm, tier)


def _case_id(pair, tier=None):
    name = f"{pair[0]}-{pair[1]}"
    return name if tier is None else f"{name}-{tier.replace(' ', '-')}"


PINS = {
    'bcast-flat-des': '013a88604d8596b3',
    'bcast-flat-des-traced': '91c6e01b3a1014df',
    'bcast-flat-macro': 'a7271ecefa0a6255',
    'bcast-flat-micro-homogeneous': '32b193ae3cfecc99',
    'bcast-flat-micro-torus': 'a3709f7e20eac853',
    'bcast-binomial-des': '92978a0dc5c887e2',
    'bcast-binomial-des-traced': '3b66da9437791c40',
    'bcast-binomial-macro': '7e1654ce50ffce4a',
    'bcast-binomial-micro-homogeneous': 'f5e294c25d36d33f',
    'bcast-binomial-micro-torus': '5dd06c92b254adab',
    'bcast-binary-des': 'bb9f8aca3b6b5aa5',
    'bcast-binary-des-traced': 'fe327f664b451718',
    'bcast-binary-macro': '064178c6cde52a6c',
    'bcast-binary-micro-homogeneous': 'f92cb1d807f473c2',
    'bcast-binary-micro-torus': 'd0fc055197dde9d7',
    'bcast-chain-des': '0176f37e8d23128d',
    'bcast-chain-des-traced': '38937108b384c9b2',
    'bcast-chain-macro': 'a7271ecefa0a6255',
    'bcast-chain-micro-homogeneous': '32b193ae3cfecc99',
    'bcast-chain-micro-torus': '3b83caa1162ffee8',
    'bcast-pipelined-des': 'c2c346e5fe4ae823',
    'bcast-pipelined-des-traced': 'c0e442fe10c9ca58',
    'bcast-pipelined-macro': 'a7271ecefa0a6255',
    'bcast-pipelined-micro-homogeneous': '9b68eedf33bfe2fc',
    'bcast-pipelined-micro-torus': 'af129c180ce3219e',
    'bcast-segmented-des': 'c99f9bb82cf2664c',
    'bcast-segmented-des-traced': '0c41f095f935d569',
    'bcast-segmented-macro': 'ef8d318bf61c5bf9',
    'bcast-segmented-micro-homogeneous': 'b20f9e158ae3434a',
    'bcast-segmented-micro-torus': 'b4ea85eae6550829',
    'bcast-fourcolor-des': '87da7764926c87cc',
    'bcast-fourcolor-des-traced': '3b632651e79f9109',
    'bcast-fourcolor-macro': '2b5868aef4b004bb',
    'bcast-fourcolor-micro-homogeneous': 'b1f6c661de85276d',
    'bcast-fourcolor-micro-torus': '1001d7a2e8ec02d8',
    'bcast-hypersystolic-des': 'af1febad008f3a60',
    'bcast-hypersystolic-des-traced': '424496c26ba800d1',
    'bcast-hypersystolic-macro': '006e490e919d439a',
    'bcast-hypersystolic-micro-homogeneous': 'f8d611be24a60725',
    'bcast-hypersystolic-micro-torus': 'a9230fc4f6eedcb6',
    'bcast-vandegeijn-des': '78a382024b903aed',
    'bcast-vandegeijn-des-traced': '9a8ea62821c79fd4',
    'bcast-vandegeijn-macro': '762b42244e122d5d',
    'bcast-vandegeijn-micro-homogeneous': 'd0b281a6997364aa',
    'bcast-vandegeijn-micro-torus': '13871d259265fbd1',
    'bcast-ft_binomial-des': 'd9f0ec3e7c9e6605',
    'bcast-ft_binomial-des-traced': 'fdbd4c6436d7c841',
    'bcast-ft_binomial-macro': '8ce630df86e00f03',
    'bcast-ft_binomial-micro-homogeneous': 'a4a8e4fabe7a9c39',
    'bcast-ft_binomial-micro-torus': '7dfb144f012c3879',
    'scatter-binomial-des': '6cae3271057cb672',
    'scatter-binomial-des-traced': '290eea99493c33b9',
    'scatter-binomial-macro': 'd8fd4a2436f4fde5',
    'scatter-binomial-micro-homogeneous': '28915ea89dff677d',
    'scatter-binomial-micro-torus': '6ec071fd9c12d726',
    'gather-binomial-des': '98c16d3d77e80240',
    'gather-binomial-des-traced': '705359630dc2cf3a',
    'gather-binomial-macro': '85739ba3d25fa9e1',
    'gather-binomial-micro-homogeneous': 'b722881d938c7ec8',
    'gather-binomial-micro-torus': 'c7b4fde510bdedda',
    'allgather-ring-des': 'e36db0d573f78c6e',
    'allgather-ring-des-traced': 'be136e2656bd7194',
    'allgather-ring-macro': '0a97debe3bcff075',
    'allgather-ring-micro-homogeneous': 'c49fae8a90835383',
    'allgather-ring-micro-torus': '28e3ceae035f40a5',
    'reduce-binomial-des': 'c35a054a5157fcd6',
    'reduce-binomial-des-traced': '4837f34a1305b593',
    'reduce-binomial-macro': '21527e77d8fe3e6f',
    'reduce-binomial-micro-homogeneous': 'f5e294c25d36d33f',
    'reduce-binomial-micro-torus': '45a7ddce04ea1bd9',
    'allreduce-recursive_doubling-des': '9dc750cf6007336c',
    'allreduce-recursive_doubling-des-traced': '3eb5b23363273330',
    'allreduce-recursive_doubling-macro': '205e698947de7c4f',
    'allreduce-recursive_doubling-micro-homogeneous': '5ecf4f9129711bbf',
    'allreduce-recursive_doubling-micro-torus': 'ec4b35cb2196171d',
    'barrier-dissemination-des': '03831341624a4278',
    'barrier-dissemination-des-traced': '1070be10dd853d9e',
    'barrier-dissemination-macro': '8018de82a96f6db2',
    'barrier-dissemination-micro-homogeneous': '0a897298bce17e8e',
    'barrier-dissemination-micro-torus': '7bfeaaf4e9cef8da',
}


@pytest.mark.parametrize("pair", PAIRS, ids=_case_id)
def test_collectives_are_pinned(pair, request):
    check(request, {_case_id(pair, tier): record(*pair, tier)
                    for tier in TIERS})

