"""Bit-for-bit pins of SUMMA and HSUMMA runs on every tier.

Each case runs one grid (and group grid) under one broadcast setting on
the discrete-event engine (numpy operands, then phantom and traced),
the macro backend (collapsed where the declaration allows) and the
predictor, and hashes what the runs report: every ``RankStats`` field,
the return values, the collapse report and the traced span tree (names,
attributes and times) through ``tests/pins.py``.  A refusal is
recorded as its message.  Any change to a float, a count, a span or a
report changes the digest.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hsumma import run_hsumma
from repro.core.summa import run_summa
from repro.errors import ConfigurationError
from repro.mpi.comm import CollectiveOptions
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray
from tests.pins import canon, check

PARAMS = HockneyParams(alpha=1e-5, beta=1e-9)
GAMMA = 1e-9
N = 64

#: (label, CollectiveOptions kwargs, per-level broadcast overrides):
#: the library default, an (outer, inner) pair each way round, and a
#: segmented broadcast at depth 2.
BCASTS = (
    ("default", {}, (None, None)),
    ("binomial/vandegeijn", {}, ("binomial", "vandegeijn")),
    ("vandegeijn/flat", {"bcast": "binomial"}, ("vandegeijn", "flat")),
    ("segmented@2", {"bcast": "segmented", "bcast_segments": 2},
     (None, None)),
)

#: (family, grid, group grid or None).
CASES = (
    ("summa", (1, 1), None),
    ("summa", (4, 1), None),
    ("summa", (1, 4), None),
    ("summa", (4, 4), None),
    ("summa", (2, 4), None),
    ("hsumma", (4, 4), (1, 1)),
    ("hsumma", (4, 4), (2, 1)),
    ("hsumma", (4, 4), (1, 2)),
    ("hsumma", (4, 4), (2, 2)),
    ("hsumma", (4, 4), (4, 4)),
    ("hsumma", (4, 4), (4, 1)),
    ("hsumma", (4, 4), (1, 4)),
    ("hsumma", (8, 4), (2, 1)),
    ("hsumma", (2, 8), (2, 4)),
)


def _run(algorithm, grid, groups, bcasts, operands, **run):
    if algorithm == "summa":
        return run_summa(*operands, grid=grid, block=8, bcast=bcasts[1],
                         **run)
    return run_hsumma(*operands, grid=grid, groups=groups, outer_block=8,
                      inner_block=4, outer_bcast=bcasts[0],
                      inner_bcast=bcasts[1], **run)


def record(algorithm, grid, groups, options, bcasts):
    """What every tier reports for one case, canonicalised."""
    rng = np.random.default_rng(7)
    data = rng.standard_normal((N, N)), rng.standard_normal((N, N))
    husks = PhantomArray((N, N)), PhantomArray((N, N))
    opts = CollectiveOptions(**options)
    tiers = (
        ("des", data, {}),
        ("des traced", husks, {"trace": True}),
        ("macro", husks, {"backend": "macro"}),
        ("predictor", husks, {"backend": "predictor"}),
    )
    out = []
    for label, operands, run in tiers:
        try:
            C, sim = _run(algorithm, grid, groups, bcasts, operands,
                          params=PARAMS, gamma=GAMMA, options=opts, **run)
        except ConfigurationError as exc:
            out.append((label, "refused", str(exc)))
            continue
        out.append((label, *map(canon, (C, sim.stats, sim.return_values,
                                        sim.collapse, sim.spans))))
    return tuple(out)


def _case_id(case, setting):
    algorithm, grid, groups = case
    shape = f"{grid[0]}x{grid[1]}"
    if groups is not None:
        shape += f"-G{groups[0]}x{groups[1]}"
    return f"{algorithm}-{shape}-{setting[0]}"


PINS = {
    'summa-1x1-default': '206db5cf01f2e593',
    'summa-1x1-binomial/vandegeijn': '6035211e538b39f8',
    'summa-1x1-vandegeijn/flat': '07fc0d7862e2cea3',
    'summa-1x1-segmented@2': '68e296c8db00d744',
    'summa-4x1-default': '79d2db4f93034597',
    'summa-4x1-binomial/vandegeijn': '93269fae7c1fe48b',
    'summa-4x1-vandegeijn/flat': 'ec7017be8a9daa11',
    'summa-4x1-segmented@2': '2d5ad222223ff370',
    'summa-1x4-default': '301c43cfb3ef9e07',
    'summa-1x4-binomial/vandegeijn': '8a27a7c31d60d644',
    'summa-1x4-vandegeijn/flat': '82ab89b437ed100f',
    'summa-1x4-segmented@2': 'd865475cd79d90aa',
    'summa-4x4-default': '9a5a732eef5c098c',
    'summa-4x4-binomial/vandegeijn': '48ed858cbf2fe652',
    'summa-4x4-vandegeijn/flat': '261495805e33151d',
    'summa-4x4-segmented@2': '4c24ca4ee2b2c884',
    'summa-2x4-default': 'a02829ebc374d267',
    'summa-2x4-binomial/vandegeijn': 'f0b4f9a2f07270f6',
    'summa-2x4-vandegeijn/flat': 'e529d53685792737',
    'summa-2x4-segmented@2': 'fe622b0885213494',
    'hsumma-4x4-G1x1-default': 'df21e89aa54b8129',
    'hsumma-4x4-G1x1-binomial/vandegeijn': '374c89efd6a4ec9c',
    'hsumma-4x4-G1x1-vandegeijn/flat': '2159f45bc472f42b',
    'hsumma-4x4-G1x1-segmented@2': '593c99ab0d990c85',
    'hsumma-4x4-G2x1-default': '6b99b78e6fcbd140',
    'hsumma-4x4-G2x1-binomial/vandegeijn': '12924cf1fa7e0f71',
    'hsumma-4x4-G2x1-vandegeijn/flat': '91c2b74c10daee27',
    'hsumma-4x4-G2x1-segmented@2': 'f868adab7bd8d50f',
    'hsumma-4x4-G1x2-default': '171c7d12b382400b',
    'hsumma-4x4-G1x2-binomial/vandegeijn': '02ba23ade0cb77b4',
    'hsumma-4x4-G1x2-vandegeijn/flat': 'a447962c71ebcec2',
    'hsumma-4x4-G1x2-segmented@2': '70e19338c3627726',
    'hsumma-4x4-G2x2-default': 'a4fa7d7f388f4f15',
    'hsumma-4x4-G2x2-binomial/vandegeijn': '7235e1e2f8f41b77',
    'hsumma-4x4-G2x2-vandegeijn/flat': '3b2cc3c61961e1be',
    'hsumma-4x4-G2x2-segmented@2': 'ccbdf1919d8e0618',
    'hsumma-4x4-G4x4-default': '0483b502ce5e1a79',
    'hsumma-4x4-G4x4-binomial/vandegeijn': '9c45ce23e1256e2e',
    'hsumma-4x4-G4x4-vandegeijn/flat': '7041ce3fba6f8548',
    'hsumma-4x4-G4x4-segmented@2': 'd4c3090b7c7b6e7e',
    'hsumma-4x4-G4x1-default': '3159b0a50d82037c',
    'hsumma-4x4-G4x1-binomial/vandegeijn': '7e1ca08af919baa0',
    'hsumma-4x4-G4x1-vandegeijn/flat': 'c9e68b4f1ff14ace',
    'hsumma-4x4-G4x1-segmented@2': '1ae85adae710b99d',
    'hsumma-4x4-G1x4-default': 'cf41e72b736539ca',
    'hsumma-4x4-G1x4-binomial/vandegeijn': '6db73ba507b9773f',
    'hsumma-4x4-G1x4-vandegeijn/flat': 'fa7ac50bf502ed6c',
    'hsumma-4x4-G1x4-segmented@2': 'bfed74bbf24d63f6',
    'hsumma-8x4-G2x1-default': '5bd62b0438da31b1',
    'hsumma-8x4-G2x1-binomial/vandegeijn': 'bef7bbc59e24a99a',
    'hsumma-8x4-G2x1-vandegeijn/flat': 'dc4333148af85726',
    'hsumma-8x4-G2x1-segmented@2': '46651f879fa3117c',
    'hsumma-2x8-G2x4-default': '35d1f7b62f949d3d',
    'hsumma-2x8-G2x4-binomial/vandegeijn': '990fb3eecb7eb0f7',
    'hsumma-2x8-G2x4-vandegeijn/flat': 'c68247d09e45a3e0',
    'hsumma-2x8-G2x4-segmented@2': 'ad76604b670d3f34',
}


@pytest.mark.parametrize("case", CASES, ids=lambda c: _case_id(c, ("",))[:-1])
def test_runs_are_pinned(case, request):
    check(request, {_case_id(case, s): record(*case, *s[1:])
                    for s in BCASTS})


@pytest.mark.parametrize("grid, probed", [((4, 4), 10), ((8, 4), 20)])
def test_column_strip_collapses(grid, probed):
    # A group grid of one group column (J = 1) whose declaration keys
    # the outer-column communicators too coarsely still yields the
    # right floats, by falling back per rank: only the mode shows it.
    A = PhantomArray((N, N))
    _, sim = run_hsumma(A, A, grid=grid, groups=(2, 1), outer_block=8,
                        params=PARAMS, gamma=GAMMA, backend="macro")
    assert sim.collapse == {"mode": "collapsed", "probed": probed,
                            "ranks": grid[0] * grid[1]}

