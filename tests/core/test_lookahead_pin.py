"""Bit-for-bit pins of the lookahead and two-phase-grid runs.

Each case runs one family on the discrete-event engine with numpy
operands, untraced and traced, once fault-free and once under a
transient fault schedule, and hashes what the runs report: every
``RankStats`` field, the return values and every ``TransferRecord``
(``src, dst, tag, nbytes, start, finish, span``) through
``tests/pins.py``.  The families are the SUMMA and HSUMMA lookahead
schedules, block-cyclic SUMMA (flat, hierarchical and flat with
lookahead) and block LU / QR (flat and hierarchical panel
broadcasts).  A refusal is recorded as its message.  Message tags and
the fault schedule's drop decisions both read the broadcast tag salts
and the communicator creation order, so a change to either changes
the digest.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cyclic import run_cyclic
from repro.core.overlap import run_hsumma_overlap, run_summa_overlap
from repro.errors import ConfigurationError
from repro.factorization.lu import run_block_lu
from repro.factorization.qr import run_block_qr
from repro.network.model import HockneyParams
from tests.pins import canon, check

PARAMS = HockneyParams(alpha=1e-5, beta=1e-9)
GAMMA = 1e-9
N = 64

#: (label, faults): fault-free, and drops plus a slow rank (transient).
FAULTS = (
    ("clean", None),
    ("faulty", "drop(p=0.05); slow(rank=3,factor=2)"),
)

GRIDS = ((4, 4), (2, 8))
GROUPS = ((1, 1), (2, 1), (1, 2), (2, 2), (4, 4))
SEGMENTS = (None, 2)

#: (family, grid, group grid, bcast_segments).
CASES = (
    *(("summa-overlap", g, None, seg) for g in GRIDS for seg in SEGMENTS),
    *(("hsumma-overlap", g, G, seg)
      for g in GRIDS for G in GROUPS for seg in SEGMENTS),
    *(("cyclic", g, G, False) for g in GRIDS for G in ((1, 1), (2, 2))),
    *(("cyclic", g, (1, 1), True) for g in GRIDS),
    *((kernel, (4, 4), G, None)
      for kernel in ("lu", "qr") for G in ((1, 1), (2, 2))),
)


def _operands(family):
    rng = np.random.default_rng(7)
    A = rng.standard_normal((N, N))
    if family == "lu":
        # Diagonally dominant: the unpivoted LU needs no pivoting.
        return (A + N * np.eye(N),)
    if family == "qr":
        return (A,)
    return A, rng.standard_normal((N, N))


def _run(family, grid, groups, extra, operands, **run):
    if family == "summa-overlap":
        return run_summa_overlap(*operands, grid=grid, block=4,
                                 bcast_segments=extra, **run)
    if family == "hsumma-overlap":
        return run_hsumma_overlap(*operands, grid=grid, groups=groups,
                                  outer_block=8, inner_block=4,
                                  bcast_segments=extra, **run)
    if family == "cyclic":
        return run_cyclic(*operands, grid=grid, nb=4, groups=groups,
                          overlap=extra, **run)
    if family == "lu":
        L, U, sim = run_block_lu(*operands, grid=grid, block=8,
                                 groups=groups, **run)
        return (L, U), sim
    return run_block_qr(*operands, grid=grid, block=8, groups=groups,
                        **run)


def record(family, grid, groups, extra, faults):
    """What the untraced and the traced run report, canonicalised."""
    operands = _operands(family)
    out = []
    for trace in (False, True):
        try:
            C, sim = _run(family, grid, groups, extra, operands,
                          params=PARAMS, gamma=GAMMA, faults=faults,
                          trace=trace)
        except ConfigurationError as exc:
            out.append(("refused", str(exc)))
            continue
        out.append(tuple(map(canon, (C, sim.stats, sim.return_values,
                                     sim.trace))))
    return tuple(out)


def _case_id(case, setting):
    family, grid, groups, extra = case
    shape = f"{grid[0]}x{grid[1]}"
    if groups is not None:
        shape += f"-G{groups[0]}x{groups[1]}"
    if family == "cyclic" and extra:
        shape += "-overlap"
    elif extra:
        shape += f"-seg{extra}"
    return f"{family}-{shape}-{setting[0]}"


PINS = {
    'summa-overlap-4x4-clean': 'f625eefa8fdbaf6b',
    'summa-overlap-4x4-faulty': 'f15e11012d18a57e',
    'summa-overlap-4x4-seg2-clean': '664c18b6c459ea4c',
    'summa-overlap-4x4-seg2-faulty': 'fc8f48dfb140ad09',
    'summa-overlap-2x8-clean': '8b474355a0e0c9b8',
    'summa-overlap-2x8-faulty': '643a7c86caf8705f',
    'summa-overlap-2x8-seg2-clean': '8849ccca5c34b22c',
    'summa-overlap-2x8-seg2-faulty': '4e771b5d8dae5205',
    'hsumma-overlap-4x4-G1x1-clean': 'a7287bbc3a97b46b',
    'hsumma-overlap-4x4-G1x1-faulty': 'd3696847777385e0',
    'hsumma-overlap-4x4-G1x1-seg2-clean': 'b4ecf38317c7d4b4',
    'hsumma-overlap-4x4-G1x1-seg2-faulty': 'c5bb4f7646a08ebf',
    'hsumma-overlap-4x4-G2x1-clean': '48bd87648a127aab',
    'hsumma-overlap-4x4-G2x1-faulty': 'd5c8c93554762a31',
    'hsumma-overlap-4x4-G2x1-seg2-clean': 'f4b541da95b2b81f',
    'hsumma-overlap-4x4-G2x1-seg2-faulty': '2d26426bcf9c42a7',
    'hsumma-overlap-4x4-G1x2-clean': '453208aa05658067',
    'hsumma-overlap-4x4-G1x2-faulty': '53c7515beb78d02a',
    'hsumma-overlap-4x4-G1x2-seg2-clean': 'a6d39417c5d5392e',
    'hsumma-overlap-4x4-G1x2-seg2-faulty': '84286769c394e67a',
    'hsumma-overlap-4x4-G2x2-clean': '946402136f048373',
    'hsumma-overlap-4x4-G2x2-faulty': 'f7133f633ee3883a',
    'hsumma-overlap-4x4-G2x2-seg2-clean': 'd0cf04606054c485',
    'hsumma-overlap-4x4-G2x2-seg2-faulty': 'f3b8dd5a509603c8',
    'hsumma-overlap-4x4-G4x4-clean': 'c1574a8288967c44',
    'hsumma-overlap-4x4-G4x4-faulty': '9b2978fbe0905fcf',
    'hsumma-overlap-4x4-G4x4-seg2-clean': 'aa157a8698e2b656',
    'hsumma-overlap-4x4-G4x4-seg2-faulty': '2194908b4131c816',
    'hsumma-overlap-2x8-G1x1-clean': '78b7938396a0fa95',
    'hsumma-overlap-2x8-G1x1-faulty': 'bbcfb9ca4947bff3',
    'hsumma-overlap-2x8-G1x1-seg2-clean': '75c87e30708e5b97',
    'hsumma-overlap-2x8-G1x1-seg2-faulty': '942bfad2bc05a782',
    'hsumma-overlap-2x8-G2x1-clean': 'b1aacaacf4ac7d1f',
    'hsumma-overlap-2x8-G2x1-faulty': 'a48b3937b191c4c4',
    'hsumma-overlap-2x8-G2x1-seg2-clean': 'ea6e174d5294a004',
    'hsumma-overlap-2x8-G2x1-seg2-faulty': '3eb9b17de30ba107',
    'hsumma-overlap-2x8-G1x2-clean': '648bed6ab224141b',
    'hsumma-overlap-2x8-G1x2-faulty': '1147ed72c124dc8a',
    'hsumma-overlap-2x8-G1x2-seg2-clean': '353c50969e16bfdc',
    'hsumma-overlap-2x8-G1x2-seg2-faulty': 'be2d8df2e8cbe86a',
    'hsumma-overlap-2x8-G2x2-clean': '1b898e4bd0b9afb5',
    'hsumma-overlap-2x8-G2x2-faulty': '0033c02e329dfd8b',
    'hsumma-overlap-2x8-G2x2-seg2-clean': '713ca7abb688ee0b',
    'hsumma-overlap-2x8-G2x2-seg2-faulty': '2c760aa86ec0e215',
    'hsumma-overlap-2x8-G4x4-clean': '5ab91c7a5e67f800',
    'hsumma-overlap-2x8-G4x4-faulty': '5ab91c7a5e67f800',
    'hsumma-overlap-2x8-G4x4-seg2-clean': '5ab91c7a5e67f800',
    'hsumma-overlap-2x8-G4x4-seg2-faulty': '5ab91c7a5e67f800',
    'cyclic-4x4-G1x1-clean': '013f0cbbd43705d4',
    'cyclic-4x4-G1x1-faulty': '97258120455c44da',
    'cyclic-4x4-G2x2-clean': '6616c9eab2cac9f8',
    'cyclic-4x4-G2x2-faulty': '956eea29ed1cc183',
    'cyclic-2x8-G1x1-clean': '1523c710f97368a0',
    'cyclic-2x8-G1x1-faulty': '3f65d22911028a1e',
    'cyclic-2x8-G2x2-clean': '514baeb2873daf29',
    'cyclic-2x8-G2x2-faulty': 'a5aa558a9a704ab3',
    'cyclic-4x4-G1x1-overlap-clean': '2606d88d18db64eb',
    'cyclic-4x4-G1x1-overlap-faulty': 'df115273204739a7',
    'cyclic-2x8-G1x1-overlap-clean': '5d324e6ad602fc98',
    'cyclic-2x8-G1x1-overlap-faulty': '7e0e5ff5b67816d9',
    'lu-4x4-G1x1-clean': '7a1d9b1cd0caa570',
    'lu-4x4-G1x1-faulty': 'd2f2b94f74117baa',
    'lu-4x4-G2x2-clean': '29447c8e982ead6b',
    'lu-4x4-G2x2-faulty': '5fc0d1fa5409049d',
    'qr-4x4-G1x1-clean': 'e34c2e44f51c5616',
    'qr-4x4-G1x1-faulty': 'a247d83537b4a648',
    'qr-4x4-G2x2-clean': '3a3c2f225c86fcdf',
    'qr-4x4-G2x2-faulty': 'b5d1cff5d5de0432',
}


@pytest.mark.parametrize("case", CASES, ids=lambda c: _case_id(c, ("",))[:-1])
def test_runs_are_pinned(case, request):
    check(request, {_case_id(case, s): record(*case, s[1]) for s in FAULTS})

