"""The tier conformance sweep: every :data:`~repro.core.launch.FAMILIES`
row and the multi-level hierarchy, drawn through the harness of
``conformance.py`` and held to the tier table of ``docs/cost_model.md``.

A new row enrols with no edit here; ``test_every_row_is_drawn`` fails
if a row accepts no drawn shape.  Beside the sweep, :data:`FIXED` pins
the runs the draws need not reach, each through one ``check_*``: every
family's widest run (HSUMMA's and cyclic's at every group grid, on the
homogeneous network and a torus) and the multi-level configurations.
"""

import pytest

from repro.core.hsumma import HSUMMA_MULTILEVEL, MultiLevelConfig
from repro.core.launch import FAMILIES, family
from repro.simulator.costers import TopologyCoster
from repro.mpi.comm import CollectiveOptions
from tests.property.conformance import (
    BULK,
    GROUP_GRIDS,
    MULTILEVEL,
    Run,
    check_collapse,
    check_des_against_macro,
    check_predictor,
    conforms,
    exact,
    rank_counts,
    widest_run,
)


@pytest.mark.parametrize("name", [*FAMILIES, MULTILEVEL])
def test_tiers_conform(name):
    conforms(name)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_every_row_is_drawn(name):
    # The widest run is the sweep's explicit example: a path refusing it
    # fails the sweep, it is never discarded.
    assert rank_counts(family(name), False) and widest_run(name) is not None


VDG = CollectiveOptions(bcast="vandegeijn")
#: ``(s, t, row_factors, col_factors, blocks)``; trivial top-level
#: factors collapse like the two levels below.
MULTILEVEL_CONFIGS = (
    (4, 4, (2, 2), (2, 2), (8, 4)),
    (4, 8, (2, 2), (2, 4), (8, 4)),
    (8, 8, (2, 2, 2), (2, 2, 2), (8, 4, 2)),
    (4, 4, (4,), (4,), (4,)),
    (8, 8, (1, 2, 4), (1, 4, 2), (8, 4, 2)),
    (4, 8, (1, 2, 2), (2, 1, 4), (8, 8, 4)),
)


def _multilevel(s, t, rows, cols, blocks, options=None,
                network="homogeneous"):
    """A phantom run, each of ``m, l, n`` the longer side times the top
    block."""
    n = max(s, t) * blocks[0]
    cfg = MultiLevelConfig(m=n, l=n, n=n, s=s, t=t, row_factors=rows,
                           col_factors=cols, blocks=blocks)
    return Run(HSUMMA_MULTILEVEL, cfg, (n, n, n),
               frozenset({(options or CollectiveOptions()).bcast}), False,
               options, network, phantom=True, trace=False)


def _collapse_rows():
    """``(id, run)`` of each fixed run pinned by ``check_collapse``."""
    torus = dict(stepped=True, network="torus")
    grids = [(name, str(g).replace(", ", "x").strip("()"), g)
             for name in ("hsumma", "cyclic") for g in GROUP_GRIDS]
    for name in ("summa", "cannon", "fox", "3d", "2.5d"):
        yield name, widest_run(name, VDG)
    for name, label, g in grids:
        yield f"{name}-G{label}", widest_run(name, VDG, groups=g)
    for i, cfg in enumerate(MULTILEVEL_CONFIGS):
        yield f"multilevel-{i}", _multilevel(*cfg)
    yield "torus-summa", widest_run("summa", VDG, **torus)
    for name, label, g in grids:
        yield f"torus-{name}-G{label}", widest_run(name, VDG, groups=g,
                                                   **torus)
    yield "torus-multilevel", _multilevel(4, 8, (1, 2, 2), (1, 4, 2),
                                          (8, 4, 4), VDG, "torus")


FIXED = [
    *(pytest.param(run, check_collapse, id=f"collapse-{key}")
      for key, run in _collapse_rows()),
    *(pytest.param(widest_run(name, VDG), check_predictor,
                   id=f"predictor-{name}")
      for name in ("summa", "hsumma", "cyclic", "cannon", "fox", "3d",
                   "2.5d", MULTILEVEL)),
    *(pytest.param(widest_run(name, CollectiveOptions(bcast=bcast),
                              scale=(3, 2, 5)),
                   check_des_against_macro, id=f"des-{name}-{bcast}")
      for name in ("summa", "hsumma", MULTILEVEL) for bcast in BULK),
]


@pytest.mark.parametrize("run, check", FIXED)
def test_a_fixed_run_conforms(run, check):
    network = run.net()
    if check is check_collapse:
        on_torus = run.network == "torus"
        sim = check_collapse(run, network, TopologyCoster(
            network, VDG.bcast) if on_torus else None)
        assert sim.collapse["mode"] == "collapsed", sim.collapse
        return
    macro = run.launch("macro", network)[1]
    if check is check_predictor:
        check_predictor(run, network, macro)
        return
    assert exact(run)
    check_des_against_macro(run, run.launch("des", network)[1], macro)
