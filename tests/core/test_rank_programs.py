"""``rank_programs`` builds what is stepped.

The sequence it returns constructs rank ``r``'s context and program
when ``r`` is asked for: a collapsed macro run asks for its symmetry's
probe set and nothing else, every other consumer iterates and sees all
``p`` generators in rank order, and a run whose symmetry breaks falls
back to all ``p`` built afresh.  Builds are counted through the
program's module attribute (``launch`` reads it at call time), and the
counting wrapper keeps the run's shared state so the tests can look at
the collective-announcement registry afterwards.
"""

import sys

import numpy as np
import pytest

from repro.core.launch import FAMILIES, Shape, family, launch, rank_programs
from repro.core.summa import SUMMA, SummaConfig
from repro.errors import CollectiveMismatchError, SimulationError
from repro.mpi.cart import CartComm
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray
from repro.simulator.backends import MacroBackend
from repro.simulator.collapse import (
    CollapsedMacroEngine,
    _const,
    _grid,
    summa_symmetry,
)
from repro.verify.session import run_verified

N = 64
PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)
GAMMA = 1e-10
#: A shape per family whose probe set is a strict subset of its ranks.
SHAPES = {
    "summa": Shape(nprocs=64),
    "hsumma": Shape(nprocs=64),
    "cyclic": Shape(s=8, t=8, block=4, groups=(2, 2)),
    "cannon": Shape(nprocs=64),
    "fox": Shape(nprocs=64),
    "3d": Shape(nprocs=125),
    "2.5d": Shape(nprocs=32, replication=2),
}


class Builds:
    """Counting stand-in for a spec's rank program."""

    def __init__(self, monkeypatch, spec):
        self.ranks = []
        self.shared = []  # one _RankShared per make_programs() call
        original = spec.program
        module = sys.modules[original.__module__]

        def counting(ctx, *args):
            self.ranks.append(ctx.rank)
            if ctx._shared not in self.shared:
                self.shared.append(ctx._shared)
            return original(ctx, *args)

        monkeypatch.setattr(module, original.__name__, counting)


def _configured(name):
    n = 120 if name == "3d" else N  # 5 | 120
    _, cfg = family(name).configure(n, n, n, SHAPES[name])
    return family(name), cfg, PhantomArray((n, n))


def test_every_family_has_a_shape():
    assert set(SHAPES) == set(FAMILIES)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_a_collapsed_run_builds_exactly_the_probe_set(name, monkeypatch):
    spec, cfg, A = _configured(name)
    probe = spec.symmetry(cfg).probe
    nranks = spec.layout(cfg).nranks
    assert len(probe) < nranks
    builds = Builds(monkeypatch, spec)
    _, sim = launch(spec, cfg, A, A, params=PARAMS, gamma=GAMMA,
                    backend="macro")
    assert sim.collapse == {"mode": "collapsed", "probed": len(probe),
                            "ranks": nranks}
    assert builds.ranks == list(probe)
    [shared] = builds.shared
    assert sum(shared.built) == len(probe)
    # Every slot retired once its *built* members had announced: a
    # partially probed communicator has no other announcers to wait for.
    assert shared.collectives == {}


@pytest.mark.parametrize("name", list(FAMILIES))
@pytest.mark.parametrize("backend", ["des", "per-rank macro"])
def test_a_full_run_builds_every_rank_and_drains_the_registry(
        name, backend, monkeypatch):
    spec, cfg, A = _configured(name)
    nranks = spec.layout(cfg).nranks
    builds = Builds(monkeypatch, spec)
    if backend != "des":
        backend = MacroBackend(HomogeneousNetwork(nranks, PARAMS))
    launch(spec, cfg, A, A, params=PARAMS, gamma=GAMMA, backend=backend)
    assert builds.ranks == list(range(nranks))
    [shared] = builds.shared
    assert sum(shared.built) == nranks and shared.collectives == {}


def test_a_broken_symmetry_falls_back_to_all_ranks_built_afresh(monkeypatch):
    """Concrete tiles break the collapse en route; the fallback run
    gets its own ``make_programs()`` — new contexts, new registry — and
    equals the run that never declared a symmetry, field for field."""
    rng = np.random.default_rng(3)
    A, B = rng.standard_normal((N, N)), rng.standard_normal((N, N))
    cfg = SummaConfig(m=N, l=N, n=N, s=4, t=4, block=8)
    probe = SUMMA.symmetry(cfg).probe
    builds = Builds(monkeypatch, SUMMA)
    C, sim = launch(SUMMA, cfg, A, B, params=PARAMS, gamma=GAMMA,
                    backend="macro")
    assert sim.collapse["mode"] == "per-rank"
    assert "concrete data" in sim.collapse["reason"]
    assert builds.ranks == list(probe) + list(range(16))
    attempt, fallback = builds.shared
    assert sum(attempt.built) == len(probe) and sum(fallback.built) == 16
    assert fallback.collectives == {}

    plain_C, plain = launch(
        SUMMA, cfg, A, B, gamma=GAMMA,
        backend=MacroBackend(HomogeneousNetwork(16, PARAMS)))
    assert sim.stats == plain.stats
    assert all(np.array_equal(mine, theirs) for mine, theirs
               in zip(sim.return_values, plain.return_values))
    assert np.array_equal(C, plain_C) and np.allclose(C, A @ B)


def _summa_programs(s, t, monkeypatch):
    cfg = SummaConfig(m=N, l=N, n=N, s=s, t=t, block=8)
    builds = Builds(monkeypatch, SUMMA)
    A = PhantomArray((N, N))
    programs = rank_programs(SUMMA, cfg, s * t,
                             SUMMA.layout(cfg).deal(A, A), gamma=GAMMA)
    return programs, builds


def test_the_sequence_is_sized_indexable_and_rank_ordered(monkeypatch):
    programs, builds = _summa_programs(2, 4, monkeypatch)
    assert len(programs) == 8 and builds.ranks == []
    programs[5]
    assert builds.ranks == [5]
    for outside in (8, -1, 100):
        with pytest.raises(IndexError):
            programs[outside]
    assert builds.ranks == [5]

    del builds.ranks[:]
    generators = list(programs)
    assert builds.ranks == list(range(8)) and len(generators) == 8
    assert len({id(g) for g in generators}) == 8
    assert [g.gi_frame.f_locals["ctx"].rank for g in generators] \
        == list(range(8))


def test_an_error_while_building_a_rank_is_not_the_end_of_iteration():
    cfg = SummaConfig(m=N, l=N, n=N, s=2, t=2, block=8)

    tiles = [(PhantomArray((32, 32)),) * 2] * 3  # none for rank 3

    with pytest.raises(IndexError):
        list(rank_programs(SUMMA, cfg, 4, tiles.__getitem__))


def test_a_rank_count_the_symmetry_does_not_declare_is_refused(monkeypatch):
    programs, builds = _summa_programs(2, 2, monkeypatch)
    engine = CollapsedMacroEngine(HomogeneousNetwork(16, PARAMS),
                                  symmetry=summa_symmetry(4, 4))
    with pytest.raises(SimulationError,
                       match="4 programs but symmetry declares 16 ranks"):
        engine.run(programs)
    assert builds.ranks == []


# -- eager mismatch detection among the ranks a collapsed run steps ----


@pytest.mark.parametrize("culprit, probe_rows", [
    (1, 1),  # grid row 0 of the 1x1 cross: every member probed
    (9, 2),  # grid row 2 of the 2x2 probe: two of four members probed
], ids=["fully-probed", "partially-probed"])
def test_collapsed_runs_still_catch_a_mismatch_at_the_call_site(
        culprit, probe_rows):
    """A row broadcast on a 4x4 grid whose root ``culprit`` gets wrong:
    the slot of a partially probed communicator must stay open until
    its last *built* member has announced."""
    import dataclasses

    symmetry = _grid(4, 4, probe_rows, probe_rows, {0: _const, 1: _const})
    assert culprit in symmetry.probe
    built = []

    def body(ctx):
        grid = CartComm(ctx.world, 4, 4)
        root = 1 if ctx.rank == culprit else 0
        token = PhantomArray((8,)) if grid.col == root else None
        result = yield from grid.row_comm.bcast(token, root=root)
        return result

    def program(ctx, cfg):
        built.append(ctx.rank)
        return body(ctx)

    spec = dataclasses.replace(SUMMA, program=program)

    def make_programs():
        return rank_programs(spec, None, 16, lambda rank: ())

    with pytest.raises(CollectiveMismatchError) as exc:
        run_verified(make_programs, verify=None, backend="macro",
                     network=HomogeneousNetwork(16, PARAMS),
                     symmetry=symmetry)
    assert exc.value.check == "collective-root-mismatch"
    assert f"rank {culprit}:" in str(exc.value)
    assert built == list(symmetry.probe)  # raised in the collapsed run
