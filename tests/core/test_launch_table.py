"""Conformance by registration for the family table.

Every test parametrised on ``family_name`` sweeps
:data:`repro.core.launch.FAMILIES`: adding a row enrolls the new family
in the launch contract — data-mode product, tier agreement, uniform
shared options — and ``test_every_family_has_a_case`` fails until the
row comes with a (tiny) case to run.
"""

import numpy as np
import pytest

from repro import multiply
from repro.core import launch as launch_module
from repro.core.launch import FAMILIES, family
from repro.errors import ConfigurationError
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray

N = 64
#: Dyadic platform parameters: every cost is exact in binary floating
#: point, so the tiers must agree to the bit, not to a tolerance.
PARAMS = HockneyParams(alpha=2.0 ** -17, beta=2.0 ** -30)
GAMMA = 2.0 ** -30

#: ``multiply`` arguments of one small run per family.
CASES = {
    "summa": dict(grid=(2, 4), block=8),
    "hsumma": dict(grid=(4, 4), block=8, groups=4),
    "cyclic": dict(grid=(2, 2), block=8),
    "cannon": dict(grid=(4, 4)),
    "fox": dict(grid=(4, 4)),
    "3d": dict(nprocs=8),
    "2.5d": dict(nprocs=32, replication=2),
}


@pytest.fixture(params=list(FAMILIES))
def family_name(request):
    return request.param


def _run(name, *, phantom=True, **run):
    if phantom:
        A, B = PhantomArray((N, N)), PhantomArray((N, N))
    else:
        rng = np.random.default_rng(7)
        A, B = rng.standard_normal((N, N)), rng.standard_normal((N, N))
    result = multiply(A, B, algorithm=name, params=PARAMS, gamma=GAMMA,
                      **CASES[name], **run)
    return A, B, result


def test_every_family_has_a_case():
    assert set(CASES) == set(FAMILIES)


def test_table_rows_resolve_to_their_own_name(family_name):
    spec = family(family_name)
    assert spec.name == family_name
    assert (spec.predict is None) != (spec.refusal is None)


def test_unknown_family_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="transposed-summa"):
        family("transposed-summa")


def test_data_mode_product(family_name):
    A, B, result = _run(family_name, phantom=False)
    assert np.allclose(result.C, A @ B)


def test_macro_equals_des_on_homogeneous_network(family_name):
    _, _, des = _run(family_name, backend="des")
    _, _, macro = _run(family_name, backend="macro")
    assert macro.total_time == des.total_time
    assert macro.compute_time == des.compute_time


def test_predictor_matches_macro_or_refuses_by_name(family_name):
    spec = family(family_name)
    if spec.predict is None:
        with pytest.raises(ConfigurationError) as exc:
            _run(family_name, backend="predictor")
        assert f"'{spec.refusal[0]}'" in str(exc.value)
        assert spec.display in str(exc.value)
        return
    _, _, macro = _run(family_name, backend="macro")
    _, _, predicted = _run(family_name, backend="predictor")
    assert predicted.total_time == macro.total_time
    assert predicted.compute_time == macro.compute_time
    assert predicted.comm_time == pytest.approx(macro.comm_time, rel=1e-9)


def test_trace_leaves_total_time_bit_identical(family_name):
    _, _, plain = _run(family_name)
    _, _, traced = _run(family_name, trace=True)
    assert traced.total_time == plain.total_time
    assert traced.sim.trace


def test_shared_options_are_accepted_uniformly(family_name):
    """Seven runners used to lack ``trace`` and three ``faults``."""
    _, _, result = _run(family_name, trace=True, contention=True,
                        bcast_segments=2, verify=True,
                        faults="slow(rank=1,factor=2)")
    assert result.sim.verdict.ok


def test_unknown_keyword_is_a_type_error_naming_it(family_name):
    with pytest.raises(TypeError, match="pipeline_depth"):
        _run(family_name, pipeline_depth=4)


# -- the specs that need no table row ---------------------------------


def _refusing_runs():
    from repro.core.cyclic import run_cyclic
    from repro.core.hsumma import run_hsumma_multilevel
    from repro.core.overlap import run_hsumma_overlap, run_summa_overlap
    from repro.factorization.lu import run_block_lu
    from repro.factorization.qr import run_block_qr

    A = PhantomArray((N, N))
    return {
        "summa-overlap": lambda **kw: run_summa_overlap(
            A, A, grid=(2, 2), block=8, **kw),
        "hsumma-overlap": lambda **kw: run_hsumma_overlap(
            A, A, grid=(4, 4), groups=4, outer_block=8, **kw),
        "cyclic-overlap": lambda **kw: run_cyclic(
            A, A, grid=(2, 2), nb=8, overlap=True, **kw),
        "multilevel": lambda **kw: run_hsumma_multilevel(
            A, A, grid=(4, 4), row_factors=(2, 2), col_factors=(2, 2),
            blocks=(8, 4), **kw),
        "lu": lambda **kw: run_block_lu(A, grid=(2, 2), block=8, **kw),
        "qr": lambda **kw: run_block_qr(A, grid=(2, 2), block=8, **kw),
    }


@pytest.mark.parametrize("variant", sorted(_refusing_runs()))
def test_refusals_come_before_any_program_is_built(variant, monkeypatch):
    def no_programs(*args, **kwargs):
        raise AssertionError("the predictor refusal built rank programs")

    monkeypatch.setattr(launch_module, "rank_programs", no_programs)
    with pytest.raises(ConfigurationError,
                       match="backend='predictor' cannot price"):
        _refusing_runs()[variant](backend="predictor", trace=True)


@pytest.mark.parametrize("variant", sorted(_refusing_runs()))
def test_variants_take_the_shared_options_too(variant):
    result = _refusing_runs()[variant](trace=True, verify=True,
                                       params=PARAMS, gamma=GAMMA)
    sim = result[-1]
    assert sim.verdict.ok and sim.total_time > 0


# -- one program factory ----------------------------------------------


def test_runner_step_model_and_cluster_share_one_program_factory(
        monkeypatch):
    """``run_summa``, ``summa_step_model`` and ``cluster.build_programs``
    all reach ``summa_program`` through the spec's module attribute, so
    one wrapper on the module counts every rank of all three."""
    from repro.cluster import JobSpec, build_programs
    from repro.cluster.programs import naive_launch
    from repro.core import summa
    from repro.experiments.stepmodel import AnalyticCoster, summa_step_model

    built = []
    original = summa.summa_program

    def counting(ctx, a_tile, b_tile, cfg):
        built.append(ctx.rank)
        assert a_tile.shape == (cfg.m // cfg.s, cfg.l // cfg.t)
        return original(ctx, a_tile, b_tile, cfg)

    monkeypatch.setattr(summa, "summa_program", counting)
    A = PhantomArray((N, N))

    summa.run_summa(A, A, grid=(2, 2), block=8)
    assert sorted(built) == [0, 1, 2, 3]

    del built[:]
    cfg = summa.SummaConfig(m=N, l=N, n=N, s=4, t=4, block=8)
    summa_step_model(cfg, AnalyticCoster(PARAMS), GAMMA)
    assert sorted(built) == list(range(16))

    del built[:]
    job = JobSpec(jid=0, arrival=0.0, n=N, p=4)
    spec = naive_launch(job, alpha=PARAMS.alpha, beta=PARAMS.beta,
                        gamma=GAMMA)
    assert len(build_programs(job, spec, gamma=GAMMA)) == 4
    assert sorted(built) == [0, 1, 2, 3]


# -- the yardstick: a new family is one file plus one table row --------
#
# Everything from here to TSUMMA is the "one file" (it would live under
# src/repro/algorithms/); the monkeypatched FAMILIES entry is the "one
# row".  Nothing in planner/service.py, cluster/programs.py,
# core/api.py or experiments/stepmodel.py knows the name.

from repro.blocks.ops import local_gemm_acc, slice_cols, slice_rows  # noqa: E402
from repro.core.launch import AlgorithmSpec, collapse  # noqa: E402
from repro.core.summa import SummaConfig, c_accumulator  # noqa: E402
from repro.mpi.cart import CartComm  # noqa: E402
from repro.simulator.predictor import chain_walk  # noqa: E402


def tsumma_program(ctx, a_tile, b_tile, cfg):
    """SUMMA with the pivot broadcasts swapped: B's column first."""
    grid = CartComm(ctx.world, cfg.s, cfg.t)
    a_cols, b_rows = cfg.l // cfg.t, cfg.l // cfg.s
    c_tile = c_accumulator(a_tile, b_tile, cfg)
    for k in range(cfg.nsteps):
        g0 = k * cfg.block
        owner_row, owner_col = g0 // b_rows, g0 // a_cols
        b_piv = None
        if grid.row == owner_row:
            b_piv = slice_rows(b_tile, g0 % b_rows, g0 % b_rows + cfg.block)
        b_piv = yield from grid.col_comm.bcast(b_piv, root=owner_row,
                                               algorithm=cfg.bcast)
        a_piv = None
        if grid.col == owner_col:
            a_piv = slice_cols(a_tile, g0 % a_cols, g0 % a_cols + cfg.block)
        a_piv = yield from grid.row_comm.bcast(a_piv, root=owner_col,
                                               algorithm=cfg.bcast)
        c_tile = yield from local_gemm_acc(ctx, c_tile, a_piv, b_piv)
    return c_tile


@chain_walk("tsumma", lambda cfg: (cfg.bcast,))
def predict_tsumma(chain, cfg):
    mloc, nloc = cfg.m // cfg.s, cfg.n // cfg.t
    gemm = chain.gemm_seconds(mloc, cfg.block, nloc)
    for _ in range(cfg.nsteps):
        chain.bcast(cfg.s, cfg.block * nloc * chain.b_itemsize, 1)
        chain.bcast(cfg.t, mloc * cfg.block * chain.a_itemsize, 0)
        chain.compute_seconds(gemm)


def _tsumma_configure(m, l, n, *, s, t, block, bcast=None, **_):
    return SummaConfig(m=m, l=l, n=n, s=s, t=t, block=block, bcast=bcast)


TSUMMA = AlgorithmSpec(
    name="tsumma",
    display="transposed SUMMA",
    program=tsumma_program,
    symmetry=lambda cfg: collapse().summa_symmetry(cfg.s, cfg.t),
    predict=predict_tsumma,
    configure=_tsumma_configure,
)


@pytest.fixture
def tsumma_row(monkeypatch):
    monkeypatch.setitem(FAMILIES, "tsumma", f"{__name__}:TSUMMA")
    monkeypatch.setitem(CASES, "tsumma", dict(grid=(2, 4), block=8))


def test_toy_family_passes_conformance_from_one_row(tsumma_row):
    assert set(CASES) == set(FAMILIES)
    test_table_rows_resolve_to_their_own_name("tsumma")
    test_data_mode_product("tsumma")
    test_macro_equals_des_on_homogeneous_network("tsumma")
    test_predictor_matches_macro_or_refuses_by_name("tsumma")
    test_shared_options_are_accepted_uniformly("tsumma")
    with pytest.raises(ConfigurationError, match="transposed SUMMA"):
        _run("tsumma", backend="predictor", bcast="segmented")


def test_toy_family_streams_and_plans_from_one_row(tsumma_row):
    from repro.cluster import JobSpec, build_programs
    from repro.cluster.programs import LaunchSpec
    from repro.planner import PlanQuery
    from repro.planner.service import _build_config
    from repro.planner.space import Candidate

    job = JobSpec(jid=0, arrival=0.0, n=N, p=8)
    spec = LaunchSpec(algorithm="tsumma", s=2, t=4, block=8, predicted=0.0)
    assert len(build_programs(job, spec)) == 8
    cfg = _build_config(PlanQuery(n=N, p=8).resolve(),
                        Candidate("tsumma", 2, 4, block=8))
    assert (cfg.s, cfg.t, cfg.block) == (2, 4, 8)
