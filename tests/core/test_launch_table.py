"""Conformance by registration for the family table.

Every test parametrised on ``family_name`` sweeps
:data:`repro.core.launch.FAMILIES`: adding a row enrolls the new family
in the launch contract — data-mode product, tier agreement, uniform
shared options — and ``test_every_family_has_a_case`` fails until the
row comes with a (tiny) case to run.  Beyond these single cases the tier
conformance harness (``tests/property/conformance.py``) draws every row.
"""

import numpy as np
import pytest

from repro import multiply
from repro.core import launch as launch_module
from repro.core.launch import FAMILIES, family
from repro.errors import ConfigurationError
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray
from tests.property.conformance import conforms

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


def _shape_of(case):
    """A ``multiply`` case as the :class:`Shape` it describes."""
    from repro.core.launch import Shape

    case = dict(case)
    s, t = case.pop("grid", (None, None))
    return Shape(s=s, t=t, **case)


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


def test_a_table_row_without_configure_is_refused_by_name(monkeypatch):
    """Only three of the seven rows used to carry a ``configure``; a
    ``LaunchSpec`` of the others passed validation and died in
    ``build_programs`` with ``'NoneType' object is not callable``."""
    import dataclasses

    from repro.core import summa

    monkeypatch.setattr(summa, "BARE", dataclasses.replace(
        summa.SUMMA, name="bare", configure=None), raising=False)
    monkeypatch.setitem(FAMILIES, "bare", "repro.core.summa:BARE")
    with pytest.raises(ConfigurationError, match="'bare' has no configure"):
        family("bare")


def test_every_row_builds_programs_from_a_launch_spec(family_name):
    from repro.cluster import JobSpec, build_programs
    from repro.cluster.programs import LaunchSpec

    shape, cfg = family(family_name).configure(
        N, N, N, _shape_of(CASES[family_name]))
    nranks = family(family_name).layout(cfg).nranks
    job = JobSpec(jid=0, arrival=0.0, n=N, p=shape.s * shape.t)
    spec = LaunchSpec(**vars(shape), algorithm=family_name, predicted=0.0)
    assert len(build_programs(job, spec)) == nranks


#: Shape fields each family consumes; ``multiply`` must reject the rest
#: by name instead of dropping them.
ACCEPTS = {
    "summa": {"block", "bcast", "segments", "overlap"},
    "hsumma": {"block", "inner_block", "groups", "bcast", "outer_bcast",
               "segments", "overlap"},
    "cyclic": {"block", "groups", "overlap"},
    "cannon": set(),
    "fox": set(),
    "3d": set(),
    "2.5d": {"replication"},
}
#: One set value per ``multiply`` shape keyword.
SET_FIELDS = dict(block=8, inner_block=4, groups=4, replication=2,
                  overlap=True, bcast="binomial", outer_bcast="binomial")


@pytest.mark.parametrize("name,field", [
    (name, field) for name in ACCEPTS for field in sorted(SET_FIELDS)
    if field not in ACCEPTS[name]])
def test_multiply_rejects_unconsumed_shape_fields_by_name(name, field):
    case = {k: v for k, v in CASES[name].items() if k != field}
    A = PhantomArray((N, N))
    with pytest.raises(ConfigurationError) as exc:
        multiply(A, A, algorithm=name, **case, **{field: SET_FIELDS[field]})
    message = str(exc.value)
    assert message.startswith(f"{name} does not take {field}=")
    for accepted in ACCEPTS[name]:
        assert accepted in message


def test_accepts_table_covers_every_row():
    assert set(ACCEPTS) == set(FAMILIES)


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
    one wrapper on the module counts every rank each of them builds —
    which for the collapsed step model is its symmetry's probe set."""
    from repro.cluster import JobSpec, build_programs
    from repro.cluster.programs import naive_launch
    from repro.core import summa
    from repro.experiments.stepmodel import summa_step_model
    from repro.simulator.costers import AnalyticCoster

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
    assert built == list(summa.SUMMA.symmetry(cfg).probe)
    assert len(built) == 7  # the 4x4 cross: row 0 plus column 0

    del built[:]
    job = JobSpec(jid=0, arrival=0.0, n=N, p=4)
    spec = naive_launch(job, alpha=PARAMS.alpha, beta=PARAMS.beta,
                        gamma=GAMMA)
    programs = build_programs(job, spec, gamma=GAMMA)
    assert len(programs) == 4 and not built  # sized before any is built
    assert len(list(programs)) == 4
    assert built == [0, 1, 2, 3]


# -- the yardstick: a new family is one file plus one table row --------
#
# Everything from here to TSUMMA is the "one file" (it would live under
# src/repro/algorithms/); the monkeypatched FAMILIES entry is the "one
# row".  Nothing in planner/service.py, cluster/programs.py,
# core/api.py, verify/corpus.py or experiments/stepmodel.py knows the
# name; ``configure`` owns the family's defaults and rejections.

from repro.blocks.ops import local_gemm_acc, slice_cols, slice_rows  # noqa: E402
from repro.core.launch import AlgorithmSpec, collapse  # noqa: E402
from repro.core.summa import SummaConfig, c_accumulator  # noqa: E402
from repro.mpi.cart import CartComm  # noqa: E402
from repro.simulator.predictor import (  # noqa: E402
    bcast,
    chain_walk,
    compute,
    repeat,
)


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


@chain_walk(lambda cfg: (cfg.bcast,))
def predict_tsumma(run, cfg):
    mloc, nloc = cfg.m // cfg.s, cfg.n // cfg.t
    return [repeat(cfg.nsteps, [
        bcast(cfg.s, cfg.block * nloc * run.b_itemsize),
        bcast(cfg.t, mloc * cfg.block * run.a_itemsize),
        compute(run.gemm_seconds(mloc, cfg.block, nloc)),
    ])]


def _tsumma_configure(m, l, n, shape):
    shape = shape.resolve("tsumma", l, "block", "bcast", "segments")
    return shape, SummaConfig(m=m, l=l, n=n, s=shape.s, t=shape.t,
                              block=shape.block, bcast=shape.bcast)


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
    monkeypatch.setitem(ACCEPTS, "tsumma", {"block", "bcast", "segments"})


def test_toy_family_passes_conformance_from_one_row(tsumma_row):
    assert set(CASES) == set(FAMILIES)
    test_table_rows_resolve_to_their_own_name("tsumma")
    test_data_mode_product("tsumma")
    test_macro_equals_des_on_homogeneous_network("tsumma")
    test_predictor_matches_macro_or_refuses_by_name("tsumma")
    conforms("tsumma")  # the tier harness draws the row, unedited
    test_shared_options_are_accepted_uniformly("tsumma")
    with pytest.raises(ConfigurationError, match="transposed SUMMA"):
        _run("tsumma", backend="predictor", bcast="segmented")
    test_multiply_rejects_unconsumed_shape_fields_by_name("tsumma", "groups")
    test_multiply_rejects_unconsumed_shape_fields_by_name("tsumma", "overlap")


def test_toy_family_multiplies_with_defaults(tsumma_row):
    """No ``block``, no grid: the row's ``configure`` supplies both."""
    rng = np.random.default_rng(7)
    A, B = rng.standard_normal((N, N)), rng.standard_normal((N, N))
    result = multiply(A, B, algorithm="tsumma", nprocs=8)
    assert np.allclose(result.C, A @ B)
    assert result.parameters == {"grid": (2, 4), "nprocs": 8, "block": 16}


def test_toy_family_streams_and_plans_from_one_row(tsumma_row):
    import dataclasses

    from repro.cluster import JobSpec, build_programs
    from repro.cluster.programs import LaunchSpec, launch_from_plan
    from repro.core.launch import Shape
    from repro.planner import PlanQuery
    from repro.planner.query import Plan
    from repro.planner.service import PlanService, _build_config
    from repro.planner.space import (
        Candidate,
        candidate_memory_elements,
        closed_form_cost,
    )

    job = JobSpec(jid=0, arrival=0.0, n=N, p=8)
    spec = LaunchSpec(algorithm="tsumma", s=2, t=4, block=8, predicted=0.0)
    assert len(build_programs(job, spec)) == 8
    cand = Candidate(algorithm="tsumma", s=2, t=4, block=8,
                     bcast="binomial")
    rq = PlanQuery(n=N, p=8).resolve()
    cfg = _build_config(rq, cand)
    assert (cfg.s, cfg.t, cfg.block) == (2, 4, 8)
    # Ranked, sized and refined like any candidate: a shape without
    # groups prices as SUMMA's, and its chain refines it.
    twin = dataclasses.replace(cand, algorithm="summa")
    assert closed_form_cost(rq, cand) == closed_form_cost(rq, twin)
    assert candidate_memory_elements(rq, cand) \
        == candidate_memory_elements(rq, twin)
    total, comm, compute, backend = PlanService()._refine(rq, cand)
    assert backend == "predictor" and total == comm + compute

    # Default shaping as naive_launch does it: the rank count alone.
    shape, _ = family("tsumma").configure(N, N, N, Shape(nprocs=8))
    naive = LaunchSpec(**vars(shape), algorithm="tsumma", predicted=0.0)
    assert (naive.s, naive.t, naive.block) == (2, 4, 16)
    assert len(build_programs(job, naive)) == 8

    # A plan of the hand-built candidate launches with its shape.
    plan = Plan(algorithm="tsumma", params=cand.params(),
                predicted_time=1.5, comm_time=1.0, compute_time=0.5,
                closed_form_time=1.5, backend="predictor",
                lower_bound_time=1.0, lower_bound_gap=1.5, query={})
    launched = launch_from_plan(job, plan)
    assert launched == LaunchSpec(algorithm="tsumma", s=2, t=4, block=8,
                                  bcast="binomial", predicted=1.5)
    assert len(build_programs(job, launched)) == 8


def test_toy_family_is_in_the_generated_corpus_and_verifies_clean(
        tsumma_row):
    from repro.verify.corpus import build_corpus, run_corpus

    names = [case.name for case in build_corpus()]
    assert names[-1] == "tsumma" and len(names) == len(set(names))
    [(case, verdict)] = run_corpus(["tsumma"])
    assert "transposed SUMMA" in case.description
    assert verdict.ok and verdict.meta["outcome"] == "clean"


# -- keep the yardstick: no layer outside the table names a family -----

#: file -> where a literal equal to a ``FAMILIES`` key may still stand:
#: a set of the literals allowed anywhere in the file, or the names of
#: the functions / module-level tables that may hold any.
FAMILY_LITERALS_ALLOWED = {
    # ``multiply``'s default ``algorithm``.
    "core/api.py": {"hsumma"},
    "cluster/programs.py": set(),
    "cluster/schedulers.py": set(),
    "planner/service.py": set(),
    # What to search is planner policy.
    "planner/space.py": ("enumerate_candidates",),
    # The figures compare exactly these two (``G = None`` is the SUMMA
    # reference).
    "experiments/figures.py": {"summa", "hsumma"},
    # The per-row case tables, and the print order of the case names.
    "verify/corpus.py": ("_FAMILY_CASES", "_COLLAPSED_CASES", "_ORDER"),
}


@pytest.mark.parametrize("path", sorted(FAMILY_LITERALS_ALLOWED))
def test_no_family_name_outside_the_table(path):
    import ast
    import pathlib

    import repro

    allowed = FAMILY_LITERALS_ALLOWED[path]
    tree = ast.parse((pathlib.Path(repro.__file__).parent / path).read_text())
    skipped = set()  # docstrings, and everything under an allowed name
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            skipped.add(node.body[0].value)
        names = [node.name] if isinstance(node, ast.FunctionDef) else [
            target.id for target in getattr(node, "targets", [])
            + [getattr(node, "target", None)]
            if isinstance(target, ast.Name)]
        if isinstance(allowed, tuple) and set(names) & set(allowed):
            skipped.update(ast.walk(node))
    found = [
        (node.lineno, node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in FAMILIES
        and node not in skipped
        and not (isinstance(allowed, set) and node.value in allowed)
    ]
    assert not found, f"{path} names a family outside the table: {found}"


def test_the_planner_imports_no_step_model():
    """The planner finds a family's pricing through ``FAMILIES`` alone:
    importing the step models would bring back a second lookup."""
    import ast
    import pathlib

    import repro

    found = []
    for path in sorted((pathlib.Path(repro.__file__).parent
                        / "planner").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{alias.name}"
                           for alias in node.names] + [node.module]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if "repro.experiments.stepmodel" in modules:
                found.append((path.name, node.lineno))
    assert not found, f"the planner imports the step models: {found}"
