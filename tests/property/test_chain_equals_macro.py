"""The predictor chain is the macro oracle's arithmetic — on the
segmented broadcast family too.

The macro backend prices a ``segmented``/``fourcolor``/``hypersystolic``
broadcast at depth ``s`` as *one* oracle collective, from the same
closed form a ``predict_*`` chain adds, so the documented
predictor-vs-macro contract (``total_time`` and ``compute_time``
bit-identical, ``comm_time`` within 1e-9 relative) holds for that
family exactly as for the bulk ones — which is what lets the planner
refine by arithmetic.  (It does not hold against DES, where the stages
overlap: hence the user-facing refusal pinned in
``tests/simulator/test_predictor_refusals.py``.)

Two sweeps:

* by registration, over every :data:`~repro.core.launch.FAMILIES` row
  with a chain: chain vs collapsed macro vs per-rank macro, each
  algorithm at each depth through ``options``;
* Hypothesis over SUMMA and HSUMMA shapes — square and rectangular
  grids, config-level and mixed inner/outer algorithms — against the
  step models with the matching ``AnalyticCoster`` and against a plain
  per-rank ``MacroBackend`` with the default coster; each phase is
  priced under the algorithm its requests announce.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.grouping import choose_group_grid, valid_group_counts
from repro.core.hsumma import HSUMMA, HSummaConfig
from repro.core.launch import FAMILIES, Shape, family, launch, live
from repro.core.summa import SUMMA, SummaConfig
from repro.errors import ConfigurationError
from repro.experiments.stepmodel import (
    AnalyticCoster,
    hsumma_step_model,
    summa_step_model,
)
from repro.mpi.comm import CollectiveOptions
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray
from repro.simulator.backends import MacroBackend
from repro.simulator.predictor import predict_hsumma, predict_summa

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)
GAMMA = 1e-10
COMM_TOL = 1e-9
SEGMENTED = ("segmented", "fourcolor", "hypersystolic")
BULK = ("binomial", "vandegeijn")
#: ``"odd"`` stands for a depth that divides no broadcast payload of
#: the run (payloads are multiples of the 8-byte item size).
DEPTHS = (None, 1, 3, "odd")


def _depth(depth, *payloads):
    if depth != "odd":
        return depth
    return next(d for d in (7, 11, 13, 17)
                if all(nbytes % d for nbytes in payloads))


def _assert_contract(chain, macro):
    """``chain`` is a predictor ``SimResult``; ``macro`` anything with
    the three times (a ``SimResult`` or a ``StepModelReport``)."""
    assert chain.total_time == macro.total_time
    assert chain.compute_time == macro.compute_time
    assert chain.comm_time == pytest.approx(macro.comm_time, rel=COMM_TOL)


# -- by registration: every row with a chain ---------------------------

N = 64
CHAINED = [name for name in FAMILIES if family(name).predict is not None]


def _default_config(spec):
    """The row's own defaults at the first small rank count it accepts
    (a square, a cube, or a replicated layer stack)."""
    for nprocs in (16, 8, 32):
        try:
            return spec.configure(N, N, N, Shape(nprocs=nprocs))[1]
        except ConfigurationError:
            continue
    raise AssertionError(f"{spec.name}: no default shape at p in 16, 8, 32")


def test_every_stock_family_is_swept():
    assert set(CHAINED) == set(FAMILIES)


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("algorithm", SEGMENTED)
@pytest.mark.parametrize("name", CHAINED)
def test_chain_is_the_macro_oracle_for_every_row(name, algorithm, depth):
    spec = family(name)
    cfg = _default_config(spec)
    network = HomogeneousNetwork(spec.layout(cfg).nranks, PARAMS)
    # Every payload of an N = 64 run is a power of two: 7 divides none.
    options = CollectiveOptions(bcast=algorithm,
                                bcast_segments=_depth(depth, N * N * 8))
    chain = live(spec.predict)(cfg, network=network, options=options,
                               gamma=GAMMA)
    A = PhantomArray((N, N))
    for backend in ("macro", MacroBackend(network)):  # collapsed, per-rank
        _, macro = launch(spec, cfg, A, A, network=network, options=options,
                          gamma=GAMMA, backend=backend)
        _assert_contract(chain, macro)


# -- SUMMA / HSUMMA shapes against the step models ---------------------

GRIDS = [(2, 2), (4, 4), (2, 4), (4, 2), (1, 4), (2, 8)]


@st.composite
def summa_cases(draw):
    s, t = draw(st.sampled_from(GRIDS))
    block = draw(st.sampled_from([2, 4]))
    l = block * s * t * draw(st.sampled_from([1, 2]))
    m = s * draw(st.sampled_from([2, 3, 8]))
    n = t * draw(st.sampled_from([2, 5]))
    cfg = SummaConfig(m=m, l=l, n=n, s=s, t=t, block=block,
                      bcast=draw(st.sampled_from(SEGMENTED)))
    return cfg, draw(st.sampled_from(DEPTHS))


@st.composite
def hsumma_cases(draw):
    s, t = draw(st.sampled_from([g for g in GRIDS if g[0] > 1]))
    G = draw(st.sampled_from(valid_group_counts(s, t)))
    I, J = choose_group_grid(s, t, G)
    outer = draw(st.sampled_from([2, 4]))
    inner = draw(st.sampled_from([b for b in (1, 2, 4) if outer % b == 0]))
    l = outer * s * t * draw(st.sampled_from([1, 2]))
    m = s * draw(st.sampled_from([2, 3]))
    n = t * draw(st.sampled_from([2, 5]))
    # Mixed levels: either may be a bulk tree, at least one is segmented.
    outer_alg, inner_alg = draw(
        st.tuples(st.sampled_from(SEGMENTED + BULK),
                  st.sampled_from(SEGMENTED + BULK))
        .filter(lambda pair: set(pair) & set(SEGMENTED)))
    cfg = HSummaConfig(m=m, l=l, n=n, s=s, t=t, I=I, J=J,
                       outer_block=outer, inner_block=inner,
                       outer_bcast=outer_alg, inner_bcast=inner_alg)
    return cfg, draw(st.sampled_from(DEPTHS))


def _per_rank_macro(spec, cfg, options):
    network = HomogeneousNetwork(cfg.s * cfg.t, PARAMS)
    _, sim = launch(spec, cfg, PhantomArray((cfg.m, cfg.l)),
                    PhantomArray((cfg.l, cfg.n)), network=network,
                    options=options, gamma=GAMMA,
                    backend=MacroBackend(network))
    return sim


class TestChainEqualsStepModel:
    @settings(max_examples=40, deadline=None)
    @given(case=summa_cases())
    def test_summa(self, case):
        cfg, depth = case
        mloc, nloc = cfg.m // cfg.s, cfg.n // cfg.t
        depth = _depth(depth, mloc * cfg.block * 8, cfg.block * nloc * 8)
        options = CollectiveOptions(bcast_segments=depth)
        chain = predict_summa(
            cfg, network=HomogeneousNetwork(cfg.s * cfg.t, PARAMS),
            options=options, gamma=GAMMA)
        _assert_contract(chain, summa_step_model(
            cfg, AnalyticCoster(PARAMS, cfg.bcast, segments=depth), GAMMA))
        _assert_contract(chain, _per_rank_macro(SUMMA, cfg, options))

    @settings(max_examples=40, deadline=None)
    @given(case=hsumma_cases())
    def test_hsumma(self, case):
        cfg, depth = case
        mloc, nloc = cfg.m // cfg.s, cfg.n // cfg.t
        depth = _depth(depth, *(
            nbytes for width in (cfg.outer_block, cfg.inner_block)
            for nbytes in (mloc * width * 8, width * nloc * 8)))
        options = CollectiveOptions(bcast_segments=depth)
        chain = predict_hsumma(
            cfg, network=HomogeneousNetwork(cfg.s * cfg.t, PARAMS),
            options=options, gamma=GAMMA)
        _assert_contract(chain, hsumma_step_model(
            cfg, AnalyticCoster(PARAMS, cfg.inner_bcast, segments=depth),
            GAMMA))
        _assert_contract(chain, _per_rank_macro(HSUMMA, cfg, options))
