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

The tier conformance harness (``test_conformance.py``) draws the
contract, ``check_predictor``, on every row, algorithm and depth.  Here
it runs on each row's widest run under every segmented algorithm at
every depth, one that divides no payload included, and on the SUMMA and
HSUMMA step models — the macro backend under an explicit
``AnalyticCoster``, each HSUMMA phase priced under the algorithm its
requests announce.
"""

import pytest

from repro.core.launch import FAMILIES, family, live
from repro.experiments.stepmodel import hsumma_step_model, summa_step_model
from repro.mpi.comm import CollectiveOptions
from repro.simulator.costers import AnalyticCoster
from tests.property.conformance import (
    GAMMA,
    PARAMS,
    TOL,
    check_predictor,
    widest_run,
)

SEGMENTED = ("segmented", "fourcolor", "hypersystolic")
#: ``"odd"`` stands for a depth that divides no broadcast payload: the
#: payloads of a widest run have no prime factor but 2 and 3.
DEPTHS = (None, 1, 3, "odd")
CHAINED = [name for name in FAMILIES if family(name).predict is not None]


def _segments(depth):
    return 7 if depth == "odd" else depth


def _chain(run):
    """``check_predictor`` on ``run``; the chain's result."""
    network = run.net()
    check_predictor(run, network, run.launch("macro", network)[1])
    return live(run.spec.predict)(run.cfg, network=network,
                                  options=run.options, gamma=GAMMA)


def _assert_contract(chain, model):
    """``chain`` is a predictor ``SimResult``; ``model`` a
    ``StepModelReport``."""
    assert chain.total_time == model.total_time
    assert chain.compute_time == model.compute_time
    assert chain.comm_time == pytest.approx(model.comm_time, rel=TOL)


def test_every_stock_family_is_swept():
    assert set(CHAINED) == set(FAMILIES)


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("algorithm", SEGMENTED)
@pytest.mark.parametrize("name", CHAINED)
def test_chain_is_the_macro_oracle_for_every_row(name, algorithm, depth):
    _chain(widest_run(name, CollectiveOptions(
        bcast=algorithm, bcast_segments=_segments(depth))))


class TestChainEqualsStepModel:
    def test_summa(self):
        for algorithm in SEGMENTED:
            for depth in map(_segments, DEPTHS):
                run = widest_run("summa", CollectiveOptions(
                    bcast_segments=depth), bcast=algorithm)
                _assert_contract(_chain(run), summa_step_model(
                    run.cfg, AnalyticCoster(PARAMS, algorithm,
                                            segments=depth), GAMMA))

    def test_hsumma(self):
        # Mixed levels: either may be a bulk tree, one is segmented.
        for outer, inner in (("fourcolor", "binomial"),
                             ("vandegeijn", "segmented"),
                             ("hypersystolic", "fourcolor")):
            for depth in map(_segments, DEPTHS):
                run = widest_run("hsumma", CollectiveOptions(
                    bcast_segments=depth), outer_bcast=outer, bcast=inner)
                _assert_contract(_chain(run), hsumma_step_model(
                    run.cfg, AnalyticCoster(PARAMS, inner, segments=depth),
                    GAMMA))
