"""Planner <-> simulator fidelity: the times a plan reports are the
simulator backends' own numbers, not a reimplementation.

* ``refine="predictor"`` plans carry the predictor's prediction
  *bit-identically* (rebuilding the config from the plan's params and
  calling the predictor reproduces predicted/comm/compute exactly) —
  except for segmented-family winners, which the user-facing predictor
  refuses by policy: the service prices them with the same chain and
  names ``"macro"``, the backend that replays them; those must replay
  bit-identically through the macro step model.
"""


import math

import pytest

from repro.core.hsumma import HSummaConfig
from repro.core.summa import SummaConfig
from repro.costs import PIPELINED_BCASTS
from repro.mpi.comm import CollectiveOptions
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray
from repro.planner import PlanQuery, PlanService
from repro.simulator.predictor import (
    SquareGridConfig,
    predict_hsumma,
    predict_summa,
    predict_summa25d,
)


def _rebuild_config(result, rq):
    n = rq.n
    params = result.params
    s, t = params["grid"]
    if result.algorithm == "summa":
        return SummaConfig(m=n, l=n, n=n, s=s, t=t,
                           block=params["block"], bcast=params["bcast"])
    if result.algorithm == "2.5d":
        return SquareGridConfig(m=n, l=n, n=n, q=s,
                              c=params["replication"])
    I, J = params["group_grid"]
    return HSummaConfig(
        m=n, l=n, n=n, s=s, t=t, I=I, J=J,
        outer_block=params["block"],
        inner_block=params["inner_block"],
        outer_bcast=params["outer_bcast"],
        inner_bcast=params["bcast"],
    )


_PREDICTORS = {"summa": predict_summa, "hsumma": predict_hsumma,
               "2.5d": predict_summa25d}


def _replay_with_predictor(result, rq):
    """Rebuild the chosen config from the plan and ask the predictor."""
    cfg = _rebuild_config(result, rq)
    predict = _PREDICTORS[result.algorithm]
    network = HomogeneousNetwork(rq.p, HockneyParams(rq.alpha, rq.beta))
    res = predict(cfg, network=network, gamma=rq.gamma,
                  a_itemsize=rq.itemsize, b_itemsize=rq.itemsize)
    return res.stats[0]


def _replay_with_macro(result, rq):
    """Rebuild the chosen config and step the macro engine (the
    backend a segmented-family plan names)."""
    from repro.core.hsumma import HSUMMA
    from repro.core.launch import launch
    from repro.core.summa import SUMMA

    spec = SUMMA if result.algorithm == "summa" else HSUMMA
    cfg = _rebuild_config(result, rq)
    operand = PhantomArray((rq.n, rq.n))
    return launch(
        spec, cfg, operand, operand, network=HomogeneousNetwork(
            cfg.s * cfg.t, HockneyParams(rq.alpha, rq.beta)),
        gamma=rq.gamma, backend="macro", options=CollectiveOptions(
            bcast=result.params["bcast"],
            bcast_segments=result.params.get("segments")))[1]


QUERIES = [
    PlanQuery(n=2048, p=64),
    PlanQuery(n=2048, p=64, platform="grid5000-graphene"),
    PlanQuery(n=4096, p=256, platform="bluegene-p"),
    PlanQuery(n=4096, p=1024),
]


class TestPredictorFidelity:
    @pytest.mark.parametrize("query", QUERIES)
    def test_plan_times_are_the_backends_bit_for_bit(self, query):
        rq = query.resolve()
        result = PlanService().plan(rq)
        if result.backend == "macro":
            # A segmented-family winner: the user-facing predictor
            # refuses these, so the reported numbers must be the macro
            # engine's own.
            assert result.params["bcast"] in PIPELINED_BCASTS
            rep = _replay_with_macro(result, rq)
            assert result.predicted_time == rep.total_time
            assert result.comm_time == rep.comm_time
            assert result.compute_time == rep.compute_time
        else:
            assert result.backend == "predictor"
            st = _replay_with_predictor(result, rq)
            assert result.predicted_time == st.clock
            assert result.comm_time == st.comm_time
            assert result.compute_time == st.compute_time

    def test_25d_eligible_query_reports_predictor_fidelity(self):
        """A 2.5D-eligible query prices the replication family at
        predictor fidelity (not the old closed-form advisory), and the
        reported times replay bit-identically through the 2.5D
        predictor chain."""
        rq = PlanQuery(n=4096, p=32).resolve()
        result = PlanService().plan(rq)
        adv = result.advisory["25d"]
        assert adv["backend"] == "predictor"
        side = math.isqrt(rq.p // adv["replication"])
        cfg = SquareGridConfig(m=rq.n, l=rq.n, n=rq.n, q=side,
                             c=adv["replication"])
        network = HomogeneousNetwork(rq.p, HockneyParams(rq.alpha, rq.beta))
        st = predict_summa25d(cfg, network=network, gamma=rq.gamma,
                              a_itemsize=rq.itemsize,
                              b_itemsize=rq.itemsize).stats[0]
        assert adv["predicted_time"] == st.clock
        assert adv["comm_time"] == st.comm_time
        assert adv["compute_time"] == st.compute_time
        # And if the 2.5D family wins outright, the plan itself carries
        # those predictor numbers.
        if result.algorithm == "2.5d":
            assert result.backend == "predictor"
            assert result.predicted_time == st.clock

    def test_faulty_plan_times_are_the_predictors_bit_for_bit(self):
        """Fault-tolerant plans never pick the segmented family, so the
        classic predictor bit-identity contract stays pinned here."""
        rq = PlanQuery(n=2048, p=64, faults="kill(rank=1,t=0.5)").resolve()
        result = PlanService().plan(rq)
        assert result.backend == "predictor"
        st = _replay_with_predictor(result, rq)
        assert result.predicted_time == st.clock
        assert result.comm_time == st.comm_time
        assert result.compute_time == st.compute_time
