"""Planning at lookup speed: a memo hit is one tuple probe, a cold plan
prices each distinct broadcast term once — and neither changes a bit
of any plan."""

import collections
import json
import math

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.planner import Plan, PlanQuery, PlanService
from repro.planner import service as service_mod
from repro.planner import space
from repro.planner.query import CANONICAL_FIELDS

#: Three platforms, explicit alpha/beta/gamma, a memory budget, a fault
#: profile and float32.
SWEEP = [
    dict(n=2048, p=64, platform="bluegene-p"),
    dict(n=4096, p=256, platform="grid5000-graphene"),
    dict(n=8192, p=512, platform="exascale-2012"),
    dict(n=2048, p=128, alpha=2e-6, beta=1e-9, gamma=1e-10),
    dict(n=4096, p=256, platform="bluegene-p", memory_bytes=2.5 * 2**20),
    dict(n=2048, p=64, faults="kill(rank=1,t=0.5)"),
    dict(n=2048, p=64, dtype="float32", platform="bluegene-p"),
]


def _unmemoised_costs(rq, cands):
    """The ranking without the term table: ``closed_form_cost`` prices
    every broadcast term on its own."""
    return [space.closed_form_cost(rq, c) for c in cands]


@pytest.mark.parametrize("query", SWEEP)
def test_table_costs_match_closed_form_cost_bit_for_bit(query):
    rq = PlanQuery(**query).resolve()
    cands = space.enumerate_candidates(rq)
    assert [c.hex() for c in space.closed_form_costs(rq, cands)] == \
        [c.hex() for c in _unmemoised_costs(rq, cands)]


@pytest.mark.parametrize("refine", ["predictor", "none"])
@pytest.mark.parametrize("query", SWEEP)
def test_plans_match_the_unmemoised_ranking(query, refine, monkeypatch):
    q = PlanQuery(**query)
    fast = PlanService(refine=refine).plan(q).to_dict()
    ran = []

    def unmemoised(rq, cands):
        ran.append(len(cands))
        return _unmemoised_costs(rq, cands)

    monkeypatch.setattr(service_mod, "closed_form_costs", unmemoised)
    assert PlanService(refine=refine).plan(q).to_dict() == fast
    assert ran and ran[0] > 0


@pytest.mark.parametrize("query", SWEEP)
def test_the_table_ranks_as_the_candidates_sort(query):
    """The service ranks table rows; sorting the built candidates by
    their own closed form gives the same order, ties included."""
    rq = PlanQuery(**query).resolve()
    cands = [c for c in space.enumerate_candidates(rq)
             if rq.memory_elements is None
             or space.candidate_memory_elements(rq, c) <= rq.memory_elements]
    ranked = sorted(cands, key=lambda c: space.closed_form_cost(rq, c))
    total, rows = PlanService()._rank(rq)
    assert total == len(space.enumerate_candidates(rq))
    assert [space.candidate(row) for _, row in rows] == ranked
    assert [cost.hex() for cost, _ in rows] == \
        [space.closed_form_cost(rq, c).hex() for c in ranked]
    costs = [cost for cost, _ in rows]
    assert len(set(costs)) < len(costs)  # the sweep has ties to keep


@pytest.mark.parametrize("refine", ["predictor", "none"])
@pytest.mark.parametrize("query", SWEEP)
def test_a_cold_plan_builds_candidates_only_for_what_it_refines(
        query, refine, monkeypatch):
    rq = PlanQuery(**query).resolve()
    service = PlanService(refine=refine)
    _, ranked = service._rank(rq)
    refinable = [row for _, row in ranked
                 if not row[service_mod._REPLICATION]
                 or rq.n % row[service_mod._S] == 0]
    refined = refinable[:service.top_k] + [
        row for row in refinable[service.top_k:]
        if row[service_mod._REPLICATION]][:1]
    expected = [space.candidate(row) for row in refined]
    # A leader's refinement shapes it through its family's configure,
    # which copies the candidate: those copies are not counted.
    built, refined_cands, refining = [], [], [False]
    init, refine_one = space.Candidate.__init__, PlanService._refine

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if not refining[0]:
            built.append(self)

    def refine_counted(self, rq, cand):
        refined_cands.append(cand)
        refining[0] = True
        try:
            return refine_one(self, rq, cand)
        finally:
            refining[0] = False

    monkeypatch.setattr(space.Candidate, "__init__", counted)
    monkeypatch.setattr(PlanService, "_refine", refine_counted)
    plan = service.plan(rq)
    assert built == expected
    assert refined_cands == (expected if refine == "predictor" else [])
    assert plan.candidates > 10 * len(built)


def test_memo_hit_calls_no_json_and_builds_no_plan(monkeypatch):
    svc = PlanService()
    q = PlanQuery(n=2048, p=64, platform="bluegene-p")
    first = svc.plan(q)
    first_many = svc.plan_many([q, q])

    def boom(*args, **kwargs):
        raise AssertionError("the hot path must not get here")

    monkeypatch.setattr(json, "dumps", boom)
    monkeypatch.setattr(Plan, "__init__", boom)
    hit = svc.plan(q)
    assert hit.from_cache
    assert hit.predicted_time == first.predicted_time
    assert svc.plan_many([q, q]) == first_many
    assert svc.stats["planned"] == 1


def test_cold_plan_prices_each_broadcast_term_once(monkeypatch):
    calls = collections.Counter()
    bcast_term = space._bcast_term

    def counted(alg, p, elements, alpha, beta_el, segments=None):
        calls[alg, p, elements, segments] += 1
        return bcast_term(alg, p, elements, alpha, beta_el, segments)

    monkeypatch.setattr(space, "_bcast_term", counted)
    plan = PlanService(refine="none").plan(
        PlanQuery(n=4096, p=1024, platform="bluegene-p"))
    assert calls and set(calls.values()) == {1}
    # Four terms per 2-D candidate before the table; far fewer after.
    assert sum(calls.values()) < plan.candidates


@pytest.mark.parametrize("a,b", [
    (dict(alpha=1), dict(alpha=1.0)),
    (dict(gamma=-0.0), dict(gamma=0.0)),
])
def test_one_number_one_memo_entry(a, b):
    svc = PlanService(refine="none")
    first = svc.plan(PlanQuery(n=1024, p=16, **a))
    second = svc.plan(PlanQuery(n=1024, p=16, **b))
    assert svc.stats["planned"] == 1 and svc.stats["memo_hits"] == 1
    assert first.query == second.query
    # One spelling on disk too: the JSON spec is identical.
    assert json.dumps(first.query, sort_keys=True) == \
        json.dumps(second.query, sort_keys=True)
    assert math.copysign(1.0, second.query["gamma"]) == 1.0


def test_canonical_spec_and_memo_key_share_one_field_list():
    rq = PlanQuery(n=1024, p=16, platform="bluegene-p",
                   memory_bytes=2**20).resolve()
    assert tuple(rq.canonical()) == CANONICAL_FIELDS
    assert tuple(rq.canonical().values()) == rq.key


@pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "memory_bytes"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_are_rejected_by_name(field, value):
    with pytest.raises(ConfigurationError, match=field):
        PlanQuery(n=1024, p=64, **{field: value}).resolve()


def test_cli_rejects_nan_alpha_with_exit_2(capsys):
    assert main(["plan", "--n", "1024", "-p", "64", "--alpha", "nan"]) == 2
    assert "alpha" in capsys.readouterr().err
