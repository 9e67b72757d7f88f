"""Tests for the plan service: queries, candidate space, plan shape."""


import pytest

from repro.errors import ConfigurationError
from repro.planner import (
    Plan,
    PlanQuery,
    PlanService,
    candidate_blocks,
    candidate_grids,
    candidate_memory_elements,
    candidate_replications,
    enumerate_candidates,
    plan,
)


class TestQueryResolution:
    def test_defaults(self):
        rq = PlanQuery(n=1024, p=16).resolve()
        assert rq.itemsize == 8
        assert rq.alpha > 0 and rq.beta > 0
        assert rq.gamma == 0.0
        assert rq.beta_element == rq.beta * 8

    def test_platform_fills_parameters(self):
        rq = PlanQuery(n=1024, p=16, platform="bluegene-p").resolve()
        assert rq.gamma > 0
        assert rq.bcast_default == "vandegeijn"

    def test_explicit_overrides_platform(self):
        rq = PlanQuery(n=1024, p=16, platform="bluegene-p",
                       alpha=7e-7).resolve()
        assert rq.alpha == 7e-7

    def test_dtype_sets_itemsize(self):
        assert PlanQuery(n=64, p=4, dtype="float32").resolve().itemsize == 4

    def test_rejects_unknown_dtype(self):
        with pytest.raises(ConfigurationError):
            PlanQuery(n=64, p=4, dtype="int7").resolve()

    def test_rejects_unknown_platform(self):
        with pytest.raises(ConfigurationError):
            PlanQuery(n=64, p=4, platform="laptop").resolve()

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            PlanQuery(n=0, p=4).resolve()
        with pytest.raises(ConfigurationError):
            PlanQuery(n=64, p=0).resolve()

    def test_rejects_bad_fault_spec(self):
        with pytest.raises(ConfigurationError):
            PlanQuery(n=64, p=4, faults="explode(now=1)").resolve()

    def test_equivalent_queries_share_canonical_form(self):
        a = PlanQuery(n=1024, p=16).resolve()
        b = PlanQuery(n=1024, p=16, dtype="float64").resolve()
        assert a.canonical() == b.canonical()


class TestCandidateSpace:
    def test_grids_are_factor_pairs(self):
        for s, t in candidate_grids(64):
            assert s * t == 64 and s <= t

    def test_grids_prefer_square(self):
        assert candidate_grids(64)[0] == (8, 8)

    def test_prime_p_falls_back_to_1xp(self):
        assert candidate_grids(13) == [(1, 13)]

    def test_blocks_divide_both_tiles(self):
        for b in candidate_blocks(4096, 8, 16):
            assert (4096 // 8) % b == 0
            assert (4096 // 16) % b == 0

    def test_replications_match_25d_layout(self):
        # p = q^2 c with c | q.
        assert candidate_replications(16384) == [4, 16]
        assert candidate_replications(7) == []

    def test_space_covers_both_2d_families(self):
        rq = PlanQuery(n=2048, p=64).resolve()
        algos = {c.algorithm for c in enumerate_candidates(rq)}
        assert {"summa", "hsumma"} <= algos

    def test_faulty_space_is_binomial_only_and_2d(self):
        rq = PlanQuery(n=2048, p=64, faults="kill(rank=1,t=0.5)").resolve()
        cands = enumerate_candidates(rq)
        assert all(c.algorithm != "2.5d" for c in cands)
        assert all(c.bcast == "binomial" for c in cands)

    def test_memory_footprint_counts_tiles_and_buffers(self):
        rq = PlanQuery(n=2048, p=64).resolve()
        cand = next(c for c in enumerate_candidates(rq)
                    if c.algorithm == "summa")
        tiles = 3 * (2048 / cand.s) * (2048 / cand.t)
        assert candidate_memory_elements(rq, cand) > tiles


class TestPlanning:
    def test_plan_shape(self):
        result = plan(PlanQuery(n=2048, p=64))
        assert isinstance(result, Plan)
        assert result.algorithm in ("summa", "hsumma")
        assert result.predicted_time > 0
        assert result.predicted_time == pytest.approx(
            result.comm_time + result.compute_time
        )
        # Segmented-family winners name the macro backend (the
        # user-facing predictor refuses them); everything else the
        # predictor.
        if "segments" in result.params:
            assert result.backend == "macro"
        else:
            assert result.backend == "predictor"
        assert result.lower_bound_time > 0
        assert result.lower_bound_gap == pytest.approx(
            result.predicted_time / result.lower_bound_time
        )
        assert result.candidates > 0
        assert not result.from_cache

    def test_hsumma_plan_names_all_parameters(self):
        svc = PlanService()
        result = svc.plan(PlanQuery(n=16384, p=16384))
        if result.algorithm == "hsumma":
            for key in ("grid", "groups", "group_grid", "block",
                        "inner_block", "bcast", "outer_bcast"):
                assert key in result.params, key

    def test_memory_budget_excludes_fat_candidates(self):
        n, p = 4096, 256
        # Just above the three resident tiles: replication cannot fit.
        budget = 4.0 * (n * n / p) * 8
        result = plan(PlanQuery(n=n, p=p, memory_bytes=budget))
        assert result.algorithm in ("summa", "hsumma")
        assert "25d" not in result.advisory

    def test_impossible_budget_raises(self):
        with pytest.raises(ConfigurationError):
            plan(PlanQuery(n=4096, p=4, memory_bytes=1024))

    def test_advisory_reports_25d_when_enumerable(self):
        result = plan(PlanQuery(n=2048, p=64))
        assert result.advisory["25d"]["replication"] in (2, 4)

    def test_faulty_plan_carries_profile(self):
        result = plan(PlanQuery(n=2048, p=64, faults="kill(rank=1,t=0.5)"))
        assert result.params["fault_profile"] == "kill(rank=1,t=0.5)"
        assert result.params["bcast"] == "binomial"

    def test_serial_plan(self):
        result = plan(PlanQuery(n=64, p=1))
        assert result.predicted_time == 0.0  # gamma defaults to 0

    def test_refine_none_uses_closed_forms(self):
        result = PlanService(refine="none").plan(PlanQuery(n=2048, p=64))
        assert result.backend == "closed-form"
        assert result.predicted_time == pytest.approx(result.closed_form_time)

    def test_bad_refine_rejected(self):
        for refine in ("crystal-ball", "macro"):
            with pytest.raises(ConfigurationError,
                               match=r"\('predictor', 'none'\)"):
                PlanService(refine=refine)

    def test_bad_top_k_rejected(self):
        with pytest.raises(ConfigurationError):
            PlanService(top_k=0)

    def test_summary_mentions_the_choice(self):
        result = plan(PlanQuery(n=2048, p=64))
        text = result.summary()
        assert result.algorithm in text
        assert "lower bound" in text

    def test_round_trip_through_dict(self):
        result = plan(PlanQuery(n=2048, p=64))
        again = Plan.from_dict(result.to_dict())
        assert again.predicted_time == result.predicted_time
        assert again.params == result.params
        assert again.advisory == result.advisory
