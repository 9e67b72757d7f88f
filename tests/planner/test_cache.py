"""Tests for the plan cache: memo, disk round-trip, batched dedupe."""

from repro.planner import PLAN_CACHE_SALT, PlanQuery, PlanService
from repro.planner.service import _PLAN_FN


class TestMemo:
    def test_repeat_query_hits_memo(self):
        svc = PlanService()
        q = PlanQuery(n=2048, p=64)
        first = svc.plan(q)
        second = svc.plan(q)
        assert not first.from_cache
        assert second.from_cache
        assert second.predicted_time == first.predicted_time
        assert svc.stats == {"memo_hits": 1, "disk_hits": 0,
                             "planned": 1, "deduped": 0}

    def test_memo_hit_is_the_same_object(self):
        """Hot-path speed rests on the memo returning a prebuilt Plan,
        not rebuilding one per hit."""
        svc = PlanService()
        q = PlanQuery(n=2048, p=64)
        svc.plan(q)
        assert svc.plan(q) is svc.plan(q)

    def test_different_queries_do_not_collide(self):
        svc = PlanService()
        a = svc.plan(PlanQuery(n=2048, p=64))
        b = svc.plan(PlanQuery(n=4096, p=64))
        assert not b.from_cache
        assert a.query != b.query

    def test_fault_profiles_do_not_share_an_entry(self, tmp_path):
        """A faulty plan reports its query's profile in
        ``params["fault_profile"]``, so the profile — not just "some
        profile" — keys the memo and the disk cache."""
        kill, drop = "kill(rank=1,t=0.5)", "drop(p=0.1)"
        svc = PlanService(cache_dir=str(tmp_path))
        assert svc.plan(PlanQuery(n=1024, p=16, faults=kill)
                        ).params["fault_profile"] == kill
        second = svc.plan(PlanQuery(n=1024, p=16, faults=drop))
        assert second.params["fault_profile"] == drop
        assert not second.from_cache
        from_disk = PlanService(cache_dir=str(tmp_path)).plan(
            PlanQuery(n=1024, p=16, faults=drop))
        assert from_disk.from_cache
        assert from_disk.params["fault_profile"] == drop

    def test_service_settings_partition_the_cache(self):
        """top_k/refine are part of the cache key: a plan computed
        under one setting must not serve another."""
        q = PlanQuery(n=2048, p=64)
        spec_a = PlanService(refine="predictor")._spec(q.resolve())
        spec_b = PlanService(refine="none")._spec(q.resolve())
        assert spec_a != spec_b


class TestDisk:
    def test_round_trip(self, tmp_path):
        q = PlanQuery(n=2048, p=64)
        first = PlanService(cache_dir=str(tmp_path)).plan(q)
        svc = PlanService(cache_dir=str(tmp_path))
        second = svc.plan(q)
        assert second.from_cache
        assert svc.stats["disk_hits"] == 1
        assert second.predicted_time == first.predicted_time
        assert second.params == first.params
        assert second.advisory == first.advisory

    def test_entries_carry_the_planner_salt(self, tmp_path):
        import json

        PlanService(cache_dir=str(tmp_path)).plan(PlanQuery(n=2048, p=64))
        entries = list(tmp_path.glob("*.json"))
        assert entries
        entry = json.loads(entries[0].read_text())
        assert entry["salt"] == PLAN_CACHE_SALT
        assert entry["fn"] == _PLAN_FN

    def test_disk_hit_populates_memo(self, tmp_path):
        q = PlanQuery(n=2048, p=64)
        PlanService(cache_dir=str(tmp_path)).plan(q)
        svc = PlanService(cache_dir=str(tmp_path))
        svc.plan(q)
        svc.plan(q)
        assert svc.stats["disk_hits"] == 1
        assert svc.stats["memo_hits"] == 1


class TestPlanMany:
    def test_dedupes_equivalent_queries(self):
        svc = PlanService()
        qs = [
            PlanQuery(n=2048, p=64),
            PlanQuery(n=2048, p=64, dtype="float64"),  # same resolved
            PlanQuery(n=4096, p=64),
        ]
        plans = svc.plan_many(qs)
        assert len(plans) == 3
        assert svc.stats["planned"] == 2
        assert svc.stats["deduped"] == 1
        assert plans[0].predicted_time == plans[1].predicted_time
        assert plans[1].from_cache

    def test_order_preserved(self):
        svc = PlanService()
        qs = [PlanQuery(n=4096, p=64), PlanQuery(n=2048, p=64)]
        plans = svc.plan_many(qs)
        assert plans[0].query["n"] == 4096
        assert plans[1].query["n"] == 2048

    def test_hot_path_is_much_faster_than_cold(self):
        """The acceptance contract: repeated queries are served from
        the plan cache far faster than the cold path (the benchmark
        gate pins >= 100x; here we assert a conservative 20x so the
        test stays robust on loaded CI machines)."""
        import time

        q = PlanQuery(n=4096, p=1024)
        svc = PlanService()
        t0 = time.perf_counter()
        svc.plan(q)
        cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(50):
            svc.plan(q)
        hot = (time.perf_counter() - t0) / 50
        assert cold > 20 * hot
