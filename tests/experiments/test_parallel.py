"""Tests for the parallel sweep executor and its on-disk cache.

Two properties carry the whole design: the cache must never serve a
stale or wrong point (key sensitivity + salt invalidation), and the
executor must be transparent (same results for every ``jobs`` value
and cache state, merged in input order).
"""

import copy
import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.figures import _Sweep, _point_spec, group_sweep
from repro.experiments.parallel import (
    SWEEP_CACHE_SALT,
    SweepCache,
    parallel_map,
    spec_key,
)
from repro.platforms.grid5000 import grid5000_graphene


def _spec(**overrides):
    spec = _point_spec(grid5000_graphene(16), 16, 512, 32, "micro", 4)
    spec.update(overrides)
    return spec


# Module-level so worker processes can import it by qualified name.
def _double(spec):
    return {"value": 2 * spec["x"], "index": spec["i"]}


class TestSpecKey:
    def test_deterministic(self):
        assert spec_key("f", _spec()) == spec_key("f", _spec())

    def test_sensitive_to_every_parameter(self):
        base = _spec()
        variants = [
            _spec(p=32),                         # grid / processor count
            _spec(block=64),                     # block size
            _spec(n=1024),                       # matrix size
            _spec(G=8),                          # group count
            _spec(kind="topology"),              # coster kind
            _spec(faults={"kill": [3]}),         # fault spec
        ]
        # Network parameters live inside the embedded platform signature.
        tweaked = copy.deepcopy(base)
        tweaked["sig"]["alpha"] *= 2
        variants.append(tweaked)
        tweaked = copy.deepcopy(base)
        tweaked["sig"]["beta"] *= 2
        variants.append(tweaked)

        keys = {spec_key("f", v) for v in variants}
        assert spec_key("f", base) not in keys
        assert len(keys) == len(variants)

    def test_sensitive_to_fn_and_salt(self):
        spec = _spec()
        assert spec_key("f", spec) != spec_key("g", spec)
        assert spec_key("f", spec) != spec_key("f", spec, salt="other")

    def test_non_json_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON"):
            spec_key("f", {"x": object()})


class TestSweepCache:
    def test_hit_returns_bit_identical_value(self, tmp_path):
        cache = SweepCache(tmp_path)
        spec = _spec()
        value = _Sweep(grid5000_graphene(16), 16, "micro").point(spec)
        cache.store("f", spec, value)
        hit = cache.lookup("f", spec)
        assert hit == value
        # Bit-identical floats, not just approx — the round trip
        # through JSON must preserve every digit.
        assert hit["comm"].hex() == value["comm"].hex()
        assert hit["total"].hex() == value["total"].hex()

    def test_miss_distinguished_from_cached_none(self, tmp_path):
        from repro.experiments.parallel import _MISS

        cache = SweepCache(tmp_path)
        assert cache.lookup("f", {"x": 1}) is _MISS
        cache.store("f", {"x": 1}, None)
        assert cache.lookup("f", {"x": 1}) is None

    def test_salt_bump_invalidates(self, tmp_path):
        old = SweepCache(tmp_path, salt="v1")
        old.store("f", {"x": 1}, 41)
        new = SweepCache(tmp_path, salt="v2")
        from repro.experiments.parallel import _MISS

        assert new.lookup("f", {"x": 1}) is _MISS
        assert new.prune() == 1
        assert list(tmp_path.glob("*.json")) == []

    def test_prune_keeps_current_salt(self, tmp_path):
        cache = SweepCache(tmp_path, salt="v1")
        cache.store("f", {"x": 1}, 1)
        assert cache.prune() == 0
        assert cache.lookup("f", {"x": 1}) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        from repro.experiments.parallel import _MISS

        cache = SweepCache(tmp_path)
        key = spec_key("f", {"x": 1}, SWEEP_CACHE_SALT)
        (tmp_path / f"{key}.json").write_text("{not json")
        assert cache.lookup("f", {"x": 1}) is _MISS

    def test_entries_are_self_describing(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.store("pkg.fn", {"x": 1}, 2)
        [path] = tmp_path.glob("*.json")
        entry = json.loads(path.read_text())
        assert entry["fn"] == "pkg.fn"
        assert entry["salt"] == SWEEP_CACHE_SALT
        assert entry["spec"] == {"x": 1}
        assert entry["value"] == 2


class TestParallelMap:
    SPECS = [{"x": x, "i": i} for i, x in enumerate([5, 3, 8, 1, 9, 2])]

    def test_results_in_input_order(self):
        out = parallel_map(_double, self.SPECS, jobs=1)
        assert out == [_double(s) for s in self.SPECS]

    def test_jobs_equivalence(self):
        seq = parallel_map(_double, self.SPECS, jobs=1)
        par = parallel_map(_double, self.SPECS, jobs=4)
        assert seq == par

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            parallel_map(_double, self.SPECS, jobs=0)

    def test_cache_round_trip(self, tmp_path):
        cache = SweepCache(tmp_path)
        first = parallel_map(_double, self.SPECS, jobs=1, cache=cache)
        assert len(list(tmp_path.glob("*.json"))) == len(self.SPECS)

        # Second run: every point served from disk, fn never called.
        def explode(spec):
            raise AssertionError("cache should have served this point")

        explode.__module__ = _double.__module__
        explode.__qualname__ = _double.__qualname__
        again = parallel_map(explode, self.SPECS, jobs=1, cache=cache)
        assert again == first

    def test_partial_cache_fills_gaps(self, tmp_path):
        cache = SweepCache(tmp_path)
        parallel_map(_double, self.SPECS[:3], jobs=1, cache=cache)
        out = parallel_map(_double, self.SPECS, jobs=2, cache=cache)
        assert out == [_double(s) for s in self.SPECS]


class TestGroupSweepParallel:
    def test_jobs_and_cache_transparent(self, tmp_path):
        # p=16 sits under one Graphene edge switch; p=64 spans four, so
        # the sweep's shared coster prices placement classes that are
        # not raw rank tuples.
        for p in (16, 64):
            plat = grid5000_graphene(p)
            base = group_sweep(plat, p, 512, 32, name="t")
            cache = SweepCache(tmp_path / str(p))
            par = group_sweep(plat, p, 512, 32, name="t", jobs=4, cache=cache)
            hit = group_sweep(plat, p, 512, 32, name="t", jobs=1, cache=cache)
            assert base.columns == par.columns == hit.columns
            assert base.x == par.x == hit.x

    def test_customised_platform_not_cached(self, tmp_path):
        """A platform that can't be rebuilt from its name must be
        evaluated in-process — never from (or into) the cache."""
        import dataclasses

        plat = grid5000_graphene(16)
        custom = dataclasses.replace(plat, gamma=plat.gamma * 10)
        cache = SweepCache(tmp_path)
        s = group_sweep(custom, 16, 512, 32, name="t", jobs=4, cache=cache)
        assert list(tmp_path.glob("*.json")) == []
        stock = group_sweep(plat, 16, 512, 32, name="t")
        assert s.column("hsumma_total") != stock.column("hsumma_total")
