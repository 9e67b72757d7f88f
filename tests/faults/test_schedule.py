"""Unit tests for the fault-schedule primitives: determinism of the
hash variates, dataclass validation, schedule queries and the textual
spec mini-language."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    DEFAULT_RETRY_POLICY,
    FaultSchedule,
    LinkDegradation,
    MessageDrop,
    RankDeath,
    RankSlowdown,
    RetryPolicy,
    chan_digest,
    coerce_faults,
    parse_fault_spec,
    unit_hash,
)
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)


class TestUnitHash:
    def test_range(self):
        for seed in range(5):
            for a in range(10):
                u = unit_hash(seed, a, a + 1, 17)
                assert 0.0 <= u < 1.0

    def test_deterministic(self):
        assert unit_hash(42, 1, 2, 3) == unit_hash(42, 1, 2, 3)

    def test_seed_sensitivity(self):
        assert unit_hash(0, 1, 2, 3) != unit_hash(1, 1, 2, 3)

    def test_coord_sensitivity(self):
        base = unit_hash(7, 0, 1, 2)
        assert unit_hash(7, 0, 1, 3) != base
        assert unit_hash(7, 1, 0, 2) != base

    def test_roughly_uniform(self):
        """Crude sanity: mean of many variates near 1/2."""
        n = 2000
        mean = sum(unit_hash(9, i) for i in range(n)) / n
        assert abs(mean - 0.5) < 0.05


class TestChanDigest:
    def test_deterministic_per_type(self):
        for tag in (0, 7, -70, None, True, False, "bcast",
                    (1, 2), ((0, 1), -3, "x")):
            assert chan_digest(tag) == chan_digest(tag)

    def test_distinguishes_structures(self):
        seen = {chan_digest(t) for t in
                (0, 1, None, True, False, "a", "b", (0,), (0, 0), (1, 0))}
        assert len(seen) == 10

    def test_nested_tuples(self):
        assert chan_digest(((1, 2), 3)) != chan_digest((1, (2, 3)))

    def test_bool_is_not_int(self):
        """bool is an int subclass; the digest must still separate them
        or True would collide with every tag-1 channel."""
        assert chan_digest(True) != chan_digest(1)
        assert chan_digest(False) != chan_digest(0)

    def test_rejects_unhashable_types(self):
        with pytest.raises(ConfigurationError):
            chan_digest(1.5)
        with pytest.raises(ConfigurationError):
            chan_digest([1, 2])


class TestFaultValidation:
    def test_degradation_rejects_speedups(self):
        with pytest.raises(ConfigurationError):
            LinkDegradation(alpha_mult=0.5)
        with pytest.raises(ConfigurationError):
            LinkDegradation(beta_mult=0.0)

    def test_drop_probability_range(self):
        with pytest.raises(ConfigurationError):
            MessageDrop(p=1.0)
        with pytest.raises(ConfigurationError):
            MessageDrop(p=-0.1)
        MessageDrop(p=0.0)
        MessageDrop(p=0.999)

    def test_windows_must_be_ordered(self):
        with pytest.raises(ConfigurationError):
            MessageDrop(p=0.1, t0=2.0, t1=1.0)
        with pytest.raises(ConfigurationError):
            LinkDegradation(beta_mult=2.0, t0=1.0, t1=0.5)
        with pytest.raises(ConfigurationError):
            RankSlowdown(rank=0, factor=2.0, t0=3.0, t1=0.0)

    def test_slowdown_factor_floor(self):
        with pytest.raises(ConfigurationError):
            RankSlowdown(rank=0, factor=0.9)

    def test_death_time_nonnegative(self):
        with pytest.raises(ConfigurationError):
            RankDeath(rank=0, time=-1e-9)
        RankDeath(rank=0, time=0.0)

    def test_retry_policy_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retransmits=0)

    def test_retry_backoff_capped(self):
        policy = RetryPolicy(backoff=1e-3, backoff_multiplier=4.0,
                             max_backoff=5e-3)
        assert policy.backoff_delay(0) == 1e-3
        assert policy.backoff_delay(1) == 4e-3
        assert policy.backoff_delay(2) == 5e-3  # capped
        assert policy.backoff_delay(10) == 5e-3

    def test_escalation_timeout_grows(self):
        policy = RetryPolicy(timeout=0.01, timeout_multiplier=2.0)
        assert policy.escalation_timeout(0) == 0.01
        assert policy.escalation_timeout(3) == pytest.approx(0.08)


class TestFaultSchedule:
    def test_classification(self):
        sched = FaultSchedule(seed=1, faults=[
            MessageDrop(p=0.1),
            LinkDegradation(beta_mult=2.0),
            RankSlowdown(rank=3, factor=2.0),
            RankDeath(rank=5, time=1.0),
        ])
        assert len(sched.drops) == 1
        assert len(sched.degradations) == 1
        assert len(sched.slowdowns) == 1
        assert len(sched.deaths) == 1
        assert not sched.empty
        assert not sched.transient_only

    def test_empty_and_transient_flags(self):
        assert FaultSchedule().empty
        assert FaultSchedule().transient_only
        assert FaultSchedule(faults=[MessageDrop(p=0.1)]).transient_only

    def test_rejects_unknown_fault(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule(faults=["not a fault"])

    def test_rejects_duplicate_deaths(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule(faults=[RankDeath(rank=2, time=0.1),
                                  RankDeath(rank=2, time=0.2)])

    def test_death_events_sorted(self):
        sched = FaultSchedule(faults=[RankDeath(rank=5, time=0.2),
                                      RankDeath(rank=1, time=0.1),
                                      RankDeath(rank=0, time=0.2)])
        assert [(d.time, d.rank) for d in sched.death_events()] == [
            (0.1, 1), (0.2, 0), (0.2, 5)]

    def test_default_retry_policy(self):
        assert FaultSchedule().retry is DEFAULT_RETRY_POLICY

    def test_compute_factor_stacks(self):
        sched = FaultSchedule(faults=[
            RankSlowdown(rank=1, factor=2.0),
            RankSlowdown(rank=1, factor=3.0, t0=0.0, t1=1.0),
        ])
        assert sched.compute_factor(1, 0.5) == 6.0
        assert sched.compute_factor(1, 2.0) == 2.0  # window expired
        assert sched.compute_factor(0, 0.5) == 1.0

    def test_link_factors_window_and_endpoints(self):
        sched = FaultSchedule(faults=[
            LinkDegradation(alpha_mult=3.0, beta_mult=2.0, src=0, dst=1,
                            t0=0.0, t1=1.0),
        ])
        assert sched.link_factors(0, 1, 0.5) == (3.0, 2.0)
        assert sched.link_factors(0, 1, 1.0) == (1.0, 1.0)  # [t0, t1)
        assert sched.link_factors(1, 0, 0.5) == (1.0, 1.0)

    def test_transfer_time_degrades_alpha_and_beta_separately(self):
        net = HomogeneousNetwork(4, PARAMS)
        sched = FaultSchedule(faults=[
            LinkDegradation(alpha_mult=2.0, beta_mult=4.0),
        ])
        nbytes = 1 << 20
        alpha = net.transfer_time(0, 1, 0)
        clean = net.transfer_time(0, 1, nbytes)
        assert sched.transfer_time(
            net, 0, 1, nbytes, 0.0, clean=clean) == pytest.approx(
            2.0 * alpha + 4.0 * (clean - alpha))

    def test_transfer_time_clean_outside_window(self):
        net = HomogeneousNetwork(4, PARAMS)
        sched = FaultSchedule(faults=[
            LinkDegradation(beta_mult=8.0, t0=1.0, t1=2.0),
        ])
        clean = net.transfer_time(0, 1, 4096)
        assert sched.transfer_time(net, 0, 1, 4096, 0.0, clean=clean) == clean

    def test_drop_monotone_in_probability(self):
        """Raising p can only add drops, never remove one — the variate
        is independent of p (severity monotonicity)."""
        lo = FaultSchedule(seed=77, faults=[MessageDrop(p=0.1)])
        hi = FaultSchedule(seed=77, faults=[MessageDrop(p=0.6)])
        for ordinal in range(200):
            if lo.drop(0, 1, 42, ordinal, 0, 0.0):
                assert hi.drop(0, 1, 42, ordinal, 0, 0.0)

    def test_drop_rules_compose(self):
        """Two overlapping rules drop with 1 - (1-p1)(1-p2)."""
        sched = FaultSchedule(seed=5, faults=[
            MessageDrop(p=0.3), MessageDrop(p=0.3)])
        single = FaultSchedule(seed=5, faults=[MessageDrop(p=0.51)])
        for ordinal in range(100):
            assert (sched.drop(0, 1, 0, ordinal, 0, 0.0)
                    == single.drop(0, 1, 0, ordinal, 0, 0.0))

    def test_drop_never_fires_at_zero_probability(self):
        sched = FaultSchedule(seed=3, faults=[MessageDrop(p=0.0)])
        assert not any(sched.drop(0, 1, 0, k, 0, 0.0) for k in range(100))

    def test_describe_mentions_every_kind(self):
        sched = FaultSchedule(seed=9, faults=[
            MessageDrop(p=0.1), LinkDegradation(beta_mult=2.0),
            RankSlowdown(rank=0, factor=2.0), RankDeath(rank=1, time=0.5)])
        text = sched.describe()
        for word in ("drop", "degraded", "slowdown", "death", "seed=9"):
            assert word in text
        assert "no faults" in FaultSchedule().describe()


class TestSpecParsing:
    def test_round_trip(self):
        sched = parse_fault_spec(
            "drop(p=0.05, src=0, dst=1); degrade(alpha=2, beta=8, t0=0, t1=0.5);"
            " slow(rank=3, factor=10); kill(rank=5, t=0.25);"
            " retry(timeout=0.01, max_attempts=4)",
            seed=42,
        )
        assert sched.seed == 42
        assert sched.drops == (MessageDrop(p=0.05, src=0, dst=1),)
        assert sched.degradations == (
            LinkDegradation(alpha_mult=2.0, beta_mult=8.0, t0=0.0, t1=0.5),)
        assert sched.slowdowns == (RankSlowdown(rank=3, factor=10.0),)
        assert sched.deaths == (RankDeath(rank=5, time=0.25),)
        assert sched.retry.timeout == 0.01
        assert sched.retry.max_attempts == 4

    def test_empty_spec_is_empty_schedule(self):
        assert parse_fault_spec("").empty
        assert parse_fault_spec(" ; ; ").empty

    def test_whitespace_tolerant(self):
        sched = parse_fault_spec("  drop( p = 0.1 )  ;  slow(rank=0,factor=2)")
        assert sched.drops[0].p == 0.1
        assert sched.drops[0].t1 == math.inf

    def test_bad_clause_shape(self):
        with pytest.raises(ConfigurationError, match="cannot parse"):
            parse_fault_spec("drop:p=0.2")

    def test_unknown_clause_name(self):
        with pytest.raises(ConfigurationError, match="unknown clause"):
            parse_fault_spec("explode(rank=0)")

    def test_bad_number(self):
        with pytest.raises(ConfigurationError, match="bad number"):
            parse_fault_spec("drop(p=lots)")

    def test_missing_equals(self):
        with pytest.raises(ConfigurationError, match="key=value"):
            parse_fault_spec("drop(0.5)")

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError):
            parse_fault_spec("drop(p=0.1, colour=3)")

    def test_retry_only_once(self):
        with pytest.raises(ConfigurationError, match="more than once"):
            parse_fault_spec("retry(timeout=0.1); retry(timeout=0.2)")

    def test_validation_propagates(self):
        with pytest.raises(ConfigurationError):
            parse_fault_spec("drop(p=1.5)")


class TestCoerceFaults:
    def test_none_passthrough(self):
        assert coerce_faults(None) is None

    def test_schedule_passthrough(self):
        sched = FaultSchedule(seed=3)
        assert coerce_faults(sched) is sched

    def test_string_parsed_with_seed(self):
        sched = coerce_faults("drop(p=0.1)", seed=11)
        assert isinstance(sched, FaultSchedule)
        assert sched.seed == 11

    def test_rejects_other_types(self):
        with pytest.raises(ConfigurationError):
            coerce_faults(3.14)
