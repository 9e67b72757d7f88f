"""Tests for the unified cost registry (`repro.costs.registry`)."""


import pytest

from repro.costs import (
    BCAST_ENTRIES,
    CostEstimate,
    CostQuery,
    estimate,
    lower_bound_time,
    optimal_pipeline_segments,
)
from repro.errors import ModelError
from repro.network.model import HockneyParams

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)


def _seconds(op, algorithm, p, nbytes, **kw):
    return estimate(CostQuery.from_params(op, algorithm, p, nbytes,
                                          PARAMS, **kw)).seconds


class TestEstimate:
    def test_bcast_binomial(self):
        assert _seconds("bcast", "binomial", 8, 1000) == pytest.approx(
            3 * (1e-4 + 1000 * 1e-9)
        )

    def test_bcast_vandegeijn(self):
        p, m = 16, 4096
        expect = (4 + 15) * 1e-4 + 2 * 15 / 16 * m * 1e-9
        assert _seconds("bcast", "vandegeijn", p, m) == pytest.approx(expect)

    def test_allgather_ring(self):
        p, m = 8, 1000
        assert _seconds("allgather", "ring", p, m) == pytest.approx(
            (p - 1) * (1e-4 + m * 1e-9)
        )

    def test_single_rank_is_free(self):
        for op in ("bcast", "scatter", "gather", "allgather", "reduce",
                   "allreduce", "barrier"):
            assert _seconds(op, "binomial", 1, 12345) == 0.0

    def test_zero_bytes_latency_only(self):
        assert _seconds("bcast", "binomial", 8, 0) == pytest.approx(3e-4)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ModelError):
            _seconds("bcast", "binomial", 8, -1)

    def test_invalid_p_rejected(self):
        with pytest.raises(ModelError):
            _seconds("bcast", "binomial", 0, 8)

    def test_unknown_op_rejected(self):
        with pytest.raises(ModelError):
            _seconds("alltoallw", "binomial", 8, 8)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ModelError):
            _seconds("bcast", "quantum", 8, 8)

    def test_pipelined_needs_segments_or_auto(self):
        auto = _seconds("bcast", "pipelined", 16, 1_000_000)
        manual = _seconds("bcast", "pipelined", 16, 1_000_000, segments=4)
        assert auto <= manual + 1e-12


#: Each public cost entry point that takes network rates, called at a
#: point where it answers, with ``alpha`` and ``beta`` last.
RATED = {
    "estimate":
        lambda a, b: estimate(CostQuery("bcast", "binomial", 8, 100, a, b)),
    "lower_bound_time": lambda a, b: lower_bound_time(1024, 64, a, b, 1e-11),
    "optimal_pipeline_segments":
        lambda a, b: optimal_pipeline_segments(1e6, 16, a, b, "segmented"),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                 -1.0])
@pytest.mark.parametrize("rate", ["alpha", "beta"])
@pytest.mark.parametrize("name", sorted(RATED))
def test_cost_entry_points_refuse_a_bad_rate_by_name(name, rate, bad):
    rates = {"alpha": 1e-5, "beta": 1e-9, rate: bad}
    with pytest.raises(ModelError, match=f"{rate} must be finite and >= 0"):
        RATED[name](rates["alpha"], rates["beta"])


@pytest.mark.parametrize("rate", ["alpha", "beta"])
@pytest.mark.parametrize("name", sorted(RATED))
def test_cost_entry_points_take_a_zero_rate(name, rate):
    rates = {"alpha": 1e-5, "beta": 1e-9, rate: 0.0}
    RATED[name](rates["alpha"], rates["beta"])


class TestCostEstimate:
    def test_addition(self):
        a = CostEstimate(seconds=1.0, alpha_terms=2.0, beta_bytes=10.0)
        b = CostEstimate(seconds=0.5, alpha_terms=1.0, beta_bytes=5.0)
        c = a + b
        assert (c.seconds, c.alpha_terms, c.beta_bytes) == (1.5, 3.0, 15.0)

    def test_metadata_matches_seconds_for_simple_ops(self):
        q = CostQuery.from_params("bcast", "binomial", 8, 1000, PARAMS)
        est = estimate(q)
        recomposed = est.alpha_terms * PARAMS.alpha + est.beta_bytes * PARAMS.beta
        assert recomposed == pytest.approx(est.seconds, rel=1e-12)


class TestRegistryEntries:
    def test_every_entry_has_both_flavours(self):
        for name, entry in BCAST_ENTRIES.items():
            assert entry.name == name
            for p in (2, 3, 8, 100):
                assert entry.L(p) >= 0
                assert entry.W(p) >= 0
                assert entry.L_smooth(float(p)) >= 0
                assert entry.W_smooth(float(p)) >= 0

    def test_discrete_upper_bounds_smooth(self):
        """ceil(log2 p) >= log2 p for the log-depth trees (the binary
        tree's smooth form uses a different depth expression, so it is
        excluded here — the power-of-two agreement test still pins it)."""
        for name in ("binomial", "vandegeijn", "flat", "chain"):
            entry = BCAST_ENTRIES[name]
            for p in (3, 5, 6, 7, 9, 100):
                assert entry.L(p) >= entry.L_smooth(float(p)) - 1e-12
