"""Tests for the analytic broadcast cost functions."""


import pytest

from repro.costs import (
    bcast_bandwidth_factor,
    bcast_latency_factor,
    bcast_time,
)
from repro.errors import ModelError
from repro.network.model import HockneyParams

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)


class TestFactors:
    def test_binomial_matches_paper(self):
        # Paper: log2(p) * (alpha + m beta).
        assert bcast_latency_factor("binomial", 64) == 6
        assert bcast_bandwidth_factor("binomial", 64) == 6

    def test_binomial_non_power(self):
        assert bcast_latency_factor("binomial", 5) == 3  # ceil(log2 5)

    def test_vandegeijn_matches_paper(self):
        # Paper: (log2 p + p - 1) alpha + 2 (p-1)/p m beta.
        p = 16
        assert bcast_latency_factor("vandegeijn", p) == 4 + 15
        assert bcast_bandwidth_factor("vandegeijn", p) == pytest.approx(2 * 15 / 16)

    def test_flat_and_chain_linear(self):
        assert bcast_latency_factor("flat", 9) == 8
        assert bcast_latency_factor("chain", 9) == 8

    def test_single_rank_zero(self):
        for algo in ("binomial", "vandegeijn", "flat", "chain", "binary"):
            assert bcast_latency_factor(algo, 1) == 0.0
            assert bcast_bandwidth_factor(algo, 1) == 0.0

    def test_unknown_algorithm(self):
        with pytest.raises(ModelError):
            bcast_latency_factor("pipelined", 8)  # no closed L/W form

    def test_invalid_p(self):
        with pytest.raises(ModelError):
            bcast_latency_factor("binomial", 0)


class TestBcastTime:
    def test_formula(self):
        t = bcast_time("binomial", 1000, 8, PARAMS)
        assert t == pytest.approx(3 * (1e-4 + 1000 * 1e-9))

    def test_pipelined_uses_optimal_segments(self):
        m, p = 1_000_000, 16
        t_auto = bcast_time("pipelined", m, p, PARAMS)
        # Any explicit segment count must be >= the optimum.
        for s in (1, 4, 1000):
            assert t_auto <= bcast_time("pipelined", m, p, PARAMS, segments=s) + 1e-12

    def test_pipelined_segment_formula(self):
        t = bcast_time("pipelined", 1000, 4, PARAMS, segments=2)
        assert t == pytest.approx((4 - 2 + 2) * (1e-4 + 500 * 1e-9))

    def test_zero_message(self):
        assert bcast_time("binomial", 0, 8, PARAMS) == pytest.approx(3e-4)

    def test_negative_message_rejected(self):
        with pytest.raises(ModelError):
            bcast_time("binomial", -1, 8, PARAMS)

    def test_p1_free(self):
        assert bcast_time("vandegeijn", 1e9, 1, PARAMS) == 0.0
