"""Tests for the SUMMA closed-form costs (eq. 2, Tables I/II)."""

import math

import pytest

from repro.costs import (
    BINOMIAL_MODEL,
    VANDEGEIJN_MODEL,
    summa_bandwidth_factor,
    summa_communication_cost,
    summa_computation_cost,
    summa_latency_factor,
)
from repro.errors import ModelError


class TestSummaModel:
    def test_binomial_factors_table1(self):
        """Table I row: latency log2(p) n/b, bandwidth n^2 log2(p)/sqrt(p)."""
        n, p, b = 1024, 64, 16
        assert summa_latency_factor(n, p, b, BINOMIAL_MODEL) == pytest.approx(
            math.log2(p) * n / b
        )
        assert summa_bandwidth_factor(n, p, BINOMIAL_MODEL) == pytest.approx(
            n * n * math.log2(p) / math.sqrt(p)
        )

    def test_vandegeijn_factors_table2(self):
        """Table II row: (log2 p + 2(sqrt(p)-1)) n/b latency,
        4(1 - 1/sqrt(p)) n^2/sqrt(p) bandwidth."""
        n, p, b = 1024, 64, 16
        q = math.sqrt(p)
        assert summa_latency_factor(n, p, b, VANDEGEIJN_MODEL) == pytest.approx(
            (math.log2(p) + 2 * (q - 1)) * n / b
        )
        assert summa_bandwidth_factor(n, p, VANDEGEIJN_MODEL) == pytest.approx(
            4 * (1 - 1 / q) * n * n / q
        )

    def test_cost_decomposition(self):
        n, p, b = 512, 16, 8
        alpha, beta = 1e-5, 1e-9
        total = summa_communication_cost(n, p, b, alpha, beta, BINOMIAL_MODEL)
        assert total == pytest.approx(
            summa_latency_factor(n, p, b, BINOMIAL_MODEL) * alpha
            + summa_bandwidth_factor(n, p, BINOMIAL_MODEL) * beta
        )

    def test_computation_cost(self):
        assert summa_computation_cost(100, 4, 1e-9) == pytest.approx(
            2 * 100**3 / 4 * 1e-9
        )

    def test_larger_block_less_latency(self):
        n, p = 1024, 64
        small = summa_latency_factor(n, p, 8, VANDEGEIJN_MODEL)
        large = summa_latency_factor(n, p, 64, VANDEGEIJN_MODEL)
        assert large < small

    def test_block_independent_bandwidth(self):
        """The bandwidth term has no b: total volume is fixed."""
        n, p = 1024, 64
        assert summa_bandwidth_factor(n, p, BINOMIAL_MODEL) == (
            summa_bandwidth_factor(n, p, BINOMIAL_MODEL)
        )

    def test_validation(self):
        with pytest.raises(ModelError):
            summa_communication_cost(0, 4, 2, 1e-5, 1e-9, BINOMIAL_MODEL)
        with pytest.raises(ModelError):
            summa_communication_cost(16, 4, 32, 1e-5, 1e-9, BINOMIAL_MODEL)
        with pytest.raises(ModelError):
            summa_computation_cost(16, 0, 1e-9)
