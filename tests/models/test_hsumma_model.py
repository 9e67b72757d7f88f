"""Tests for the HSUMMA closed-form costs (eqs. 3-5, 12, Tables I/II)."""

import math

import pytest

from repro.costs import (
    BINOMIAL_MODEL,
    VANDEGEIJN_MODEL,
    hsumma_bandwidth_factor,
    hsumma_communication_cost,
    hsumma_latency_factor,
    hsumma_optimal_vdg_cost,
    summa_communication_cost,
)
from repro.errors import ModelError


class TestDegenerationIdentity:
    """T_S is the special case of T_HS at G = 1 and G = p (paper)."""

    @pytest.mark.parametrize("model", [BINOMIAL_MODEL, VANDEGEIJN_MODEL])
    @pytest.mark.parametrize("G", [1])
    def test_g1(self, model, G):
        n, p, b = 2048, 256, 32
        hs = hsumma_communication_cost(n, p, G, b, 1e-5, 1e-9, model)
        s = summa_communication_cost(n, p, b, 1e-5, 1e-9, model)
        assert hs == pytest.approx(s)

    @pytest.mark.parametrize("model", [BINOMIAL_MODEL, VANDEGEIJN_MODEL])
    def test_gp(self, model):
        n, p, b = 2048, 256, 32
        hs = hsumma_communication_cost(n, p, p, b, 1e-5, 1e-9, model)
        s = summa_communication_cost(n, p, b, 1e-5, 1e-9, model)
        assert hs == pytest.approx(s)


class TestBinomialFlatness:
    def test_binomial_independent_of_g(self):
        """Table I: log2(G) + log2(p/G) = log2(p) for every G."""
        n, p, b = 2048, 1024, 32
        ref = hsumma_communication_cost(n, p, 1, b, 1e-5, 1e-9, BINOMIAL_MODEL)
        for G in (2, 4, 32, 256, 1024):
            assert hsumma_communication_cost(
                n, p, G, b, 1e-5, 1e-9, BINOMIAL_MODEL
            ) == pytest.approx(ref)


class TestVdgShape:
    def test_stationary_at_sqrt_p(self):
        """eq. (9): the derivative vanishes at G = sqrt(p)."""
        n, p, b = 4096, 4096, 64
        q = math.sqrt(p)
        def f(G):
            return hsumma_communication_cost(
                n, p, G, b, 1e-4, 1e-9, VANDEGEIJN_MODEL
            )
        eps = 1e-3
        deriv = (f(q + eps) - f(q - eps)) / (2 * eps)
        scale = f(q) / q
        assert abs(deriv) < 1e-6 * abs(scale)

    def test_minimum_when_condition_holds(self):
        """alpha/beta > 2nb/p: sqrt(p) beats both extremes (eq. 10)."""
        n, p, b = 1024, 4096, 16  # 2nb/p = 8; alpha/beta = 1e5
        mid = hsumma_communication_cost(n, p, math.sqrt(p), b, 1e-4, 1e-9,
                                        VANDEGEIJN_MODEL)
        edge = hsumma_communication_cost(n, p, 1, b, 1e-4, 1e-9,
                                         VANDEGEIJN_MODEL)
        assert mid < edge

    def test_maximum_when_condition_fails(self):
        """alpha/beta < 2nb/p: sqrt(p) is the worst choice (eq. 11)."""
        n, p, b = 2**22, 64, 4096  # 2nb/p = 2^35; alpha/beta = 1e5
        mid = hsumma_communication_cost(n, p, math.sqrt(p), b, 1e-4, 1e-9,
                                        VANDEGEIJN_MODEL)
        edge = hsumma_communication_cost(n, p, 1, b, 1e-4, 1e-9,
                                         VANDEGEIJN_MODEL)
        assert mid > edge

    def test_equation_12_matches_general_form(self):
        """eq. (12) is the general cost at G = sqrt(p), b = B."""
        n, p, b = 65536, 16384, 256
        alpha, beta = 3e-6, 1e-9
        direct = hsumma_optimal_vdg_cost(n, p, b, alpha, beta)
        general = hsumma_communication_cost(
            n, p, math.sqrt(p), b, alpha, beta, VANDEGEIJN_MODEL
        )
        assert direct == pytest.approx(general)


class TestSeparateBlocks:
    def test_outer_block_reduces_outer_latency(self):
        """B > b cuts the between-group latency term (Table II rows)."""
        n, p, G, b = 4096, 1024, 32, 16
        small_B = hsumma_latency_factor(n, p, G, b, VANDEGEIJN_MODEL, B=b)
        big_B = hsumma_latency_factor(n, p, G, b, VANDEGEIJN_MODEL, B=8 * b)
        assert big_B < small_B

    def test_b_gt_B_rejected(self):
        with pytest.raises(ModelError):
            hsumma_communication_cost(
                1024, 64, 8, 32, 1e-5, 1e-9, VANDEGEIJN_MODEL, B=16
            )

    def test_bandwidth_factor_positive_and_bounded(self):
        n, p = 4096, 4096
        for G in (1, 8, 64, 512, 4096):
            w = hsumma_bandwidth_factor(n, p, G, VANDEGEIJN_MODEL)
            assert 0 < w <= 8 * n * n / math.sqrt(p)

    def test_invalid_g(self):
        with pytest.raises(ModelError):
            hsumma_communication_cost(1024, 64, 65, 16, 1e-5, 1e-9,
                                      VANDEGEIJN_MODEL)
        with pytest.raises(ModelError):
            hsumma_communication_cost(1024, 64, 0.5, 16, 1e-5, 1e-9,
                                      VANDEGEIJN_MODEL)
