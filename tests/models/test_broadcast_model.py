"""Tests for the general broadcast model (paper eq. 1)."""

import math

import pytest

from repro.costs import BINOMIAL_MODEL, SMOOTH_MODELS, VANDEGEIJN_MODEL

FLAT_MODEL = SMOOTH_MODELS["flat"]
MODELS = SMOOTH_MODELS


class TestModelIdentities:
    def test_L1_W1_zero(self):
        """The paper requires L(1) = W(1) = 0."""
        for model in MODELS.values():
            assert model.L(1) == 0.0
            assert model.W(1) == 0.0
            assert model.time(1e6, 1, 1e-5, 1e-9) == 0.0

    def test_binomial_log(self):
        assert BINOMIAL_MODEL.L(8) == pytest.approx(3.0)
        assert BINOMIAL_MODEL.W(1024) == pytest.approx(10.0)

    def test_vandegeijn_forms(self):
        p = 16
        assert VANDEGEIJN_MODEL.L(p) == pytest.approx(math.log2(p) + p - 1)
        assert VANDEGEIJN_MODEL.W(p) == pytest.approx(2 * (p - 1) / p)

    def test_flat_linear(self):
        assert FLAT_MODEL.L(10) == 9.0

    def test_monotonic_in_p(self):
        for model in MODELS.values():
            values = [model.L(p) for p in (2, 4, 8, 16, 32)]
            assert values == sorted(values)

    def test_time_formula(self):
        t = BINOMIAL_MODEL.time(1000, 8, 1e-5, 1e-9)
        assert t == pytest.approx(3 * 1e-5 + 1000 * 3 * 1e-9)

    def test_vdg_bandwidth_bounded_by_two(self):
        """W -> 2 as p grows: each byte crosses the wire twice."""
        assert VANDEGEIJN_MODEL.W(1e6) < 2.0
        assert VANDEGEIJN_MODEL.W(1e6) > 1.99

    def test_non_integer_p(self):
        """The optimizer differentiates through sqrt(p): models must
        accept non-integer participant counts."""
        assert BINOMIAL_MODEL.L(11.3) == pytest.approx(math.log2(11.3))
