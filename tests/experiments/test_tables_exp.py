"""Tests for the Table I/II drivers and model validation."""

import math

import pytest

from repro.experiments.tables import (
    cost_table,
    render_cost_table,
    table1,
    table2,
    validate_model,
)
from repro.costs import BINOMIAL_MODEL, VANDEGEIJN_MODEL


class TestCostTable:
    def test_summa_row_first(self):
        rows = cost_table(1024, 64, 16, BINOMIAL_MODEL)
        assert rows[0].algorithm == "SUMMA"

    def test_hsumma_g1_gp_match_summa(self):
        """The structural identity of the paper's tables."""
        rows = cost_table(1024, 64, 16, VANDEGEIJN_MODEL, groups=[1, 64])
        summa = rows[0]
        for row in rows[1:]:
            assert row.latency_factor == pytest.approx(summa.latency_factor)
            assert row.bandwidth_factor == pytest.approx(summa.bandwidth_factor)

    def test_optimal_g_row_matches_eq12(self):
        """Table II's HSUMMA(G=sqrt p) row: latency factor
        (log2 p + 4(p^1/4 - 1)) n/b, bandwidth 8(1 - p^-1/4) n^2/sqrt p."""
        n, p, b = 65536, 16384, 256
        rows = cost_table(n, p, b, VANDEGEIJN_MODEL, groups=[128])
        hs = rows[1]
        assert hs.latency_factor == pytest.approx(
            (math.log2(p) + 4 * (p**0.25 - 1)) * n / b
        )
        assert hs.bandwidth_factor == pytest.approx(
            8 * (1 - p**-0.25) * n * n / math.sqrt(p)
        )

    def test_computation_same_for_all(self):
        rows = cost_table(1024, 64, 16, BINOMIAL_MODEL, groups=[1, 8, 64])
        assert len({r.computation for r in rows}) == 1

    def test_render_contains_rows(self):
        out = render_cost_table(1024, 64, 16, BINOMIAL_MODEL, groups=[8])
        assert "SUMMA" in out and "HSUMMA(G=8)" in out

    def test_table1_binomial_equal_factors(self):
        out = table1()
        assert "binomial" in out

    def test_table2_vdg_shows_win(self):
        out = table2()
        assert "vandegeijn" in out


class TestValidateModel:
    def test_bgp_wins(self):
        r = validate_model("bgp", 65536, 16384, 256, 3e-6, 1e-9)
        assert r.hsumma_wins
        assert r.extremum == "minimum"
        assert "interior minimum" in r.summary()

    def test_losing_configuration(self):
        # Huge blocks push the threshold past alpha/beta.
        r = validate_model("x", 2**22, 64, 4096, 1e-4, 1e-9)
        assert not r.hsumma_wins
        assert r.extremum == "maximum"
        assert "degenerates" in r.summary()

    def test_threshold_value(self):
        r = validate_model("g5k", 8192, 128, 64, 1e-4, 1e-9)
        assert r.threshold == pytest.approx(8192.0)
        assert r.alpha_over_beta == pytest.approx(1e5)

    def test_invalid_params(self):
        from repro.errors import ModelError

        with pytest.raises(ModelError):
            validate_model("x", 1024, 64, 16, 0, 1e-9)
