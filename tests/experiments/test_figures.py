"""Tests for the figure drivers (scaled-down variants for speed)."""

import pytest

from repro.experiments.figures import (
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    group_sweep,
    headline_ratios,
)
from repro.models.exascale import ExascaleScenario
from repro.platforms.grid5000 import grid5000_graphene


class TestGroupSweep:
    def test_endpoints_equal_summa(self):
        s = group_sweep(grid5000_graphene(16), 16, 512, 32, name="t")
        hs = s.column("hsumma_comm")
        su = s.column("summa_comm")[0]
        assert hs[0] == pytest.approx(su, rel=1e-9)
        assert hs[-1] == pytest.approx(su, rel=1e-9)

    def test_predictor_coster_kind(self):
        s = group_sweep(
            grid5000_graphene(16), 16, 512, 32,
            coster_kind="predictor", name="t",
        )
        assert len(s.x) == len(s.column("hsumma_comm"))

    def test_unknown_coster_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            group_sweep(grid5000_graphene(16), 16, 512, 32,
                        coster_kind="psychic", name="t")

    def test_des_fidelity_close_to_micro(self):
        """The full event simulation and the micro-costed step model
        agree closely on the switched cluster at small p."""
        plat = grid5000_graphene(16)
        micro = group_sweep(plat, 16, 512, 32, coster_kind="micro",
                            name="m")
        des = group_sweep(plat, 16, 512, 32, coster_kind="des", name="d")
        for a, b in zip(micro.column("hsumma_comm"),
                        des.column("hsumma_comm")):
            assert a == pytest.approx(b, rel=0.05)
        assert des.meta["fidelity"] == "des"

    def test_total_ge_comm(self):
        s = group_sweep(grid5000_graphene(16), 16, 512, 32, name="t")
        for total, comm in zip(s.column("hsumma_total"),
                               s.column("hsumma_comm")):
            assert total >= comm


class TestFigureDrivers:
    def test_fig5_scaled(self):
        s = fig5(p=16, n=1024, block=16)
        assert s.name == "fig5"
        # HSUMMA must win somewhere strictly inside the sweep.
        g, t = s.min_of("hsumma_comm")
        assert t <= s.column("summa_comm")[0]

    def test_fig6_scaled_larger_block_lower_latency(self):
        s_small = fig5(p=16, n=1024, block=16)
        s_large = fig6(p=16, n=1024, block=64)
        assert (
            s_large.column("summa_comm")[0] < s_small.column("summa_comm")[0]
        )

    def test_fig7_scaled(self):
        s = fig7(procs=(4, 16), n=512, block=32)
        assert s.x == [4, 16]
        assert all(h <= s2 + 1e-12 for h, s2 in zip(
            s.column("hsumma_comm"), s.column("summa_comm")))

    def test_fig8_scaled(self):
        s = fig8(p=64, n=2048, block=32)
        assert s.meta["platform"] == "bluegene-p"
        # Power-of-two group counts only (paper's x axis).
        assert all(g & (g - 1) == 0 for g in s.x)

    def test_fig9_scaled(self):
        s = fig9(procs=(16, 64), n=1024, block=16)
        assert s.x == [16, 64]
        assert len(s.column("best_groups")) == 2

    def test_fig10_full(self):
        """The real Figure 10 is pure closed form — run it at paper scale."""
        s = fig10()
        assert s.meta["optimal_G"] == 1024
        g, t = s.min_of("hsumma_comm")
        assert g == 1024
        assert t < s.column("summa_comm")[0]

    def test_fig10_custom_scenario(self):
        sc = ExascaleScenario(n=2**16, p=2**10, b=64)
        s = fig10(scenario=sc)
        assert s.meta["p"] == 2**10

    def test_headline_ratios_scaled(self):
        out = headline_ratios(procs=(64,), n=2048, block=32)
        assert 64 in out
        assert out[64]["comm_ratio"] >= 1.0
        assert out[64]["total_ratio"] >= 1.0 - 1e-9
