"""Tests for the extremum analysis (paper eqs. 6-12)."""


import pytest

from repro.errors import ModelError
from repro.costs import (
    BINOMIAL_MODEL,
    VANDEGEIJN_MODEL,
    critical_ratio,
    crossover_processor_count,
    hsumma_beats_summa,
    hsumma_communication_cost,
    predicted_extremum_kind,
    vdg_cost_derivative,
)
from repro.models.optimizer import default_group_candidates, optimal_group_count


class TestCriticalRatio:
    def test_formula(self):
        assert critical_ratio(8192, 64, 128) == pytest.approx(8192.0)

    def test_paper_grid5000_numbers(self):
        """Section V-A-1: 2 * 8192 * 64 / 128 = 8192 < 1e5 = alpha/beta."""
        assert hsumma_beats_summa(8192, 64, 128, 1e-4, 1e-9)

    def test_paper_bgp_numbers(self):
        """Section V-B-1: alpha/beta = 3000 > 2048 = 2nb/p."""
        assert critical_ratio(65536, 256, 16384) == pytest.approx(2048.0)
        assert hsumma_beats_summa(65536, 256, 16384, 3e-6, 1e-9)

    def test_paper_exascale_numbers(self):
        """Section V-C: 2 * 2^22 * 256 / 2^20 = 2048."""
        assert critical_ratio(2**22, 256, 2**20) == pytest.approx(2048.0)

    def test_validation(self):
        with pytest.raises(ModelError):
            critical_ratio(0, 64, 128)


class TestExtremumKind:
    def test_minimum(self):
        assert predicted_extremum_kind(1024, 16, 4096, 1e-4, 1e-9) == "minimum"

    def test_maximum(self):
        assert predicted_extremum_kind(2**22, 4096, 64, 1e-4, 1e-9) == "maximum"

    def test_flat(self):
        n, b, p = 1024, 16, 64
        alpha = 1e-9 * critical_ratio(n, b, p)
        assert predicted_extremum_kind(n, b, p, alpha, 1e-9) == "flat"


class TestDerivative:
    def test_zero_at_sqrt_p(self):
        assert vdg_cost_derivative(1024, 4096, 64.0, 16, 1e-4, 1e-9) == 0.0

    def test_sign_flips_across_sqrt_p(self):
        """Minimum case: negative below sqrt(p), positive above."""
        n, p, b = 1024, 4096, 16
        below = vdg_cost_derivative(n, p, 8, b, 1e-4, 1e-9)
        above = vdg_cost_derivative(n, p, 512, b, 1e-4, 1e-9)
        assert below < 0 < above

    def test_sign_reversed_in_maximum_case(self):
        n, p, b = 2**22, 64, 4096
        below = vdg_cost_derivative(n, p, 2, b, 1e-4, 1e-9)
        above = vdg_cost_derivative(n, p, 32, b, 1e-4, 1e-9)
        assert below > 0 > above

    def test_bounds(self):
        with pytest.raises(ModelError):
            vdg_cost_derivative(1024, 64, 0, 16, 1e-4, 1e-9)


class TestCrossover:
    def test_inverse_of_threshold(self):
        n, b, alpha, beta = 65536, 256, 3e-6, 1e-9
        p_star = crossover_processor_count(n, b, alpha, beta)
        # Just below: threshold fails; just above: holds.
        assert not hsumma_beats_summa(n, b, p_star * 0.99, alpha, beta)
        assert hsumma_beats_summa(n, b, p_star * 1.01, alpha, beta)

    def test_bgp_crossover_between_8k_and_16k(self):
        """Explains Figure 9's model-side shape: parity through 8192,
        win at 16384."""
        p_star = crossover_processor_count(65536, 256, 3e-6, 1e-9)
        assert 8192 < p_star < 16384

    def test_validation(self):
        with pytest.raises(ModelError):
            crossover_processor_count(0, 1, 1, 1)


class TestOptimalGroupCount:
    def test_interior_optimum(self):
        G, t = optimal_group_count(1024, 4096, 16, 1e-4, 1e-9)
        assert G == 64  # sqrt(4096)
        assert t > 0

    def test_degenerate_optimum(self):
        G, _ = optimal_group_count(2**22, 64, 4096, 1e-4, 1e-9)
        assert G in (1, 64)

    def test_binomial_flat_prefers_any(self):
        G, t = optimal_group_count(1024, 64, 16, 1e-4, 1e-9, BINOMIAL_MODEL)
        ref = optimal_group_count(1024, 64, 16, 1e-4, 1e-9, BINOMIAL_MODEL,
                                  candidates=[1])[1]
        assert t == pytest.approx(ref)

    def test_explicit_candidates(self):
        G, _ = optimal_group_count(
            1024, 4096, 16, 1e-4, 1e-9, VANDEGEIJN_MODEL, candidates=[1, 2]
        )
        assert G == 2

    def test_candidate_out_of_range(self):
        with pytest.raises(ModelError):
            optimal_group_count(1024, 64, 16, 1e-4, 1e-9,
                                candidates=[128])

    def test_non_square_p_includes_powers(self):
        G, _ = optimal_group_count(1024, 128, 16, 1e-4, 1e-9)
        assert 1 <= G <= 128


class TestGridRestrictedCandidates:
    """The planner-facing extension: candidate ``G`` restricted to the
    counts actually realisable on an ``s x t`` processor grid."""

    def test_default_candidates_without_grid(self):
        cands = default_group_candidates(64)
        assert cands == [1, 2, 4, 8, 16, 32, 64]

    def test_default_candidates_include_exact_sqrt(self):
        assert 3 in default_group_candidates(9)

    def test_grid_restricts_to_feasible_counts(self):
        from repro.core.grouping import valid_group_counts

        assert default_group_candidates(9, grid=(3, 3)) == (
            valid_group_counts(3, 3)
        )

    def test_grid_excludes_unrealisable_counts(self):
        """G=2 on a 3x3 grid has no I|3, J|3 split with I*J=2."""
        assert 2 not in default_group_candidates(9, grid=(3, 3))

    def test_grid_must_match_p(self):
        with pytest.raises(ModelError):
            default_group_candidates(64, grid=(4, 4))

    def test_optimal_group_count_with_grid(self):
        G, _ = optimal_group_count(1024, 9, 16, 1e-4, 1e-9, grid=(3, 3))
        assert G in (1, 3, 9)

    def test_grid_and_unrestricted_agree_on_square_pow2(self):
        """On a 64x64 grid every power of two is feasible, so the
        restricted optimum can only improve on the sweep's."""
        p = 4096
        g_free, t_free = optimal_group_count(1024, p, 16, 1e-4, 1e-9)
        g_grid, t_grid = optimal_group_count(1024, p, 16, 1e-4, 1e-9,
                                             grid=(64, 64))
        assert t_grid <= t_free + 1e-18
        assert g_grid == g_free == 64

    def test_empty_candidates_raise(self):
        with pytest.raises(ModelError):
            optimal_group_count(1024, 64, 16, 1e-4, 1e-9, candidates=[])


class TestBoundaries:
    """Boundary behaviour: degenerate group counts and the exact
    alpha/beta = 2nb/p threshold."""

    def test_g1_and_gp_price_identically(self):
        """G=1 and G=p both degenerate to SUMMA (paper Section III)."""
        n, p, b = 1024, 4096, 16
        t1 = hsumma_communication_cost(n, p, 1, b, 1e-4, 1e-9,
                                       VANDEGEIJN_MODEL)
        tp = hsumma_communication_cost(n, p, p, b, 1e-4, 1e-9,
                                       VANDEGEIJN_MODEL)
        assert t1 == pytest.approx(tp, rel=1e-12)

    def test_g1_in_candidates_always_valid(self):
        G, _ = optimal_group_count(1024, 64, 16, 1e-4, 1e-9, candidates=[1])
        assert G == 1

    def test_gp_in_candidates_always_valid(self):
        G, _ = optimal_group_count(1024, 64, 16, 1e-4, 1e-9, candidates=[64])
        assert G == 64

    def test_exact_threshold_vdg_cost_is_flat(self):
        """At alpha/beta == 2nb/p the VdG cost is constant in G, the
        derivative vanishes everywhere, and ties resolve to the
        smallest candidate."""
        n, p, b = 1024, 64, 16
        beta = 1e-9
        alpha = beta * critical_ratio(n, b, p)
        assert predicted_extremum_kind(n, b, p, alpha, beta) == "flat"
        times = [
            optimal_group_count(n, p, b, alpha, beta, candidates=[G])[1]
            for G in (1, 2, 8, 64)
        ]
        for t in times[1:]:
            assert t == pytest.approx(times[0], rel=1e-12)
        for G in (2.0, 8.0, 32.0):
            assert vdg_cost_derivative(n, p, G, b, alpha, beta) == (
                pytest.approx(0.0, abs=1e-24)
            )
        G, _ = optimal_group_count(n, p, b, alpha, beta)
        assert G == 1  # deterministic tie-break to the smallest

    def test_just_off_threshold_breaks_the_tie(self):
        n, p, b = 1024, 64, 16
        beta = 1e-9
        alpha = beta * critical_ratio(n, b, p)
        g_hi, _ = optimal_group_count(n, p, b, alpha * 1.01, beta)
        assert g_hi == 8  # sqrt(p) minimum appears above threshold
