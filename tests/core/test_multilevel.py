"""Tests for the multi-level HSUMMA extension (paper future work)."""

import numpy as np
import pytest

from repro.blocks.verify import max_abs_error
from repro.core.hsumma import (
    MultiLevelConfig,
    run_hsumma,
    run_hsumma_multilevel,
)
from repro.errors import ConfigurationError
from repro.mpi.comm import CollectiveOptions
from repro.network.model import HockneyParams
from tests.pins import stats

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)


class TestMultiLevelConfig:
    def test_factors_must_multiply(self):
        with pytest.raises(ConfigurationError):
            MultiLevelConfig(m=16, l=16, n=16, s=4, t=4,
                             row_factors=(2, 3), col_factors=(2, 2),
                             blocks=(4, 4))

    def test_blocks_non_increasing(self):
        with pytest.raises(ConfigurationError):
            MultiLevelConfig(m=16, l=16, n=16, s=4, t=4,
                             row_factors=(2, 2), col_factors=(2, 2),
                             blocks=(2, 4))

    def test_lengths_must_match(self):
        with pytest.raises(ConfigurationError):
            MultiLevelConfig(m=16, l=16, n=16, s=4, t=4,
                             row_factors=(2, 2), col_factors=(4,),
                             blocks=(4, 4))


class TestMultiLevelCorrectness:
    def test_one_level_is_summa(self, rng):
        n = 16
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        C, _ = run_hsumma_multilevel(
            A, B, grid=(4, 4), row_factors=(4,), col_factors=(4,),
            blocks=(4,), params=PARAMS)
        assert max_abs_error(C, A @ B) < 1e-10

    def test_two_levels_match_hsumma(self, rng):
        n = 32
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        C, _ = run_hsumma_multilevel(
            A, B, grid=(4, 4), row_factors=(2, 2), col_factors=(2, 2),
            blocks=(8, 4), params=PARAMS)
        assert max_abs_error(C, A @ B) < 1e-10

    def test_three_levels(self, rng):
        n = 32
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        C, _ = run_hsumma_multilevel(
            A, B, grid=(8, 8), row_factors=(2, 2, 2), col_factors=(2, 2, 2),
            blocks=(4, 4, 2), params=PARAMS)
        assert max_abs_error(C, A @ B) < 1e-10

    def test_asymmetric_factors(self, rng):
        n = 24
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        C, _ = run_hsumma_multilevel(
            A, B, grid=(2, 6), row_factors=(2, 1), col_factors=(3, 2),
            blocks=(4, 2), params=PARAMS)
        assert max_abs_error(C, A @ B) < 1e-10

    def test_two_level_timing_matches_hsumma_runner(self):
        """Multi-level with h=2 is run_hsumma, every field of every rank."""
        n = 32
        rng = np.random.default_rng(0)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        vdg = CollectiveOptions(bcast="vandegeijn")
        _, ml_sim = run_hsumma_multilevel(
            A, B, grid=(4, 4), row_factors=(2, 2), col_factors=(2, 2),
            blocks=(8, 8), params=PARAMS, options=vdg)
        _, h_sim = run_hsumma(A, B, grid=(4, 4), groups=(2, 2),
                              outer_block=8, params=PARAMS, options=vdg)
        assert stats(ml_sim) == stats(h_sim)
