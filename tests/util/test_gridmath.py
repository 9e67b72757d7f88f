"""Unit tests for repro.util.gridmath."""

import pytest

from repro.errors import ConfigurationError
from repro.util.gridmath import (
    ceil_div,
    divisors,
    factor_grid,
    is_perfect_square,
    is_power_of_two,
    lcm,
    nearest_power_of_two,
    split_evenly,
)


class TestCeilDiv:
    def test_exact(self):
        assert ceil_div(12, 4) == 3

    def test_rounds_up(self):
        assert ceil_div(13, 4) == 4

    def test_zero_numerator(self):
        assert ceil_div(0, 5) == 0

    def test_rejects_zero_divisor(self):
        with pytest.raises(ConfigurationError):
            ceil_div(1, 0)

    def test_rejects_negative_divisor(self):
        with pytest.raises(ConfigurationError):
            ceil_div(1, -2)


class TestLcm:
    def test_basic(self):
        assert lcm(4, 6) == 12

    def test_coprime(self):
        assert lcm(7, 5) == 35

    def test_zero(self):
        assert lcm(0, 5) == 0

    def test_pumma_style(self):
        # The PUMMA analysis uses LCM(P, Q) of the grid dimensions.
        assert lcm(8, 16) == 16


class TestPowersOfTwo:
    def test_one_is_power(self):
        assert is_power_of_two(1)

    def test_powers(self):
        for k in range(20):
            assert is_power_of_two(1 << k)

    def test_non_powers(self):
        for n in (0, 3, 6, 12, 100, -4):
            assert not is_power_of_two(n)

    def test_nearest_exact(self):
        assert nearest_power_of_two(64) == 64

    def test_nearest_rounds(self):
        assert nearest_power_of_two(5) == 4
        assert nearest_power_of_two(7) == 8

    def test_nearest_tie_rounds_down(self):
        assert nearest_power_of_two(6) == 4  # equidistant from 4 and 8

    def test_nearest_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            nearest_power_of_two(0)


class TestPerfectSquare:
    def test_squares(self):
        for r in (0, 1, 2, 11, 128):
            assert is_perfect_square(r * r)

    def test_non_squares(self):
        for n in (2, 3, 5, 127, 16383):
            assert not is_perfect_square(n)

    def test_negative(self):
        assert not is_perfect_square(-4)


class TestDivisors:
    def test_twelve(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_prime(self):
        assert divisors(13) == [1, 13]

    def test_one(self):
        assert divisors(1) == [1]

    def test_square(self):
        assert divisors(16) == [1, 2, 4, 8, 16]

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            divisors(0)

    def test_sorted_and_complete(self):
        n = 360
        ds = divisors(n)
        assert ds == sorted(ds)
        assert all(n % d == 0 for d in ds)
        assert len(ds) == sum(1 for d in range(1, n + 1) if n % d == 0)


class TestFactorGrid:
    def test_square(self):
        assert factor_grid(36) == (6, 6)

    def test_paper_p128(self):
        assert factor_grid(128) == (8, 16)

    def test_paper_p16384(self):
        assert factor_grid(16384) == (128, 128)

    def test_prime(self):
        assert factor_grid(13) == (1, 13)

    def test_one(self):
        assert factor_grid(1) == (1, 1)

    def test_s_le_t_and_product(self):
        for p in range(1, 200):
            s, t = factor_grid(p)
            assert s * t == p
            assert s <= t

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            factor_grid(0)


class TestSplitEvenly:
    def test_even(self):
        assert split_evenly(12, 3) == [4, 4, 4]

    def test_remainder_goes_first(self):
        assert split_evenly(10, 3) == [4, 3, 3]

    def test_more_parts_than_items(self):
        assert split_evenly(2, 5) == [1, 1, 0, 0, 0]

    def test_sum_invariant(self):
        for total in (0, 1, 7, 100):
            for parts in (1, 2, 3, 9):
                assert sum(split_evenly(total, parts)) == total

    def test_rejects_zero_parts(self):
        with pytest.raises(ConfigurationError):
            split_evenly(5, 0)
