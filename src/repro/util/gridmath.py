"""Integer and processor-grid arithmetic used throughout the library.

These helpers are deliberately dependency-free; they operate on plain
Python ints so they stay exact for the very large processor counts used
in the exascale predictions (p = 2**20 and beyond).
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division ``ceil(a / b)`` for non-negative ``a``."""
    if b <= 0:
        raise ConfigurationError(f"ceil_div divisor must be positive, got {b}")
    return -(-a // b)


def lcm(a: int, b: int) -> int:
    """Least common multiple; used by the PUMMA-style analyses."""
    if a == 0 or b == 0:
        return 0
    return abs(a * b) // math.gcd(a, b)


def is_power_of_two(n: int) -> bool:
    """True if ``n`` is a positive power of two (1 counts)."""
    return n > 0 and (n & (n - 1)) == 0


def nearest_power_of_two(n: int) -> int:
    """The power of two closest to ``n`` (ties round down)."""
    if n < 1:
        raise ConfigurationError(f"nearest_power_of_two needs n >= 1, got {n}")
    lo = 1 << (n.bit_length() - 1)
    hi = lo << 1
    return lo if (n - lo) <= (hi - n) else hi


def is_perfect_square(n: int) -> bool:
    """True if ``n`` is a perfect square (0 and 1 count)."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def divisors(n: int) -> list[int]:
    """All positive divisors of ``n`` in ascending order."""
    if n <= 0:
        raise ConfigurationError(f"divisors needs n >= 1, got {n}")
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def factor_grid(p: int) -> tuple[int, int]:
    """Factor ``p`` processors into the most square ``s x t`` grid with
    ``s <= t``.

    This mirrors what MPI_Dims_create does for two dimensions and is the
    default grid shape for SUMMA/HSUMMA when the caller does not pick one.

    >>> factor_grid(128)
    (8, 16)
    >>> factor_grid(36)
    (6, 6)
    """
    if p <= 0:
        raise ConfigurationError(f"factor_grid needs p >= 1, got {p}")
    s = math.isqrt(p)
    while s >= 1:
        if p % s == 0:
            return (s, p // s)
        s -= 1
    raise AssertionError("unreachable: 1 always divides p")


def split_evenly(total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` contiguous chunk sizes differing by
    at most one (the classic block distribution remainder rule).

    >>> split_evenly(10, 3)
    [4, 3, 3]
    """
    if parts <= 0:
        raise ConfigurationError(f"split_evenly needs parts >= 1, got {parts}")
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]
