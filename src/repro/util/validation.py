"""Argument-validation helpers that raise :class:`ConfigurationError`.

Centralising these keeps the error messages uniform across the public
API ("block size b=48 must divide tile height 100" style) and makes the
configuration-error paths easy to test.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.util.gridmath import is_power_of_two


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ConfigurationError(message)


def require_finite(value: float, name: str, *, inf_ok: bool = False) -> None:
    """Require ``value`` to be a number: never NaN, and finite unless
    ``inf_ok`` (a documented open end, such as a fault window's ``t1``).

    A range check such as ``x < bound`` is false for NaN and lets it
    through, so a constructor runs this one first.
    """
    if math.isnan(value) or (math.isinf(value) and not inf_ok):
        raise ConfigurationError(
            f"{name} must be {'a number' if inf_ok else 'finite'}, "
            f"got {value!r}")


def require_positive(value: float, name: str) -> None:
    """Require ``0 < value < inf``."""
    require_finite(value, name)
    if not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")


def require_divides(divisor: int, dividend: int, what: str) -> None:
    """Require ``divisor`` to evenly divide ``dividend``."""
    if divisor <= 0:
        raise ConfigurationError(f"{what}: divisor must be positive, got {divisor}")
    if dividend % divisor != 0:
        raise ConfigurationError(
            f"{what}: {divisor} does not divide {dividend}"
        )


def require_power_of_two(value: int, name: str) -> None:
    """Require ``value`` to be a positive power of two."""
    if not is_power_of_two(value):
        raise ConfigurationError(f"{name} must be a power of two, got {value!r}")
