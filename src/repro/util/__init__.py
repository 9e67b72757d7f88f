"""Small shared utilities: integer/grid math, ascii tables, validation."""

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
from repro.util.tables import format_table
from repro.util.validation import (
    require,
    require_divides,
    require_finite,
    require_positive,
    require_power_of_two,
)

__all__ = [
    "ceil_div",
    "divisors",
    "factor_grid",
    "is_perfect_square",
    "is_power_of_two",
    "lcm",
    "nearest_power_of_two",
    "split_evenly",
    "format_table",
    "require",
    "require_divides",
    "require_finite",
    "require_positive",
    "require_power_of_two",
]
