"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.network.model import HockneyParams

#: Every run draws the same examples: tier-1 is a fixed set of cases,
#: not a fresh sample each time (and no example database carries a
#: failure from one run into the next).  Simulated runs have no useful
#: per-example deadline.
settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")


def pytest_configure(config: pytest.Config) -> None:
    # A test that asks for a pipeline depth above the route's capacity
    # asserts the warning; any other one is a bug.
    config.addinivalue_line(
        "filterwarnings", "error::repro.costs.PipelineDepthWarning")


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite every pin table and golden file from the current "
             "output instead of failing on a mismatch (tests/pins.py; "
             "commit the diff after an intentional behaviour change)",
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; tests that need other seeds spawn their own."""
    return np.random.default_rng(12345)


@pytest.fixture
def params() -> HockneyParams:
    """A latency-heavy parameter set (alpha visible next to bandwidth)."""
    return HockneyParams(alpha=1e-4, beta=1e-9)


def random_pair(rng: np.random.Generator, m: int, l: int, n: int):
    """Random (A, B) of the requested multiplication shape."""
    return rng.standard_normal((m, l)), rng.standard_normal((l, n))
