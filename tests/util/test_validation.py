"""Unit tests for repro.util.validation."""

import math

import pytest

from repro import multiply
from repro.core.summa import run_summa
from repro.errors import ConfigurationError
from repro.faults import parse_fault_spec
from repro.models.exascale import ExascaleScenario, exascale_prediction
from repro.models.optimizer import optimal_group_count
from repro.mpi.comm import make_contexts
from repro.network.model import HockneyParams
from repro.network.torus import Torus3D
from repro.network.tree import SwitchedCluster
from repro.payloads import PhantomArray
from repro.planner import PlanQuery
from repro.util.validation import (
    require,
    require_divides,
    require_positive,
    require_power_of_two,
)


class TestRequire:
    def test_pass(self):
        require(True, "never raised")

    def test_fail_message(self):
        with pytest.raises(ConfigurationError, match="boom"):
            require(False, "boom")


class TestRequirePositive:
    def test_positive_ok(self):
        require_positive(0.5, "x")

    def test_zero_fails(self):
        with pytest.raises(ConfigurationError, match="x"):
            require_positive(0, "x")

    def test_negative_fails(self):
        with pytest.raises(ConfigurationError):
            require_positive(-1, "x")


class TestRequireDivides:
    def test_divides(self):
        require_divides(4, 12, "ctx")

    def test_not_divides(self):
        with pytest.raises(ConfigurationError, match="ctx"):
            require_divides(5, 12, "ctx")

    def test_zero_divisor(self):
        with pytest.raises(ConfigurationError):
            require_divides(0, 12, "ctx")


class TestRequirePowerOfTwo:
    def test_ok(self):
        require_power_of_two(8, "n")

    def test_fails(self):
        with pytest.raises(ConfigurationError, match="n"):
            require_power_of_two(12, "n")


def _summa(backend):
    A = PhantomArray((16, 16))
    return run_summa(A, A, grid=(2, 2), block=4, gamma=math.nan,
                     backend=backend)


#: id -> (an input a ``x < bound`` check let through, the field the
#: refusal names).  Each is refused when it is built, never per message.
NON_FINITE = {
    **{f"gamma-{tier}": (lambda tier=tier: _summa(tier), "gamma")
       for tier in ("des", "macro", "predictor")},
    "gamma-context": (lambda: make_contexts(2, gamma=math.nan), "gamma"),
    **{spec: (lambda spec=spec: parse_fault_spec(spec), field)
       for spec, field in (
           ("slow(rank=0,factor=2,t0=nan)", "t0"),
           ("drop(p=0.5,t0=nan)", "t0"),
           ("drop(p=0.5,t1=nan)", "t1"),
           ("slow(rank=0,factor=nan)", "factor"),
           ("degrade(src=0,dst=1,beta=nan)", "beta"),
           ("degrade(src=0,dst=1,beta=inf)", "beta"),
           ("retry(timeout=nan)", "timeout"),
           ("kill(rank=1,t=nan)", "time"))},
    "hockney-alpha-inf": (lambda: HockneyParams(alpha=math.inf, beta=1e-9),
                          "alpha"),
    "plan-gamma-nan": (lambda: PlanQuery(n=64, p=4, gamma=math.nan)
                       .resolve(), "gamma"),
    # A NaN or infinite jitter priced every rerun's wire at NaN, and
    # such a rerun checks nothing.
    **{f"verify-{field}-{value}": (lambda kw={field: value}: multiply(
        PhantomArray((16, 16)), PhantomArray((16, 16)), nprocs=4,
        verify=kw), field)
       for field, value in (("amplitude", math.nan), ("amplitude", math.inf),
                            ("amplitude", 0), ("schedules", 2.5),
                            ("schedules", True))},
    # A NaN or infinite hop latency priced every message at NaN.
    **{f"torus-alpha_hop-{value}": (lambda value=value: Torus3D(
        (2, 2, 2), HockneyParams(1e-6, 1e-9), alpha_hop=value), "alpha_hop")
       for value in (math.nan, math.inf)},
    **{f"switched-switch_hop_alpha-{value}": (lambda value=value: SwitchedCluster(
        4, 2, HockneyParams(1e-6, 1e-9), switch_hop_alpha=value),
        "switch_hop_alpha")
       for value in (math.nan, math.inf)},
    # Figure 10's model reported an optimal G from NaN or negative
    # parameters.
    "exascale-alpha-nan": (lambda: exascale_prediction(
        ExascaleScenario(alpha=math.nan)), "alpha"),
    "exascale-beta-negative": (lambda: exascale_prediction(
        ExascaleScenario(beta=-1.0)), "beta"),
    "optimal-G-alpha-nan": (lambda: optimal_group_count(
        1024, 16, 64, math.nan, 1e-9), "alpha"),
    # A negative price drove the search to a negative cost.
    "optimal-G-alpha-negative": (lambda: optimal_group_count(
        1024, 16, 64, -1e-6, 1e-9), "alpha"),
    "optimal-G-beta-zero": (lambda: optimal_group_count(
        1024, 16, 64, 1e-6, 0.0), "beta"),
    # Every comparison with a NaN bound is false, so the order checks
    # passed it.
}


@pytest.mark.parametrize("build, field", NON_FINITE.values(),
                         ids=list(NON_FINITE))
def test_a_non_finite_input_is_refused_by_name(build, field):
    with pytest.raises(ConfigurationError, match=field):
        build()


def test_a_window_may_stay_open_at_its_end():
    assert parse_fault_spec("drop(p=0.5,t1=inf)").drops[0].t1 == math.inf
