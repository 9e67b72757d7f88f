"""Shared broadcast-conformance harness.

Every test that takes the ``bcast_algorithm`` fixture sweeps the full
registry (:data:`repro.collectives.COLLECTIVES` ``["bcast"]``): registering
a new broadcast algorithm automatically enrolls it in the conformance
suite in ``test_pipelined.py`` — payload bit-identity across comm
sizes/roots/dtypes/segment counts and backends, ``repro.verify``
cleanliness, closed-form/DES cost agreement — with no test edits.
"""

import numpy as np
import pytest

from repro.collectives import COLLECTIVES
from repro.network.model import HockneyParams
from repro.simulator import run_spmd

#: Hockney point shared by the conformance assertions.
CONFORMANCE_PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)

#: Algorithms whose DES makespan must equal the registry closed form
#: *exactly* on segment-divisible payloads.  ``binary``'s registry
#: entry (``2*floor(log2 p)`` rounds) deliberately over-estimates the
#: executable tree, and ``ft_binomial`` has no closed form at all
#: (both are asserted separately).
EXACT_COST = frozenset({
    "flat", "chain", "binomial", "vandegeijn",
    "pipelined", "segmented", "fourcolor", "hypersystolic",
})


class BcastHarness:
    """Builds and runs one-broadcast SPMD programs for conformance."""

    params = CONFORMANCE_PARAMS
    exact_cost = EXACT_COST

    @staticmethod
    def program(algorithm, root, payload_factory, segments=None):
        def prog(ctx):
            if segments is not None:
                ctx.options = ctx.options.replace(bcast_segments=segments)
            payload = payload_factory() if ctx.rank == root else None
            out = yield from ctx.world.bcast(payload, root=root,
                                             algorithm=algorithm)
            return out

        return prog

    @classmethod
    def run(cls, algorithm, size, *, root=0, payload_factory=None,
            segments=None, **kwargs):
        factory = payload_factory or (lambda: np.arange(64.0))
        prog = cls.program(algorithm, root, factory, segments=segments)
        kwargs.setdefault("params", cls.params)
        return run_spmd(prog, size, **kwargs)


@pytest.fixture(params=sorted(COLLECTIVES["bcast"].algorithms))
def bcast_algorithm(request):
    """Every registered broadcast algorithm, by registration alone."""
    return request.param


@pytest.fixture
def bcast_harness():
    return BcastHarness
