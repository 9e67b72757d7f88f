"""The cost registry prices what the executable collectives run.

Every ``(op, algorithm)`` of :data:`repro.collectives.COLLECTIVES`
runs through the discrete-event engine (the micro-DES coster, on a
homogeneous network) at p = 2..17 and two message sizes, and its
makespan must sit within 1 % of :func:`repro.costs.collective_time`.
The remainder is Van de Geijn's uneven split.  Two rows are held to something else, by name:

* the segmented broadcast family is priced at the registry's optimal
  pipeline depth, not at the depth the executable picks;
* ``binary``'s row is a documented upper bound (two sends per tree
  level on the critical path; the last level is often half empty).

``ft_binomial`` has no closed form and must be refused by name.
"""

from __future__ import annotations

import pytest

from repro.collectives import COLLECTIVES
from repro.costs import collective_time
from repro.costs.registry import PIPELINED_BCASTS
from repro.errors import ModelError
from repro.simulator.costers import MicroDesCoster
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams

PARAMS = HockneyParams(alpha=1e-5, beta=1e-9)
SIZES = range(2, 18)
MESSAGES = (4 << 10, 1 << 20)
TOLERANCE = 0.01

UPPER_BOUNDS = frozenset({("bcast", "binary")})
NO_CLOSED_FORM = frozenset({("bcast", "ft_binomial")})

PAIRS = [
    (op, name)
    for op, row in COLLECTIVES.items()
    for name in row.algorithms
    if not (op == "bcast" and name in PIPELINED_BCASTS)
]


@pytest.mark.parametrize("op,algorithm", PAIRS,
                         ids=[f"{op}-{name}" for op, name in PAIRS])
def test_registry_prices_what_runs(op, algorithm):
    if (op, algorithm) in NO_CLOSED_FORM:
        with pytest.raises(ModelError, match=algorithm):
            collective_time(op, algorithm, MESSAGES[0], 4, PARAMS)
        return
    off = []
    for p in SIZES:
        coster = MicroDesCoster(HomogeneousNetwork(p, PARAMS))
        for m in MESSAGES:
            des = coster.collective_time(op, algorithm, range(p), 0, m)
            closed = collective_time(op, algorithm, m, p, PARAMS)
            if (op, algorithm) in UPPER_BOUNDS:
                agrees = des <= closed * (1 + 1e-12)
            else:
                agrees = abs(des - closed) <= TOLERANCE * closed
            if not agrees:
                off.append(f"p={p} m={m}: DES/registry = {des / closed:.3f}")
    assert not off, off
