"""Enumeration order is behaviour: the closed-form ranking has exact
cross-family ties (24 at ``n=4096, p=256``), the sort is stable and
refinement keeps the earlier leader, so the candidates must come out in
the same order — grids outermost, SUMMA then HSUMMA per grid, 2.5D
last — and rank the same.  The digests were computed at the commit
before ``Candidate`` became "family + ``Shape``" (flat nine-field
dataclass, three per-family ranking forms)."""

import hashlib
import json

import pytest

from repro.planner import PlanQuery
from repro.planner.space import (
    candidate_memory_elements,
    closed_form_cost,
    enumerate_candidates,
)

#: query -> (candidates, candidates within budget, digest of the ordered
#: ``(algorithm, params)`` list, digest of the first 32 ranked with
#: their closed-form cost).
PINNED = [
    (dict(n=4096, p=256, platform="bluegene-p"),
     (1136, 1136,
      "8c279f26fca094e24a2e64be27f9fa8144d64c0cdce9b8416b2c54b70258219b",
      "e7e8531145938447374176941818f734ae3a6727de8c77df36f078bf955fab2f")),
    (dict(n=4096, p=256, platform="bluegene-p", memory_bytes=2.5 * 2**20),
     (1136, 934,
      "8c279f26fca094e24a2e64be27f9fa8144d64c0cdce9b8416b2c54b70258219b",
      "8da66136bb679fb7aec0025ddc55c9d1de4cd17ee928ad27da2e9d8f6d0ea071")),
]


def _digest(rows):
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("query,pinned", PINNED)
def test_enumeration_and_ranking_order_are_pinned(query, pinned):
    rq = PlanQuery(**query).resolve()
    cands = enumerate_candidates(rq)
    fits = [c for c in cands if rq.memory_elements is None
            or candidate_memory_elements(rq, c) <= rq.memory_elements]
    ranked = sorted(fits, key=lambda c: closed_form_cost(rq, c))[:32]
    assert (
        len(cands), len(fits),
        _digest([[c.algorithm, c.params()] for c in cands]),
        _digest([[c.algorithm, c.params(), closed_form_cost(rq, c).hex()]
                 for c in ranked]),
    ) == pinned
