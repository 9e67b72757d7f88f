"""``repro.planner`` — the plan service.

Given a problem (n, p, dtype), a machine (named platform or explicit
Hockney parameters), and optional memory/fault constraints, return the
best algorithm and tuning parameters this repository can predict:
ranked by the unified cost registry's closed forms, refined by the
simulator's predictor backend, measured against the communication
lower bound, and cached by content hash.  See ``docs/planner.md``.
"""

from repro.planner.query import (
    DTYPE_ITEMSIZE,
    PLATFORM_NAMES,
    Plan,
    PlanQuery,
    ResolvedQuery,
)
from repro.planner.service import (
    PLAN_CACHE_SALT,
    REFINE_BACKENDS,
    PlanService,
    plan,
)
from repro.planner.space import (
    Candidate,
    candidate_blocks,
    candidate_grids,
    candidate_memory_elements,
    candidate_replications,
    closed_form_cost,
    enumerate_candidates,
)

__all__ = [
    "DTYPE_ITEMSIZE",
    "PLATFORM_NAMES",
    "PLAN_CACHE_SALT",
    "REFINE_BACKENDS",
    "Candidate",
    "Plan",
    "PlanQuery",
    "PlanService",
    "ResolvedQuery",
    "candidate_blocks",
    "candidate_grids",
    "candidate_memory_elements",
    "candidate_replications",
    "closed_form_cost",
    "enumerate_candidates",
    "plan",
]
