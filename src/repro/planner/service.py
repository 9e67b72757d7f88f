"""The plan service: rank candidates by closed form, refine the top-k
with each family's predictor chain, cache the winner.

Cold path per query: enumerate the space (:mod:`repro.planner.space`),
drop candidates over the memory budget, rank by the registry closed
forms, re-price the ``top_k`` leaders with the family's ``predict_*``
chain (``refine="predictor"``, the default; ``"none"`` trusts the
ranking), and report the winner with its gap to the communication
lower bound.

Hot path: an in-process memo keyed on the resolved numbers as a tuple
(:attr:`ResolvedQuery.key`, holding exact cache-flagged :class:`Plan`
objects) in front of an optional on-disk content-hash cache keyed on
the JSON spec (the sweep harness's
:class:`~repro.experiments.parallel.SweepCache`, under its own salt) —
so a repeated query costs one hash and one dict probe, and plans
survive across processes when a cache directory is given.
``PlanService.plan_many`` deduplicates equivalent queries (same key) before pricing.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterable

from repro.core.launch import family, live
from repro.costs import (
    PIPELINED_BCASTS,
    lower_bound_time,
    summa_computation_cost,
)
from repro.errors import ConfigurationError
from repro.experiments.parallel import _MISS, SweepCache
from repro.mpi.comm import CollectiveOptions
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.planner.query import Plan, PlanQuery, ResolvedQuery
from repro.planner.space import (
    ROW_FIELDS,
    Candidate,
    CandidateTable,
    candidate,
    closed_form_costs,
    enumerate_candidates,
    footprints,
)

#: Bump when the search space, ranking forms, or refinement change in a
#: way that invalidates stored plans.
PLAN_CACHE_SALT = "planner-5"  # planner-5: keyed on the fault profile
_PLAN_FN = "repro.planner.plan"

REFINE_BACKENDS = ("predictor", "none")

_S, _REPLICATION = ROW_FIELDS.index("s"), ROW_FIELDS.index("replication")


class PlanService:
    """Stateful planner: memoised, optionally disk-backed.

    Parameters
    ----------
    cache_dir:
        Directory for the on-disk plan cache; ``None`` keeps plans
        in-process only.
    top_k:
        How many ranking leaders the refinement backend re-prices.
    refine:
        ``"predictor"`` (default) or ``"none"``.
    """

    def __init__(self, *, cache_dir: str | None = None, top_k: int = 4,
                 refine: str = "predictor"):
        if refine not in REFINE_BACKENDS:
            raise ConfigurationError(
                f"unknown refinement backend {refine!r}; "
                f"choose from {REFINE_BACKENDS}"
            )
        if top_k < 1:
            raise ConfigurationError(f"top_k must be >= 1, got {top_k}")
        self.top_k = top_k
        self.refine = refine
        self._disk = (SweepCache(cache_dir, salt=PLAN_CACHE_SALT)
                      if cache_dir is not None else None)
        self._memo: dict[tuple[Any, ...], Plan] = {}
        self.stats = {"memo_hits": 0, "disk_hits": 0, "planned": 0,
                      "deduped": 0}

    # -- public API ---------------------------------------------------

    def plan(self, query: PlanQuery | ResolvedQuery) -> Plan:
        """The best plan for one query (cached)."""
        rq = query.resolve() if isinstance(query, PlanQuery) else query
        key = rq.key
        hit = self._memo.get(key)
        if hit is not None:
            self.stats["memo_hits"] += 1
            return hit
        spec = self._spec(rq)
        if self._disk is not None:
            stored = self._disk.lookup(_PLAN_FN, spec)
            if stored is not _MISS:
                self.stats["disk_hits"] += 1
                plan = Plan.from_dict(stored, from_cache=True)
                self._memo[key] = plan
                return plan
        plan = self._price(rq)
        self.stats["planned"] += 1
        if self._disk is not None:
            self._disk.store(_PLAN_FN, spec, plan.to_dict())
        # Memoise the cache-flagged variant so every later hit is a
        # plain dict lookup (no per-hit Plan rebuild).
        self._memo[key] = _as_cached(plan)
        return plan

    def plan_many(self, queries: Iterable[PlanQuery | ResolvedQuery]
                  ) -> list[Plan]:
        """Plans for a batch, pricing each distinct resolved query once
        (queries that resolve to the same numbers share one plan)."""
        resolved = [q.resolve() if isinstance(q, PlanQuery) else q
                    for q in queries]
        plans: dict[tuple[Any, ...], Plan] = {}
        out: list[Plan] = []
        for rq in resolved:
            key = rq.key
            if key in plans:
                self.stats["deduped"] += 1
                out.append(plans[key])
            else:
                plan = self.plan(rq)
                plans[key] = _as_cached(plan)
                out.append(plan)
        return out

    # -- internals ----------------------------------------------------

    def _spec(self, rq: ResolvedQuery) -> dict[str, Any]:
        spec = rq.canonical()
        spec["top_k"] = self.top_k
        spec["refine"] = self.refine
        return spec

    def _rank(self, rq: ResolvedQuery
              ) -> tuple[int, list[tuple[float, tuple[Any, ...]]]]:
        """The size of the query's whole space, and its table rows
        within the memory budget as ``(closed form, row)`` pairs,
        cheapest first.  Ties keep enumeration order (the sort is
        stable); no :class:`Candidate` is built."""
        table = enumerate_candidates(rq)
        total = len(table)
        if rq.memory_elements is not None:
            need = footprints(rq, table.rows)
            if min(need) > rq.memory_elements:
                raise ConfigurationError(
                    f"no candidate fits the {rq.memory_elements:.0f}-element "
                    f"per-rank memory budget (smallest footprint: "
                    f"{min(need):.0f} elements); raise memory_bytes or p"
                )
            table = CandidateTable([row for row, elements
                                    in zip(table.rows, need)
                                    if elements <= rq.memory_elements])
        priced = zip(closed_form_costs(rq, table), table.rows)
        return total, sorted(priced, key=itemgetter(0))

    def _price(self, rq: ResolvedQuery) -> Plan:
        total, ranked = self._rank(rq)
        # Every family's chain re-prices the ranking's top_k leaders on
        # equal footing.  The one eligibility wrinkle: a replicated
        # row's layer grid comes from p alone (q = sqrt(p/c)), so q may
        # not tile an n the 2-D grids tile fine — such rows feed the
        # closed-form advisory instead of competing.  Each row's closed
        # form is computed once, then reused by the sort, the advisory,
        # the plan and refine="none"; a Candidate is built only for the
        # rows refined.
        refinable = [(cost, row) for cost, row in ranked
                     if not row[_REPLICATION] or rq.n % row[_S] == 0]
        if not refinable:
            raise ConfigurationError(
                f"no refinable candidate for n={rq.n}, p={rq.p} "
                "(every configuration was filtered out)"
            )
        leaders = refinable[: self.top_k]
        # The best 2.5D row (the first in the ranking) is always refined
        # — even when it does not lead the ranking — so the plan's 2.5D
        # advisory reports predictor-fidelity times, not the ranking
        # closed form.
        adv = next((pc for pc in refinable if pc[1][_REPLICATION]), None)
        if adv is not None and adv not in leaders:
            leaders.append(adv)
        best: tuple[float, float, float, str, float, Candidate] | None = None
        adv_refined: tuple[float, float, float, str] | None = None
        flops = summa_computation_cost(rq.n, rq.p, rq.gamma)
        for cost, row in leaders:
            cand = candidate(row)
            refined = (self._refine(rq, cand) if self.refine == "predictor"
                       else (cost, cost - flops, flops, "closed-form"))
            if adv is not None and row is adv[1]:
                adv_refined = refined
            if best is None or refined[0] < best[0]:
                best = (*refined, cost, cand)
        assert best is not None  # leaders is non-empty
        predicted, comm, compute, backend, closed_form_time, cand = best
        advisory: dict[str, Any] = {}
        if adv_refined is not None and adv is not None:
            advisory["25d"] = {
                "replication": adv[1][_REPLICATION],
                "predicted_time": adv_refined[0],
                "comm_time": adv_refined[1],
                "compute_time": adv_refined[2],
                "backend": adv_refined[3],
                "closed_form_time": adv[0],
                "closed_form_only": False,
            }
        else:
            # Reached only when no replicated row is refinable.
            skipped = next((pc for pc in ranked if pc[1][_REPLICATION]),
                           None)
            if skipped is not None:
                cost, row = skipped
                advisory["25d"] = {
                    "replication": row[_REPLICATION],
                    "closed_form_time": cost,
                    # Flags the fallback for JSON consumers: this
                    # variant never entered the refined competition
                    # (its layer grid does not tile n).
                    "closed_form_only": True,
                }
        lb = lower_bound_time(rq.n, rq.p, rq.alpha, rq.beta_element,
                              rq.gamma, memory_elements=rq.memory_elements)
        gap = predicted / lb.seconds if lb.seconds > 0 else float("inf")
        params = cand.params()
        if rq.faulty:
            params["fault_profile"] = rq.faults
        return Plan(
            algorithm=cand.algorithm,
            params=params,
            predicted_time=predicted,
            comm_time=comm,
            compute_time=compute,
            closed_form_time=closed_form_time,
            backend=backend,
            lower_bound_time=lb.seconds,
            lower_bound_gap=gap,
            query=self._spec(rq),
            candidates=total,
            advisory=advisory,
        )

    def _refine(self, rq: ResolvedQuery, cand: Candidate
                ) -> tuple[float, float, float, str]:
        """(total, comm, compute, backend) for one candidate under
        ``refine="predictor"``.

        No rank program is built for any family: the row's
        ``predict_*`` chain at the candidate's pipeline depth yields the
        macro oracle's floats.  ``backend`` follows :class:`Plan`: the
        backend that replays the number.
        """
        st = live(family(cand.algorithm).predict)(
            _build_config(rq, cand),
            network=HomogeneousNetwork(rq.p, HockneyParams(rq.alpha, rq.beta)),
            options=CollectiveOptions(bcast_segments=cand.segments),
            gamma=rq.gamma, a_itemsize=rq.itemsize,
            b_itemsize=rq.itemsize).stats[0]
        pipelined = (cand.bcast in PIPELINED_BCASTS
                     or cand.outer_bcast in PIPELINED_BCASTS)
        return (st.clock, st.comm_time, st.compute_time,
                "macro" if pipelined else "predictor")


def _build_config(rq: ResolvedQuery, cand: Candidate):
    return family(cand.algorithm).configure(rq.n, rq.n, rq.n, cand)[1]


def _as_cached(plan: Plan) -> Plan:
    return plan if plan.from_cache else Plan.from_dict(
        plan.to_dict(), from_cache=True
    )


def plan(query: PlanQuery | ResolvedQuery) -> Plan:
    """One-shot convenience wrapper around :class:`PlanService`."""
    return PlanService().plan(query)
