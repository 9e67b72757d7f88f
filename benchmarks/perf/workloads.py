"""The six workloads: fixed operation lists over the repo's public API.

A workload is built once per subprocess (``build`` — the part
``setup_s`` times: platforms, networks, phantom inputs, the job stream,
the fault schedule) and then run as passes over its ``Op`` list.  Each
``Op`` names one call a user of the repo makes, the simulated outputs
that call must keep producing (``pin``) and how exactly they must match.

Sizes: the issue asked for 2-4 s passes; the benchmark contract caps a
whole run (set-up, warm-up and at least five timed passes) near 15 s,
so the full sizes below are cut to a pass of about 2 s.  What was cut
is noted per workload.  ``smoke`` sizes run every code path in
milliseconds and exist only for ``test_perf_smoke.py``.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Callable

import numpy as np

from repro.algorithms.algo25d import run_25d
from repro.algorithms.cannon import run_cannon
from repro.algorithms.dns3d import run_dns3d
from repro.cluster import JobSpec, serve
from repro.core.cyclic import run_cyclic
from repro.core.hsumma import HSummaConfig, run_hsumma
from repro.core.summa import run_summa
from repro.experiments.figures import fig6, fig8, fig10, group_sweep
from repro.experiments.stepmodel import AnalyticCoster, hsumma_step_model
from repro.experiments.tables import table1, table2
from repro.faults import parse_fault_spec
from repro.metrics import critical_path, phase_rollup
from repro.network.model import HockneyParams
from repro.network.torus import Torus3D
from repro.payloads import PhantomArray
from repro.planner import PlanQuery, PlanService
from repro.planner.space import candidate_replications
from repro.platforms import bluegene_p, exascale_2012, grid5000_graphene
from repro.simulator.runtime import DEFAULT_PARAMS

#: Predictor and plan times are pinned to this relative tolerance;
#: DES and macro numbers bit-for-bit (``rel=0``).
PLAN_REL = 1e-9


@dataclasses.dataclass
class Op:
    """One operation of a workload's fixed list."""

    name: str
    size: str                       # printed: the stated input size
    fn: Callable[[], Any]           # the call under test
    pin: Callable[[Any], Any]       # result -> JSON-able simulated outputs
    rel: float = 0.0                # 0 = bit-for-bit
    seeded: bool = False            # outputs depend on --seed: compared with
    #                                 the pins only at the seed they were
    #                                 generated with (expected.json "seed")
    check: Callable[[Any], str | None] | None = None  # extra correctness
    metric: str | None = None       # per-layer metric: this op's median time
    stats: Callable[[Any], dict[str, float]] | None = None  # read off result
    baseline: Callable[[], Any] | None = None  # same call, feature off
    ratio: str | None = None        # per-layer metric: fn time / baseline time


# -- simulated outputs --------------------------------------------------------

def sim_pin(result: Any) -> dict[str, Any]:
    """The pinned numbers of one ``(C, SimResult)`` run."""
    sim = result[1]
    out = {
        "total_time": sim.total_time,
        "comm_time": sim.comm_time,
        "compute_time": sim.compute_time,
        "messages": sim.total_messages,
        "bytes": sim.total_bytes,
    }
    if sim.collapse is not None:
        out["collapse"] = {k: sim.collapse.get(k)
                           for k in ("mode", "probed", "ranks")}
    if sim.trace:
        out["transfers"] = len(sim.trace)
    if sim.faulted:
        out["retries"] = sim.total_retries
    return out


def report_pin(rep: Any) -> dict[str, Any]:
    return {"total_time": rep.total_time, "comm_time": rep.comm_time,
            "compute_time": rep.compute_time, "nsteps": rep.nsteps}


def series_pin(series: Any) -> dict[str, Any]:
    return {"x": list(series.x),
            "columns": {k: list(v) for k, v in series.columns.items()}}


def plan_pin(plan: Any) -> dict[str, Any]:
    return {"algorithm": plan.algorithm, "params": plan.params,
            "backend": plan.backend, "candidates": plan.candidates,
            "predicted_time": plan.predicted_time,
            "lower_bound_gap": plan.lower_bound_gap}


def stream_pin(result: Any) -> dict[str, Any]:
    return result.report.to_dict()


# -- workloads ----------------------------------------------------------------

def _phantoms(n: int) -> tuple[PhantomArray, PhantomArray]:
    return PhantomArray((n, n)), PhantomArray((n, n))


def _plat_kwargs(plat: Any, p: int) -> dict[str, Any]:
    return {"network": plat.network(p), "options": plat.options,
            "gamma": plat.gamma}


def build_des_fast(seed: int, smoke: bool) -> list[Op]:
    """Fault-free, contention-free, untraced DES: the engine fast path.

    Cut from the issue's sizes: n=1024, not 2048 — operations of half a
    second calibrate better than operations of a second (see
    ``worker.calibrate``) — and in exchange HSUMMA also runs on the
    torus, at the issue's p=256.
    """
    n, p, grid, groups, b = (512, 16, (4, 4), 4, 64) if smoke else \
        (1024, 256, (16, 16), 16, 64)
    dn, dp, dgrid, dgroups, db = (64, 4, (2, 2), 2, 16) if smoke else \
        (256, 16, (4, 4), 4, 16)
    A, B = _phantoms(n)
    g5k = _plat_kwargs(grid5000_graphene(p), p)
    torus = _plat_kwargs(bluegene_p(p), p)
    rng = np.random.default_rng(seed)
    a, bm = rng.standard_normal((dn, dn)), rng.standard_normal((dn, dn))
    ref = a @ bm

    def data_check(result: Any) -> str | None:
        if not np.allclose(result[0], ref):
            return "data-mode C differs from A @ B"
        return None

    def data_stats(result: Any) -> dict[str, float]:
        return {"payloads.max_abs_err": float(np.abs(result[0] - ref).max())}

    def summa(plat: dict[str, Any]) -> Callable[[], Any]:
        return lambda: run_summa(A, B, grid=grid, block=b, **plat)

    def hsumma(plat: dict[str, Any]) -> Callable[[], Any]:
        return lambda: run_hsumma(A, B, grid=grid, groups=groups,
                                  outer_block=b, **plat)

    size = f"n={n} p={p} b={b}"
    return [
        Op("summa_g5k", size, summa(g5k), sim_pin,
           metric="core.summa_des_s"),
        Op("hsumma_g5k", f"{size} G={groups}", hsumma(g5k), sim_pin,
           metric="core.hsumma_des_s"),
        Op("summa_torus", size, summa(torus), sim_pin),
        Op("hsumma_torus", f"{size} G={groups}", hsumma(torus), sim_pin),
        # Virtual times do not depend on the matrix values, so the pin
        # holds at every seed; the numerics are checked by data_check.
        Op("hsumma_data", f"n={dn} p={dp} numpy",
           lambda: run_hsumma(a, bm, grid=dgrid, groups=dgroups,
                              outer_block=db, gamma=1e-9),
           sim_pin, check=data_check, metric="payloads.data_mode_s",
           stats=data_stats),
    ]


def build_des_general(seed: int, smoke: bool) -> list[Op]:
    """The same engine with each fast-path switch thrown: contention,
    tracing, faults, verification.

    Cut from the issue's sizes: the contended SUMMA runs at n=1024 and
    the faulty SUMMA at p=64, n=1024.
    """
    n, p, grid, groups, b = (512, 16, (4, 4), 4, 64) if smoke else \
        (2048, 128, (8, 16), 8, 64)
    fn_, fp, fgrid = (256, 16, (4, 4)) if smoke else (1024, 64, (8, 8))
    A, B = _phantoms(n)
    CA, CB = _phantoms(n // 2)
    FA, FB = _phantoms(fn_)
    torus = _plat_kwargs(bluegene_p(p), p)
    g5k = _plat_kwargs(grid5000_graphene(fp), fp)
    faults = parse_fault_spec("drop(p=0.02); slow(rank=3,factor=4)",
                              seed=seed)
    traced: dict[str, Any] = {}

    def hsumma_traced() -> Any:
        traced["sim"] = None
        result = run_hsumma(A, B, grid=grid, groups=groups, outer_block=b,
                            contention=True, trace=True, **torus)
        traced["sim"] = result[1]
        return result

    def rollup_pin(roll: Any) -> dict[str, Any]:
        return {"rank": roll.rank, "total": roll.total,
                "rows": [[r.name, r.seconds, r.spans, r.messages, r.bytes]
                         for r in roll.rows]}

    def path_pin(path: Any) -> dict[str, Any]:
        return {"makespan": path.makespan, "segments": len(path.segments),
                "transfer_time": path.transfer_time,
                "local_time": path.local_time}

    def verdict_check(result: Any) -> str | None:
        verdict = result[1].verdict
        if verdict is None or not verdict.ok:
            return f"verifier did not report a clean run: {verdict}"
        return None

    def plain() -> Any:
        return run_summa(FA, FB, grid=fgrid, block=b, **g5k)

    size = f"n={n} p={p} b={b}"
    fsize = f"n={fn_} p={fp} b={b}"
    return [
        Op("summa_torus_contention", f"n={n // 2} p={p} b={b}",
           lambda: run_summa(CA, CB, grid=grid, block=b, contention=True,
                             **torus), sim_pin),
        Op("hsumma_torus_traced", f"{size} G={groups}", hsumma_traced,
           sim_pin,
           stats=lambda r: {"tracing.transfer_records": len(r[1].trace)},
           baseline=lambda: run_hsumma(A, B, grid=grid, groups=groups,
                                       outer_block=b, contention=True,
                                       **torus),
           ratio="tracing.overhead_ratio"),
        Op("phase_rollup", "of hsumma_torus_traced",
           lambda: phase_rollup(traced["sim"]), rollup_pin,
           metric="metrics.phase_rollup_ms"),
        Op("critical_path", "of hsumma_torus_traced",
           lambda: critical_path(traced["sim"]), path_pin,
           metric="metrics.critical_path_ms"),
        Op("summa_g5k_faulty", f"{fsize} drop 2% + slow rank",
           lambda: run_summa(FA, FB, grid=fgrid, block=b, faults=faults,
                             **g5k), sim_pin, seeded=True,
           stats=lambda r: {"faults.retries": r[1].total_retries},
           baseline=plain, ratio="faults.overhead_ratio"),
        Op("summa_g5k_verified", fsize,
           lambda: run_summa(FA, FB, grid=fgrid, block=b, verify=True,
                             **g5k), sim_pin, check=verdict_check,
           baseline=plain, ratio="verify.overhead_ratio"),
    ]


def build_macro_scale(seed: int, smoke: bool) -> list[Op]:
    """Macro backend, symmetry collapse and predictor at scale.

    Cut from the issue's sizes: Cannon at q=64 (not 128) and the HSUMMA
    step model at p=1024 (not 4096); the p=16384 block-cyclic run — the
    "16384 ranks on a laptop" promise — is kept whole.
    """
    hp = HockneyParams(alpha=1e-4, beta=1e-9)
    macro = {"params": hp, "gamma": 1e-10, "backend": "macro"}
    if smoke:
        cyc_n, cyc_grid, nb = 2048, (8, 8), 256
        can_n, q = 1024, 8
        dns_n, dq = 256, 4
        hcfg = HSummaConfig(m=2048, l=2048, n=2048, s=8, t=8, I=2, J=2,
                            outer_block=256, inner_block=256)
        sweep_p, sweep_n, sweep_groups = 1 << 10, 1 << 14, [2, 4, 8]
    else:
        cyc_n, cyc_grid, nb = 32768, (128, 128), 256
        can_n, q = 16384, 64
        dns_n, dq = 26624, 26
        hcfg = HSummaConfig(m=16384, l=16384, n=16384, s=32, t=32, I=8, J=8,
                            outer_block=512, inner_block=512)
        sweep_p, sweep_n = 1 << 20, 1 << 22
        sweep_groups = [2 ** k for k in range(1, 11)]
    CA, CB = _phantoms(cyc_n)
    NA, NB = _phantoms(can_n)
    DA, DB = _phantoms(dns_n)
    SA, SB = _phantoms(sweep_n)
    exa = exascale_2012(sweep_p)
    coster = AnalyticCoster(hp, "vandegeijn")
    exa_hp = HockneyParams(alpha=1e-6, beta=1e-11)

    def sweep_25d() -> list[dict[str, Any]]:
        return [sim_pin(run_25d(SA, SB, nprocs=sweep_p, replication=c,
                                params=exa_hp, gamma=1e-12,
                                backend="predictor"))
                for c in candidate_replications(sweep_p)]

    p = cyc_grid[0] * cyc_grid[1]
    return [
        Op("cyclic_macro", f"n={cyc_n} p={p} nb={nb}",
           lambda: run_cyclic(CA, CB, grid=cyc_grid, nb=nb, **macro),
           sim_pin, metric="core.cyclic_macro_s"),
        Op("cannon_macro", f"n={can_n} q={q}",
           lambda: run_cannon(NA, NB, grid=(q, q), **macro), sim_pin,
           metric="algorithms.cannon_macro_s"),
        Op("dns3d_macro", f"n={dns_n} q={dq}",
           lambda: run_dns3d(DA, DB, nprocs=dq ** 3, **macro), sim_pin,
           metric="algorithms.dns3d_macro_s"),
        Op("hsumma_step_model",
           f"n={hcfg.n} p={hcfg.s * hcfg.t} {hcfg.I}x{hcfg.J} groups",
           lambda: hsumma_step_model(hcfg, coster, 1e-10), report_pin),
        Op("predictor_group_sweep",
           f"p={sweep_p} n={sweep_n} {len(sweep_groups)} group counts",
           lambda: group_sweep(exa, sweep_p, sweep_n, 256,
                               coster_kind="predictor",
                               groups=sweep_groups),
           series_pin, rel=PLAN_REL),
        Op("predictor_25d_sweep", f"p={sweep_p} n={sweep_n}", sweep_25d,
           lambda pins: pins, rel=PLAN_REL),
    ]


def build_figures(seed: int, smoke: bool) -> list[Op]:
    """The paper-reproduction drivers, ``jobs=1`` and no cache.

    Cut from the issue's sizes: fig8 at p=64, block=128.
    """
    if smoke:
        f6 = {"p": 16, "n": 1024, "block": 64}
        f8 = {"p": 16, "n": 512, "block": 32}
    else:
        f6 = {"p": 128, "n": 8192, "block": 512}
        f8 = {"p": 64, "n": 4096, "block": 128}

    def size(kw: dict[str, int]) -> str:
        return " ".join(f"{k}={v}" for k, v in kw.items())

    def fig8_stats(series: Any) -> dict[str, float]:
        best, comm = series.min_of("hsumma_comm")
        return {"experiments.fig8s_best_groups": float(best),
                "experiments.fig8s_comm_ratio":
                    series.column("summa_comm")[0] / comm,
                "experiments.points": float(len(series.x) + 1)}

    return [
        Op("fig6", size(f6) + " micro coster",
           lambda: fig6(jobs=1, cache=None, **f6), series_pin,
           metric="experiments.fig6_s",
           stats=lambda s: {"experiments.points": float(len(s.x) + 1)}),
        Op("fig8s", size(f8) + " topology coster",
           lambda: fig8(jobs=1, cache=None, **f8), series_pin,
           metric="experiments.fig8s_s", stats=fig8_stats),
        Op("fig10", "p=2^20 closed form", lambda: fig10(jobs=1, cache=None),
           series_pin, rel=PLAN_REL, metric="experiments.fig10_ms"),
        Op("tables", "table1 + table2 at paper defaults",
           lambda: [table1(), table2()], lambda text: text,
           metric="experiments.tables_ms"),
    ]


#: ``(n, p, platform, memory_bytes)`` — cold, one fresh service each.
#: Cut from the issue's list: (16384, 1024) and (8192, 1024, 4 MiB)
#: stand in for the two p=4096 queries, which cost 2-3 s apiece, and the
#: exascale query runs at p=512.
PLAN_QUERIES = (
    (4096, 1024, "bluegene-p", None),
    (16384, 1024, "bluegene-p", None),
    (4096, 256, "bluegene-p", None),
    (2048, 128, "grid5000-graphene", None),
    (8192, 512, "exascale-2012", None),
    (8192, 1024, "bluegene-p", 4 * 2 ** 20),
)
SMOKE_PLAN_QUERIES = (
    (1024, 64, "bluegene-p", None),
    (512, 16, "grid5000-graphene", None),
    (1024, 64, "bluegene-p", 2 ** 20),
)


def build_plan_cold(seed: int, smoke: bool) -> list[Op]:
    """Cold enumerate -> rank -> refine, then a hot tail on one service."""
    queries = [PlanQuery(n=n, p=p, platform=plat, memory_bytes=mem)
               for n, p, plat, mem in
               (SMOKE_PLAN_QUERIES if smoke else PLAN_QUERIES)]
    random.Random(seed).shuffle(queries)
    hot_n = 2_000 if smoke else 20_000
    service = PlanService()
    hot_query = min(queries, key=lambda q: q.n * q.p).resolve()
    service.plan(hot_query)

    def cold(query: PlanQuery) -> Op:
        mem = "" if query.memory_bytes is None else \
            f" mem={query.memory_bytes / 2 ** 20:g}MiB"
        size = f"n={query.n} p={query.p} {query.platform}{mem}"
        return Op("plan_" + size.replace(" ", "_").replace("=", ""), size,
                  lambda: PlanService().plan(query), plan_pin, rel=PLAN_REL)

    def hot() -> Any:
        plan = None
        for _ in range(hot_n):
            plan = service.plan(hot_query)
        return plan

    return [cold(q) for q in queries] + [
        Op("hot_plans", f"{hot_n} plan() calls on one warmed service", hot,
           plan_pin, rel=PLAN_REL)]


def build_serve_stream(seed: int, smoke: bool) -> list[Op]:
    """One Poisson job stream on a shared torus under three schedulers.

    Cut from the issue's sizes: 28 jobs, not 60.  The seed draws the
    arrival times and the order of the jobs; the multiset of job sizes
    is fixed (the issue's 5/4/3/2 weights, exactly), so that every seed
    asks for the same amount of work.
    """
    if smoke:
        dims, slot_grid = (2, 2, 4), (4, 4)
        sizes = [(256, 4)] * 4 + [(512, 16)] * 2
    else:
        dims, slot_grid = (4, 4, 8), (8, 16)
        sizes = ([(256, 4)] * 10 + [(512, 16)] * 8 + [(1024, 64)] * 6
                 + [(1536, 128)] * 4)
    rng = random.Random(seed)
    rng.shuffle(sizes)
    jobs, arrival = [], 0.0
    for jid, (n, p) in enumerate(sizes):
        arrival += rng.expovariate(2000.0)
        jobs.append(JobSpec(jid=jid, arrival=arrival, n=n, p=p))
    machine = Torus3D(dims, DEFAULT_PARAMS)

    def stream(scheduler: str) -> Op:
        return Op(f"serve_{scheduler}",
                  f"{len(jobs)} jobs on {slot_grid[0]}x{slot_grid[1]} slots",
                  lambda: serve(jobs, machine=machine, slot_grid=slot_grid,
                                scheduler=scheduler, gamma=1e-11,
                                max_retries=1),
                  stream_pin, seeded=True,
                  metric=f"cluster.{scheduler}_s",
                  stats=lambda r: {
                      "cluster.retries": float(r.report.retried_attempts),
                      "cluster.jobs": float(r.report.jobs)})

    return [stream(s) for s in ("fifo", "easy", "planner")]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, bool], list[Op]]


WORKLOADS = {w.name: w for w in (
    Workload("des_fast",
             "engine fast path, collective expansion and mpi do the work; "
             "planner, collapse and cluster do none",
             build_des_fast),
    Workload("des_general",
             "contention, tracing, faults and verify each switch the engine "
             "fast path off; observability overhead shows only here",
             build_des_general),
    Workload("macro_scale",
             "macro backend, symmetry collapse, predictor and O(p) program "
             "construction at p=16384; message machinery nearly idle",
             build_macro_scale),
    Workload("figures",
             "paper-figure drivers on the micro-DES and topology costers; "
             "planner and cluster idle",
             build_figures),
    Workload("plan_cold",
             "cold enumerate-rank-refine plans plus a hot cached tail; "
             "planner, costs and predictor are all the work",
             build_plan_cold),
    Workload("serve_stream",
             "many short contended jobs in one shared-link engine under "
             "three schedulers; placement, pick and SLO report carry it",
             build_serve_stream),
)}
