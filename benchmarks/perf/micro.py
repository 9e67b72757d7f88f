"""Per-layer microbenchmarks: direct timed calls into one layer each.

These do not depend on the workload; the traced run of every workload
repeats them so that a layer number always sits beside the end-to-end
numbers it is supposed to explain.  Each value is the median of
``REPEATS`` timings, taken from the benchmark's own files by calling
the layer's public functions.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import time
from typing import Any, Callable

from repro.core.cyclic import run_cyclic
from repro.core.hsumma import HSummaConfig
from repro.core.summa import SummaConfig, summa_program
from repro.costs import lower_bound_time
from repro.costs.registry import CostQuery, estimate
from repro.experiments.figures import group_sweep
from repro.mpi.cart import CartComm
from repro.mpi.comm import CollectiveOptions, make_contexts
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray
from repro.planner import PlanQuery, PlanService
from repro.planner.space import closed_form_cost, enumerate_candidates
from repro.platforms import bluegene_p, exascale_2012, grid5000_graphene
from repro.simulator.backends import MacroBackend
from repro.simulator.predictor import predict_hsumma
from repro.simulator.runtime import run_spmd

REPEATS = 3
HP = HockneyParams(alpha=1e-4, beta=1e-9)


def timed(fn: Callable[[], Any], repeats: int = REPEATS) -> tuple[float, Any]:
    """Median seconds of ``repeats`` calls, and the last result."""
    samples, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), result


def network(smoke: bool) -> dict[str, float]:
    """ns per direct ``transfer_time`` / ``links`` call (3 x 40 k calls;
    the issue's 200 k would take a fifth of a traced run)."""
    calls = 2_560 if smoke else 40_960
    p = 64
    homogeneous = HomogeneousNetwork(p, HP)
    switched = grid5000_graphene(p).network(p)
    torus = bluegene_p(p).network(p)

    def loop(method: Callable, *tail: Any) -> Callable[[], None]:
        pairs = [(i % p, (i * 7 + 1) % p) for i in range(256)]

        def run() -> None:
            for _ in range(calls // 256):
                for src, dst in pairs:
                    method(src, dst, *tail)
        return run

    out = {}
    for name, method, tail in (
        ("network.homogeneous_transfer_ns", homogeneous.transfer_time,
         (65536,)),
        ("network.switched_transfer_ns", switched.transfer_time, (65536,)),
        ("network.torus_transfer_ns", torus.transfer_time, (65536,)),
        ("network.torus_links_ns", torus.links, ()),
    ):
        seconds, _ = timed(loop(method, *tail))
        out[name] = seconds / (calls // 256 * 256) * 1e9
    return out


def engine(smoke: bool) -> dict[str, float]:
    """us per message of a raw Send/Recv ring, no collectives."""
    p, rounds = (16, 20) if smoke else (256, 50)
    token = PhantomArray((1024,), itemsize=1)

    def ring(ctx: Any):
        comm = ctx.world
        rank = comm.rank
        nxt, prv = (rank + 1) % p, (rank - 1) % p
        for _ in range(rounds):
            if rank % 2 == 0:
                yield from comm.send(token, nxt)
                yield from comm.recv(prv)
            else:
                yield from comm.recv(prv)
                yield from comm.send(token, nxt)

    out = {}
    for name, kwargs in (
        ("engine.p2p_us_per_msg", {}),
        ("engine.p2p_general_us_per_msg",
         {"contention": True, "collect_trace": True}),
    ):
        seconds, sim = timed(lambda: run_spmd(ring, p, params=HP, **kwargs))
        out[name] = seconds / sim.total_messages * 1e6
    return out


def mpi(smoke: bool) -> dict[str, float]:
    """us per rank to build contexts plus the cart, row and col splits."""
    out = {}
    for label, (s, t) in (("p1024", (8, 8) if smoke else (32, 32)),
                          ("p16384", (16, 16) if smoke else (128, 128))):
        def build() -> None:
            for ctx in make_contexts(s * t):
                CartComm(ctx.world, s, t)
        seconds, _ = timed(build)
        out[f"mpi.context_build_us_per_rank_{label}"] = \
            seconds / (s * t) * 1e6
    return out


def collectives(smoke: bool) -> dict[str, float]:
    """us per message of one 512 KiB broadcast at p=256."""
    p = 16 if smoke else 256
    payload = PhantomArray((512 * 1024,), itemsize=1)
    out = {}
    for algorithm in ("binomial", "vandegeijn", "segmented"):
        def program(ctx: Any):
            yield from ctx.world.bcast(payload if ctx.rank == 0 else None,
                                       root=0)
        options = CollectiveOptions(bcast=algorithm)
        seconds, sim = timed(
            lambda: run_spmd(program, p, params=HP, options=options))
        out[f"collectives.bcast_{algorithm}_us_per_msg"] = \
            seconds / sim.total_messages * 1e6
    return out


def core(smoke: bool) -> dict[str, float]:
    """us per rank to build (not run) the SUMMA rank programs."""
    s = t = 8 if smoke else 32
    n, block = 64 * s, 64
    cfg = SummaConfig(m=n, l=n, n=n, s=s, t=t, block=block)
    tile = PhantomArray((n // s, n // t))

    def build() -> list:
        return [summa_program(ctx, tile, tile, cfg)
                for ctx in make_contexts(s * t)]
    seconds, _ = timed(build)
    return {"core.program_build_us_per_rank": seconds / (s * t) * 1e6}


def macro(smoke: bool) -> dict[str, float]:
    """Per-rank versus collapsed macro execution, block-cyclic p=1024."""
    n, grid, nb = (2048, (8, 8), 256) if smoke else (8192, (32, 32), 256)
    p = grid[0] * grid[1]
    A, B = PhantomArray((n, n)), PhantomArray((n, n))
    network_ = HomogeneousNetwork(p, HP)
    collectives_per_rank = 2 * (n // nb)

    def per_rank() -> Any:
        # A prebuilt backend without a symmetry declaration runs every
        # rank; backend="macro" lets the runner declare the symmetry.
        return run_cyclic(A, B, grid=grid, nb=nb, gamma=1e-10,
                          backend=MacroBackend(network_))[1]

    def collapsed() -> Any:
        return run_cyclic(A, B, grid=grid, nb=nb, network=network_,
                          gamma=1e-10, backend="macro")[1]

    slow, _ = timed(per_rank, repeats=2)  # the slow side: 0.3 s a call
    fast, sim = timed(collapsed)
    probed = sim.collapse["probed"]
    return {
        "macro.per_rank_us_per_rank_collective":
            slow / (p * collectives_per_rank) * 1e6,
        "macro.collapsed_us_per_probe_collective":
            fast / (probed * collectives_per_rank) * 1e6,
        "collapse.speedup_p1024": slow / fast,
    }


def predictor(smoke: bool) -> dict[str, float]:
    p, n = (1 << 10, 1 << 14) if smoke else (1 << 20, 1 << 22)
    side = 1 << (p.bit_length() // 2)
    groups = side // 4
    cfg = HSummaConfig(m=n, l=n, n=n, s=side, t=p // side, I=groups,
                       J=groups, outer_block=256, inner_block=256)
    plat = exascale_2012(p)
    network_ = plat.network(p)
    chain, _ = timed(lambda: predict_hsumma(
        cfg, network=network_, options=plat.options, gamma=plat.gamma))
    sweep_groups = [2 ** k for k in range(1, 4 if smoke else 6)]
    sweep, _ = timed(lambda: group_sweep(
        plat, p, n, 256, coster_kind="predictor", groups=sweep_groups))
    return {"predictor.chain_us": chain * 1e6,
            "predictor.sweep_ms": sweep * 1e3}


def costs(smoke: bool) -> dict[str, float]:
    calls = 1_000 if smoke else 5_000
    rq = PlanQuery(n=4096, p=1024, platform="bluegene-p").resolve()
    cands = enumerate_candidates(rq)
    query = CostQuery(op="bcast", algorithm="vandegeijn", p=64,
                      nbytes=1 << 20, alpha=HP.alpha, beta=HP.beta)

    def loop(fn: Callable[[int], Any]) -> Callable[[], None]:
        def run() -> None:
            for i in range(calls):
                fn(i)
        return run

    out = {}
    for name, fn in (
        ("costs.estimate_us", lambda i: estimate(query)),
        ("costs.closed_form_us",
         lambda i: closed_form_cost(rq, cands[i % len(cands)])),
        ("costs.lower_bound_us",
         lambda i: lower_bound_time(rq.n, rq.p, rq.alpha, rq.beta_element,
                                    rq.gamma)),
    ):
        seconds, _ = timed(loop(fn))
        out[name] = seconds / calls * 1e6
    return out


def planner(smoke: bool, tmp_dir: Any) -> dict[str, float]:
    n, p = (1024, 64) if smoke else (4096, 1024)
    hot_calls = 1_000 if smoke else 10_000
    query = PlanQuery(n=n, p=p, platform="bluegene-p")
    rq = query.resolve()

    resolve_s, _ = timed(lambda: [query.resolve() for _ in range(200)])
    enumerate_s, cands = timed(lambda: enumerate_candidates(rq))
    rank_s, _ = timed(
        lambda: sorted(cands, key=lambda c: closed_form_cost(rq, c)))

    # refine="none" keeps the disk-hit probe cheap to warm: the entry's
    # content does not change what a hit costs.
    cache_dir = tmp_dir / "plan-cache"
    try:
        PlanService(cache_dir=str(cache_dir), refine="none").plan(rq)
        disk_s, _ = timed(lambda: PlanService(
            cache_dir=str(cache_dir), refine="none").plan(rq))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    service = PlanService(refine="none")
    service.plan(rq)

    def hot() -> None:
        for _ in range(hot_calls):
            service.plan(rq)
    hot_s, _ = timed(hot)
    return {
        "planner.resolve_us": resolve_s / 200 * 1e6,
        "planner.enumerate_ms": enumerate_s * 1e3,
        "planner.candidates": float(len(cands)),
        "planner.rank_ms": rank_s * 1e3,
        "planner.disk_hit_ms": disk_s * 1e3,
        "planner.hot_plan_us": hot_s / hot_calls * 1e6,
    }


def run_all(smoke: bool, tmp_dir: Any) -> dict[str, float]:
    out: dict[str, float] = {}
    for bench in (network, engine, mpi, collectives, core, macro, predictor,
                  costs):
        gc.collect()
        out.update(bench(smoke))
    gc.collect()
    out.update(planner(smoke, tmp_dir))
    return out
