"""One driver per paper figure (Section V).

Each driver returns a :class:`~repro.experiments.harness.Series` with
the same x axis and curves as the paper's plot; the benchmarks print
them.  Paper defaults are baked in, but every parameter can be
overridden (the test suite runs scaled-down variants).

==========  ============================================================
``fig5``    Grid5000, p=128, n=8192, b=B=64: comm time vs group count
``fig6``    same with b=B=512 (the largest block)
``fig7``    Grid5000 scalability: p in {16,32,64,128}, b=B=512
``fig8``    BG/P, p=16384, n=65536, b=B=256: overall + comm time vs G
``fig9``    BG/P scalability: p in {2048..16384}, comm time
``fig10``   exascale prediction, p=2^20: model time vs G
==========  ============================================================
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Mapping, Sequence

from repro.core.grouping import valid_group_counts
from repro.core.launch import family, launch, live, Shape
from repro.errors import ConfigurationError
from repro.experiments.harness import Series
from repro.experiments.parallel import SweepCache, parallel_map
from repro.experiments.stepmodel import hsumma_step_model, summa_step_model
from repro.models.exascale import ExascaleScenario, exascale_prediction
from repro.network.model import Network
from repro.payloads import PhantomArray
from repro.platforms.base import Platform
from repro.platforms.bluegene import bluegene_p
from repro.platforms.exa import exascale_2012
from repro.platforms.grid5000 import grid5000_graphene
from repro.simulator.costers import (
    AnalyticCoster,
    CollectiveCoster,
    MicroDesCoster,
    TopologyCoster,
)
from repro.simulator.predictor import refuse_pipelined
from repro.util.gridmath import factor_grid


# -- sweep points -------------------------------------------------------------
#
# One sweep point = one (platform, p, n, block, G) evaluation; G=None is
# the SUMMA reference.  Points are described by JSON specs so they can
# cross a process boundary and double as cache keys (see
# repro.experiments.parallel).  Worker processes rebuild the platform
# from its registered factory; the spec embeds the platform signature
# (Hockney parameters, gamma, collective options), so any preset change
# invalidates cached entries and _portable() refuses to ship customised
# platform objects to workers that would rebuild the stock one.

_PLATFORM_FACTORIES = {
    "grid5000-graphene": grid5000_graphene,
    "bluegene-p": bluegene_p,
    "exascale-2012": exascale_2012,
}


def _platform_sig(platform: Platform) -> dict[str, Any]:
    return {
        "alpha": platform.params.alpha,
        "beta": platform.params.beta,
        "gamma": platform.gamma,
        "options": dataclasses.asdict(platform.options),
    }


def _portable(platform: Platform) -> bool:
    """True when worker processes can rebuild ``platform`` faithfully
    from its name alone."""
    factory = _PLATFORM_FACTORIES.get(platform.name)
    if factory is None:
        return False
    return _platform_sig(factory(platform.nranks)) == _platform_sig(platform)


def _point_spec(platform: Platform, p: int, n: int, block: int,
                kind: str, G: int | None) -> dict[str, Any]:
    return {
        "kind": kind,
        "platform": platform.name,
        "sig": _platform_sig(platform),
        "p": p,
        "n": n,
        "block": block,
        "G": G,
        "faults": None,  # reserved: sweeps are healthy-run today
    }


@dataclasses.dataclass
class _Sweep:
    """What the points of one :func:`group_sweep` call share.

    The platform's network for ``p`` ranks and the coster are built
    once, on first use, and every point of the call is priced on them,
    so a placement class the coster simulated for one group count is a
    memo hit at the next.  The object dies with the call: a cold sweep
    pays for each class once and nothing is remembered between sweeps.
    Pickling sends the platform's registered name only (platform
    objects hold closures), so a task in a worker process builds its
    own network and coster.
    """

    platform: Platform
    p: int
    kind: str

    def __reduce__(self):
        return _worker_sweep, (self.platform.name, self.p, self.kind)

    @functools.cached_property
    def network(self) -> Network:
        return self.platform.network(self.p)

    @functools.cached_property
    def coster(self) -> CollectiveCoster:
        algo = self.platform.options.bcast
        if self.kind in ("analytic", "predictor"):
            # The predictor composes the analytic closed forms per
            # phase (topology-blind — the platform's Hockney parameters
            # price every communicator).  See docs/cost_model.md for
            # the fidelity contract versus the macro backend.
            return AnalyticCoster(self.platform.params, algo)
        if self.kind == "micro":
            return MicroDesCoster(self.network, algo)
        if self.kind == "topology":
            return TopologyCoster(self.network, algo)
        raise ConfigurationError(
            f"unknown coster kind {self.kind!r}; use analytic, micro, "
            "topology or predictor"
        )

    def point(self, spec: Mapping[str, Any]) -> dict[str, float]:
        """Evaluate one sweep point."""
        n, block, G = spec["n"], spec["block"], spec["G"]
        platform = self.platform
        row = family("summa" if G is None else "hsumma")
        _, cfg = row.configure(
            n, n, n, Shape(nprocs=self.p, block=block, groups=G))
        if self.kind == "des":
            _, sim = launch(
                row, cfg, PhantomArray((n, n)), PhantomArray((n, n)),
                network=self.network, options=platform.options,
                gamma=platform.gamma,
            )
        elif self.kind == "predictor":
            refuse_pipelined(row, cfg, platform.options)
            sim = live(row.predict)(
                cfg, network=self.network, options=platform.options,
                gamma=platform.gamma, coster=self.coster,
            )
        else:
            step_model = summa_step_model if G is None else hsumma_step_model
            sim = step_model(cfg, self.coster, platform.gamma)
        return {"comm": sim.comm_time, "total": sim.total_time}


def _worker_sweep(name: str, p: int, kind: str) -> _Sweep:
    """Unpickling entry point: rebuild the platform by name."""
    return _Sweep(_PLATFORM_FACTORIES[name](p), p, kind)


def group_sweep(
    platform: Platform,
    p: int,
    n: int,
    block: int,
    *,
    groups: Sequence[int] | None = None,
    coster_kind: str = "micro",
    name: str = "sweep",
    jobs: int = 1,
    cache: SweepCache | None = None,
) -> Series:
    """Comm/total time of HSUMMA per group count, with the SUMMA
    reference — the common core of figures 5, 6, 8 and 10.

    ``coster_kind="des"`` bypasses the step model entirely and runs the
    full event simulation per configuration (phantom payloads) —
    exact, but only sensible for small ``p``.

    Points are independent: ``jobs > 1`` fans them across worker
    processes and ``cache`` reuses previously computed points from
    disk.  Both are transparent — the Series is identical for every
    ``jobs`` value and cache state (results merge in input order, and
    cache keys hash every parameter that can influence a point).
    Platforms not rebuildable from their registered name are computed
    in-process and uncached.
    """
    s, t = factor_grid(p)
    if groups is None:
        groups = valid_group_counts(s, t)

    specs = [_point_spec(platform, p, n, block, coster_kind, G)
             for G in (None, *groups)]
    sweep = _Sweep(platform, p, coster_kind)
    if _portable(platform):
        points = parallel_map(sweep.point, specs, jobs=jobs, cache=cache)
    else:
        points = [sweep.point(spec) for spec in specs]

    sref, hs = points[0], points[1:]
    meta: dict[str, Any] = {"platform": platform.name, "p": p, "n": n,
                            "b": block}
    if coster_kind == "des":
        meta["fidelity"] = "des"
    return Series(
        name=name,
        xlabel="groups",
        x=list(groups),
        columns={
            "hsumma_comm": [pt["comm"] for pt in hs],
            "summa_comm": [sref["comm"]] * len(groups),
            "hsumma_total": [pt["total"] for pt in hs],
            "summa_total": [sref["total"]] * len(groups),
        },
        meta=meta,
    )


def _paper_groups(p: int) -> list[int]:
    """The group counts valid on ``p``'s grid that are powers of two,
    as in the paper's BlueGene/P plots."""
    s, t = factor_grid(p)
    return [g for g in valid_group_counts(s, t) if (g & (g - 1)) == 0]


def _per_p_sweeps(platform: str, procs: Sequence[int], n: int, block: int,
                  groups_of: Callable[[int], Sequence[int]] | None = None,
                  **sweep: Any) -> list[Series]:
    """One :func:`group_sweep` per processor count on the named
    platform, over ``groups_of(p)`` (default: every valid group
    count)."""
    factory = _PLATFORM_FACTORIES[platform]
    return [group_sweep(factory(p), p, n, block,
                        groups=groups_of(p) if groups_of else None, **sweep)
            for p in procs]


def _scaling(name: str, platform: str, procs: Sequence[int], n: int,
             block: int, groups_of: Callable[[int], Sequence[int]] | None = None,
             **sweep: Any) -> Series:
    """Comm time vs processor count: HSUMMA at its per-p best group
    count against SUMMA (figures 7 and 9)."""
    hs, su, best_g = [], [], []
    for per_p in _per_p_sweeps(platform, procs, n, block, groups_of,
                               name=f"{name}-inner", **sweep):
        g, t = per_p.min_of("hsumma_comm")
        hs.append(t)
        su.append(per_p.column("summa_comm")[0])
        best_g.append(g)
    return Series(
        name=name,
        xlabel="procs",
        x=list(procs),
        columns={"hsumma_comm": hs, "summa_comm": su, "best_groups": best_g},
        meta={"platform": platform, "n": n, "b": block},
    )


def fig5(
    p: int = 128,
    n: int = 8192,
    block: int = 64,
    *,
    coster_kind: str = "micro",
    jobs: int = 1,
    cache: SweepCache | None = None,
) -> Series:
    """Figure 5: HSUMMA vs SUMMA comm time on Grid5000, b = B = 64."""
    return group_sweep(
        grid5000_graphene(p), p, n, block,
        coster_kind=coster_kind, name="fig5", jobs=jobs, cache=cache,
    )


def fig6(
    p: int = 128,
    n: int = 8192,
    block: int = 512,
    *,
    coster_kind: str = "micro",
    jobs: int = 1,
    cache: SweepCache | None = None,
) -> Series:
    """Figure 6: same sweep with the largest block, b = B = 512."""
    return group_sweep(
        grid5000_graphene(p), p, n, block,
        coster_kind=coster_kind, name="fig6", jobs=jobs, cache=cache,
    )


def fig7(
    procs: Sequence[int] = (16, 32, 64, 128),
    n: int = 8192,
    block: int = 512,
    *,
    coster_kind: str = "micro",
    jobs: int = 1,
    cache: SweepCache | None = None,
) -> Series:
    """Figure 7: Grid5000 scalability — comm time vs processor count,
    HSUMMA at its per-p best group count."""
    return _scaling("fig7", "grid5000-graphene", procs, n, block,
                    coster_kind=coster_kind, jobs=jobs, cache=cache)


def fig8(
    p: int = 16384,
    n: int = 65536,
    block: int = 256,
    *,
    groups: Sequence[int] | None = None,
    coster_kind: str = "topology",
    jobs: int = 1,
    cache: SweepCache | None = None,
) -> Series:
    """Figure 8: BlueGene/P 16384 cores — overall and comm time vs G."""
    if groups is None:
        groups = _paper_groups(p)
    return group_sweep(
        bluegene_p(p), p, n, block,
        groups=groups, coster_kind=coster_kind, name="fig8",
        jobs=jobs, cache=cache,
    )


def fig9(
    procs: Sequence[int] = (2048, 4096, 8192, 16384),
    n: int = 65536,
    block: int = 256,
    *,
    coster_kind: str = "topology",
    jobs: int = 1,
    cache: SweepCache | None = None,
) -> Series:
    """Figure 9: BlueGene/P scalability — comm time vs core count,
    HSUMMA at its per-p best group count."""
    return _scaling("fig9", "bluegene-p", procs, n, block, _paper_groups,
                    coster_kind=coster_kind, jobs=jobs, cache=cache)


def fig10(
    scenario: ExascaleScenario | None = None,
    groups: Sequence[int] | None = None,
    *,
    jobs: int = 1,
    cache: SweepCache | None = None,
) -> Series:
    """Figure 10: exascale prediction — model time vs G, p = 2^20.

    ``jobs``/``cache`` are accepted for driver uniformity but unused:
    the prediction is a closed-form model evaluated in microseconds,
    so there is nothing worth fanning out or caching."""
    del jobs, cache
    sc = scenario or ExascaleScenario()
    pred = exascale_prediction(sc, list(groups) if groups else None)
    gs = pred["groups"]
    return Series(
        name="fig10",
        xlabel="groups",
        x=list(gs),
        columns={
            "hsumma_comm": list(pred["hsumma"]),
            "summa_comm": [pred["summa"]] * len(gs),
        },
        meta={
            "platform": "exascale-2012",
            "p": sc.p,
            "n": sc.n,
            "b": sc.b,
            "optimal_G": pred["optimal_G"],
        },
    )


def headline_ratios(
    procs: Sequence[int] = (2048, 16384),
    n: int = 65536,
    block: int = 256,
    *,
    coster_kind: str = "topology",
    jobs: int = 1,
    cache: SweepCache | None = None,
) -> dict[int, dict[str, float]]:
    """The paper's headline claims: comm-time and overall-time ratios of
    SUMMA over best-G HSUMMA on BG/P (2.08x / 5.89x comm, 1.2x / 2.36x
    overall on 2048 / 16384 cores)."""
    out: dict[int, dict[str, float]] = {}
    for p, sweep in zip(procs, _per_p_sweeps(
            "bluegene-p", procs, n, block, _paper_groups,
            coster_kind=coster_kind, name="headline", jobs=jobs,
            cache=cache)):
        g_c, hs_comm = sweep.min_of("hsumma_comm")
        _, hs_total = sweep.min_of("hsumma_total")
        out[p] = {
            "comm_ratio": sweep.column("summa_comm")[0] / hs_comm,
            "total_ratio": sweep.column("summa_total")[0] / hs_total,
            "best_groups": g_c,
            "summa_comm": sweep.column("summa_comm")[0],
            "hsumma_comm": hs_comm,
            "summa_total": sweep.column("summa_total")[0],
            "hsumma_total": hs_total,
        }
    return out
