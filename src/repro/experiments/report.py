"""Reproduction scorecard: quick end-to-end verification of the paper's
claims at reduced scale.

``build_scorecard`` runs a scaled-down version of every headline check
(seconds, not minutes) and returns structured pass/fail results;
``hsumma report`` prints them.  This gives a newcomer a one-command
answer to "does this reproduction actually hold?" without running the
full benchmark suite.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np


@dataclasses.dataclass(frozen=True)
class CheckResult:
    """One scorecard line."""

    name: str
    passed: bool
    detail: str


def _check(name: str, fn: Callable[[], tuple[bool, str]]) -> CheckResult:
    try:
        ok, detail = fn()
    except Exception as exc:  # pragma: no cover - defensive surface
        return CheckResult(name, False, f"crashed: {exc}")
    return CheckResult(name, ok, detail)


def build_scorecard() -> list[CheckResult]:
    """Run every quick check; ~10 seconds total."""
    from repro.core.api import multiply
    from repro.core.hsumma import run_hsumma
    from repro.core.summa import run_summa
    from repro.mpi.comm import CollectiveOptions
    from repro.costs import hsumma_beats_summa
    from repro.models.optimizer import optimal_group_count
    from repro.network.model import HockneyParams
    from repro.payloads import PhantomArray

    params = HockneyParams(alpha=1e-4, beta=1e-9)
    vdg = CollectiveOptions(bcast="vandegeijn")
    checks: list[CheckResult] = []

    def numerics():
        rng = np.random.default_rng(0)
        A = rng.standard_normal((48, 48))
        B = rng.standard_normal((48, 48))
        worst = 0.0
        for algo, kw in [("summa", dict(grid=(4, 4), block=4)),
                         ("hsumma", dict(grid=(4, 4), block=4, groups=4)),
                         ("cannon", dict(grid=(4, 4))),
                         ("3d", dict(nprocs=8))]:
            r = multiply(A, B, algorithm=algo, params=params, **kw)
            worst = max(worst, float(np.max(np.abs(r.C - A @ B))))
        return worst < 1e-9, f"max |C - AB| = {worst:.2e} over 4 algorithms"

    checks.append(_check("distributed numerics match numpy", numerics))

    def degeneration():
        n = 128
        A, B = PhantomArray((n, n)), PhantomArray((n, n))
        _, s = run_summa(A, B, grid=(4, 4), block=8, params=params,
                         options=vdg)
        diffs = []
        for G in (1, 16):
            _, h = run_hsumma(A, B, grid=(4, 4), groups=G, outer_block=8,
                              params=params, options=vdg)
            diffs.append(abs(h.total_time - s.total_time) / s.total_time)
        return max(diffs) < 1e-9, (
            f"HSUMMA(G=1)=HSUMMA(G=p)=SUMMA within {max(diffs):.1e}"
        )

    checks.append(_check("degeneration identity (G in {1, p})", degeneration))

    def interior_optimum():
        n = 512
        A, B = PhantomArray((n, n)), PhantomArray((n, n))
        times = {}
        for G in (1, 8, 64):
            _, h = run_hsumma(A, B, grid=(8, 8), groups=G, outer_block=16,
                              params=params, options=vdg)
            times[G] = h.comm_time
        ok = times[8] < times[1] and times[8] < times[64]
        return ok, (
            f"comm(G=8)={times[8]:.4f} < comm(G=1)={times[1]:.4f}, "
            f"comm(G=64)={times[64]:.4f}"
        )

    checks.append(_check("interior optimum near sqrt(p) under vdg",
                         interior_optimum))

    def threshold():
        verdicts = [
            hsumma_beats_summa(8192, 64, 128, 1e-4, 1e-9),
            hsumma_beats_summa(65536, 256, 16384, 3e-6, 1e-9),
            hsumma_beats_summa(2**22, 256, 2**20, 500e-9, 8e-11),
        ]
        return all(verdicts), (
            "Grid5000 / BG-P / exascale all pass alpha/beta > 2nb/p"
        )

    checks.append(_check("paper's threshold test on all platforms",
                         threshold))

    def exascale_opt():
        G, _ = optimal_group_count(2**22, 2**20, 256, 500e-9, 8e-11)
        return G == 1024, f"model optimum G={G} (sqrt(p)=1024)"

    checks.append(_check("exascale optimum at G = sqrt(p)", exascale_opt))

    def stepmodel_matches_des():
        from repro.core.summa import SummaConfig
        from repro.experiments.stepmodel import summa_step_model
        from repro.simulator.costers import AnalyticCoster

        n = 256
        cfg = SummaConfig(m=n, l=n, n=n, s=4, t=4, block=16)
        A, B = PhantomArray((n, n)), PhantomArray((n, n))
        _, sim = run_summa(A, B, grid=(4, 4), block=16, params=params,
                           options=vdg, gamma=1e-9)
        rep = summa_step_model(cfg, AnalyticCoster(params, "vandegeijn"),
                               1e-9)
        rel = abs(rep.total_time - sim.total_time) / sim.total_time
        return rel < 1e-9, f"step model vs full DES differ by {rel:.1e}"

    checks.append(_check("step model == event simulation", stepmodel_matches_des))

    def future_work():
        from repro.core.overlap import run_summa_overlap
        from repro.factorization import run_block_lu

        n = 256
        A, B = PhantomArray((n, n)), PhantomArray((n, n))
        _, plain = run_summa(A, B, grid=(4, 4), block=16, params=params,
                             gamma=5e-9)
        _, over = run_summa_overlap(A, B, grid=(4, 4), block=16,
                                    params=params, gamma=5e-9)
        _, _, lu_flat = run_block_lu(PhantomArray((512, 512)), grid=(4, 4),
                                     block=32, params=params, options=vdg)
        _, _, lu_hier = run_block_lu(PhantomArray((512, 512)), grid=(4, 4),
                                     block=32, groups=(2, 2), params=params,
                                     options=vdg)
        ok = over.total_time < plain.total_time and \
            lu_hier.comm_time < lu_flat.comm_time
        return ok, (
            f"overlap {plain.total_time:.4f}->{over.total_time:.4f}s; "
            f"HLU comm {lu_flat.comm_time:.4f}->{lu_hier.comm_time:.4f}s"
        )

    checks.append(_check("future work: overlap + hierarchical LU",
                         future_work))
    return checks


def render_scorecard(results: list[CheckResult]) -> str:
    """Human-readable scorecard text."""
    lines = ["HSUMMA reproduction scorecard", "=" * 48]
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"[{mark}] {r.name}")
        lines.append(f"       {r.detail}")
    npass = sum(r.passed for r in results)
    lines.append("-" * 48)
    lines.append(f"{npass}/{len(results)} checks passed")
    return "\n".join(lines)
