#!/usr/bin/env python
"""Find the optimal HSUMMA group count three ways and compare.

The paper proves the communication cost has an extremum at
``G = sqrt(p)`` and selects the best G by sampling; its conclusions
sketch an auto-tuner ("few iterations of HSUMMA").  This example runs:

1. the analytic optimizer (paper eqs. 9-12),
2. the empirical auto-tuner (truncated phantom runs),
3. an exhaustive full simulation sweep,

on a BlueGene/P-flavoured virtual platform, and prints all three
verdicts side by side.

Usage::

    python examples/optimal_groups.py
"""

from repro import PhantomArray
from repro.core.hsumma import run_hsumma
from repro.core.tuning import tune_group_count
from repro.core.grouping import valid_group_counts
from repro.costs import VANDEGEIJN_MODEL, critical_ratio, hsumma_beats_summa
from repro.models.optimizer import optimal_group_count
from repro.mpi.comm import CollectiveOptions
from repro.platforms.bluegene import BGP_PARAMS
from repro.util.gridmath import factor_grid


def main() -> None:
    n, p, block = 4096, 64, 16
    grid = factor_grid(p)
    opts = CollectiveOptions(bcast="vandegeijn")
    alpha, beta_elem = BGP_PARAMS.alpha, BGP_PARAMS.beta * 8

    print(f"Platform: BG/P Hockney parameters, p={p} (grid {grid[0]}x{grid[1]}), "
          f"n={n}, b=B={block}\n")

    # 1. The analytic threshold and optimizer.
    thr = critical_ratio(n, block, p)
    wins = hsumma_beats_summa(n, block, p, alpha, beta_elem)
    g_model, t_model = optimal_group_count(
        n, p, block, alpha, beta_elem, VANDEGEIJN_MODEL
    )
    print("1. analytic model (paper Section IV):")
    print(f"   alpha/beta = {alpha / beta_elem:.0f} vs 2nb/p = {thr:.0f} "
          f"-> interior minimum exists: {wins}")
    print(f"   optimal G = {g_model} (predicted comm {t_model:.4f} s)\n")

    # 2. The auto-tuner: a few truncated iterations per candidate.
    report = tune_group_count(
        n, grid, block, params=BGP_PARAMS, options=opts, metric="comm"
    )
    print("2. auto-tuner (sampled phantom runs, the paper's sketch):")
    for g in sorted(report.times):
        marker = "  <-- best" if g == report.best_groups else ""
        print(f"   G={g:4d}  {report.times[g]:.6f} s{marker}")
    print()

    # 3. Exhaustive full simulation.
    print("3. exhaustive full simulation sweep:")
    best_g, best_t = None, float("inf")
    for G in valid_group_counts(*grid):
        _, sim = run_hsumma(
            PhantomArray((n, n)), PhantomArray((n, n)),
            grid=grid, groups=G, outer_block=block,
            params=BGP_PARAMS, options=opts,
        )
        marker = ""
        if sim.comm_time < best_t:
            best_g, best_t = G, sim.comm_time
        print(f"   G={G:4d}  {sim.comm_time:.6f} s")
    print(f"   full-sweep best: G={best_g} at {best_t:.6f} s")

    print(f"\nverdicts: model G={g_model}, tuner G={report.best_groups}, "
          f"exhaustive G={best_g}")


if __name__ == "__main__":
    main()
