"""Ablation: does HSUMMA win under *every* broadcast algorithm?

Paper Section IV-C claims that, independent of the broadcast algorithm
employed, HSUMMA either outperforms SUMMA or matches it.  We sweep the
group count for each executable broadcast algorithm on the BG/P-like
parameter point and check ``min_G HSUMMA <= SUMMA`` for all of them,
plus the algorithm-specific structure (binomial: flat in G; linear-
latency algorithms: strong interior win).
"""

from conftest import run_once

from repro.core.grouping import choose_group_grid, valid_group_counts
from repro.core.hsumma import HSummaConfig
from repro.core.summa import SummaConfig
from repro.experiments.stepmodel import hsumma_step_model, summa_step_model
from repro.platforms.bluegene import BGP_PARAMS
from repro.simulator.costers import AnalyticCoster
from repro.util.tables import format_table

P, N, B = 1024, 16384, 64  # scaled-down BG/P point (32x32 grid)
S = T = 32
ALGORITHMS = ["binomial", "vandegeijn", "flat", "chain", "binary", "pipelined"]


def sweep():
    groups = [g for g in valid_group_counts(S, T) if g & (g - 1) == 0]
    out = {}
    for algo in ALGORITHMS:
        coster = AnalyticCoster(BGP_PARAMS, algo)
        scfg = SummaConfig(m=N, l=N, n=N, s=S, t=T, block=B)
        summa = summa_step_model(scfg, coster).comm_time
        hs = {}
        for G in groups:
            I, J = choose_group_grid(S, T, G)
            hcfg = HSummaConfig(m=N, l=N, n=N, s=S, t=T, I=I, J=J,
                                outer_block=B, inner_block=B)
            hs[G] = hsumma_step_model(hcfg, coster).comm_time
        out[algo] = (summa, hs)
    return out


def test_hsumma_wins_under_every_broadcast(benchmark, record_output):
    results = run_once(benchmark, sweep)
    rows = []
    for algo, (summa, hs) in results.items():
        # The smallest G within the assertions' tolerance of the
        # minimum: group counts tie to the last ulp on flat curves.
        best = min(hs.values())
        best_g = min(g for g in hs if hs[g] <= best * (1 + 1e-9))
        rows.append([algo, summa, hs[best_g], best_g, summa / hs[best_g]])
    text = format_table(
        ["broadcast", "summa_comm", "best_hsumma_comm", "best_G", "ratio"],
        rows,
        title=(
            f"Ablation — broadcast algorithm (p={P}, n={N}, b=B={B}, "
            "BG/P Hockney params)"
        ),
    )
    record_output("ablation_broadcast", text)

    for algo, (summa, hs) in results.items():
        best = min(hs.values())
        # Paper IV-C: never worse than SUMMA under any broadcast.
        assert best <= summa * (1 + 1e-9), algo
    # Binomial: flat in G (Table I).
    summa_b, hs_b = results["binomial"]
    assert max(hs_b.values()) - min(hs_b.values()) < 1e-9 * summa_b
    # Linear-latency algorithms benefit enormously from the hierarchy...
    for algo in ("flat", "chain"):
        summa_a, hs_a = results[algo]
        assert min(hs_a.values()) < summa_a * 0.5, algo
    # ...while vdg (log latency + near-optimal bandwidth) gains a
    # smaller but strict interior win (threshold 2048 < 3000 here).
    summa_v, hs_v = results["vandegeijn"]
    assert min(hs_v.values()) < summa_v * 0.95
