"""Ablation: topology-aware grouping on the torus (the Figure-8 zigzags).

The paper attributes the zigzags of Figure 8 to the mapping of the
communication layout onto the torus, and reports that preliminary
observations suggest platform-aware grouping removes them.  We compare
three rank-to-node mappings on a BG/P-like torus at the same G:

* default block mapping (the paper's setting — rows wrap around torus),
* group-aligned mapping (each HSUMMA group contiguous in node space),
* adversarial shuffled mapping.

Criterion: group-aligned <= default <= shuffled for the HSUMMA comm
time at the optimal G.
"""

from conftest import run_once

from repro.core.grouping import choose_group_grid, group_aligned_mapping
from repro.core.hsumma import HSummaConfig
from repro.experiments.stepmodel import hsumma_step_model
from repro.network.mapping import shuffled_mapping
from repro.network.torus import Torus3D
from repro.platforms.bluegene import (
    BGP_PARAMS,
    RANKS_PER_NODE,
    bluegene_p,
    torus_dims_for,
)
from repro.simulator.costers import TopologyCoster
from repro.util.tables import format_table

P, N, B = 1024, 16384, 64
S = T = 32
G = 32  # near sqrt(p)


def run_mappings():
    I, J = choose_group_grid(S, T, G)
    cfg = HSummaConfig(m=N, l=N, n=N, s=S, t=T, I=I, J=J,
                       outer_block=B, inner_block=B)
    dims = torus_dims_for(P // RANKS_PER_NODE)
    mappings = {
        "default-block": None,
        "group-aligned": group_aligned_mapping(S, T, I, J, RANKS_PER_NODE),
        "shuffled": shuffled_mapping(P, RANKS_PER_NODE, seed=42),
    }
    out = {}
    for name, mapping in mappings.items():
        net = Torus3D(dims, BGP_PARAMS, ranks_per_node=RANKS_PER_NODE,
                      mapping=mapping)
        coster = TopologyCoster(net, "vandegeijn")
        out[name] = hsumma_step_model(cfg, coster).comm_time
    return out


def fig8_scale_smoothing():
    """The Figure-8 zigzag study at the paper's full 16384-core scale:
    sweep G with the default block mapping vs a per-G group-aligned
    mapping and compare the curves' raggedness."""
    from repro.platforms.bluegene import bluegene_p

    p, n, b = 16384, 65536, 256
    s = t = 128
    platform = bluegene_p(p)
    groups = [2**k for k in range(2, 13)]  # interior of the sweep
    dims = torus_dims_for(p // RANKS_PER_NODE)
    default_curve, aligned_curve = [], []
    for G in groups:
        I, J = choose_group_grid(s, t, G)
        cfg = HSummaConfig(m=n, l=n, n=n, s=s, t=t, I=I, J=J,
                           outer_block=b, inner_block=b)
        net_default = platform.network(p)
        coster = TopologyCoster(net_default, "vandegeijn")
        default_curve.append(hsumma_step_model(cfg, coster).comm_time)
        net_aligned = Torus3D(
            dims, BGP_PARAMS, ranks_per_node=RANKS_PER_NODE,
            mapping=group_aligned_mapping(s, t, I, J, RANKS_PER_NODE),
        )
        coster = TopologyCoster(net_aligned, "vandegeijn")
        aligned_curve.append(hsumma_step_model(cfg, coster).comm_time)
    return groups, default_curve, aligned_curve


def _raggedness(curve):
    """Total second-difference magnitude — zero for a smooth trend."""
    seconds = [curve[i + 1] - 2 * curve[i] + curve[i - 1]
               for i in range(1, len(curve) - 1)]
    return sum(abs(x) for x in seconds)


def test_fig8_scale_zigzag_smoothing(benchmark, record_output):
    groups, default_curve, aligned_curve = run_once(
        benchmark, fig8_scale_smoothing
    )
    rows = [
        [g, d, a] for g, d, a in zip(groups, default_curve, aligned_curve)
    ]
    rag_d = _raggedness(default_curve)
    rag_a = _raggedness(aligned_curve)
    text = format_table(
        ["G", "default mapping comm_s", "group-aligned comm_s"],
        rows,
        title=(
            "Ablation — zigzag smoothing at Figure-8 scale "
            "(p=16384, n=65536, b=B=256)"
        ),
    ) + (
        f"\n\nraggedness (sum |second differences|): "
        f"default {rag_d:.4f}, aligned {rag_a:.4f}"
    )
    record_output("ablation_mapping_fig8", text)

    # The aligned curve is at least as smooth (the paper's conjecture
    # that platform-aware grouping tames the zigzags)...
    assert rag_a <= rag_d * (1 + 1e-9)
    # ...never costs more than a small margin anywhere (aligning groups
    # trades a little inter-group locality for intra-group locality —
    # nearly free; improvements can be large)...
    for d, a in zip(default_curve, aligned_curve):
        assert a <= d * 1.03
    # ...and wins clearly where the default is most ragged (large G:
    # many small groups scattered across the torus).
    assert aligned_curve[-1] < default_curve[-1] * 0.95


def test_topology_aware_grouping(benchmark, record_output):
    times = run_once(benchmark, run_mappings)
    text = format_table(
        ["mapping", "hsumma_comm_s"],
        [[k, v] for k, v in times.items()],
        title=(
            f"Ablation — rank mapping on the torus (p={P}, G={G}, "
            f"n={N}, b=B={B})"
        ),
    )
    record_output("ablation_mapping", text)

    assert times["group-aligned"] <= times["default-block"] * (1 + 1e-9)
    assert times["default-block"] <= times["shuffled"] * (1 + 1e-9)
    # Aligning groups buys a real improvement over the adversary.
    assert times["group-aligned"] < times["shuffled"]
