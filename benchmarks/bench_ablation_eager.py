"""Ablation: eager vs rendezvous point-to-point protocol.

The paper's model implicitly assumes rendezvous (both endpoints busy
for ``alpha + m*beta``).  Real MPI sends small messages eagerly, which
decouples the sender from a late receiver.  We quantify the effect on
SUMMA's virtual times: with a large eager threshold, pivot owners
finish their tree sends without waiting for slow receivers, shrinking
the exposed communication time — but the *relative* SUMMA-vs-HSUMMA
comparison is protocol-independent (both shift together), supporting
the paper's choice to analyse under plain Hockney.
"""

import pytest
from conftest import run_once

from repro.core.hsumma import HSummaConfig, hsumma_program
from repro.core.launch import GridLayout
from repro.core.summa import SummaConfig, summa_program
from repro.mpi.comm import CollectiveOptions, MpiContext
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray
from repro.simulator.engine import Engine
from repro.util.tables import format_table

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)
VDG = CollectiveOptions(bcast="vandegeijn")
N, S, T, BLOCK, GROUPS = 512, 8, 8, 16, (4, 4)


def _run(program_factory, cfg, eager):
    tiles = GridLayout(S, T).deal(PhantomArray((N, N)), PhantomArray((N, N)))
    programs = [
        program_factory(
            MpiContext(r, S * T, options=VDG, gamma=2e-9), *tiles(r), cfg)
        for r in range(S * T)
    ]
    engine = Engine(
        HomogeneousNetwork(S * T, PARAMS),
        eager_threshold=(1 << 30) if eager else 0,
    )
    return engine.run(programs)


def run_variants():
    scfg = SummaConfig(m=N, l=N, n=N, s=S, t=T, block=BLOCK)
    hcfg = HSummaConfig(m=N, l=N, n=N, s=S, t=T, I=GROUPS[0], J=GROUPS[1],
                        outer_block=BLOCK, inner_block=BLOCK)
    out = {}
    for eager in (False, True):
        key = "eager" if eager else "rendezvous"
        out[f"summa/{key}"] = _run(summa_program, scfg, eager)
        out[f"hsumma/{key}"] = _run(hsumma_program, hcfg, eager)
    return out


def test_eager_protocol(benchmark, record_output):
    sims = run_once(benchmark, run_variants)
    rows = [[k, v.total_time, v.comm_time] for k, v in sims.items()]
    ratio_r = (sims["summa/rendezvous"].comm_time
               / sims["hsumma/rendezvous"].comm_time)
    ratio_e = sims["summa/eager"].comm_time / sims["hsumma/eager"].comm_time
    text = format_table(
        ["variant", "total_s", "comm_s"],
        rows,
        title=f"Ablation — eager vs rendezvous (p=64, n={N}, b=B={BLOCK})",
    ) + (
        f"\n\nSUMMA/HSUMMA comm ratio: rendezvous {ratio_r:.2f}x, "
        f"eager {ratio_e:.2f}x"
    )
    record_output("ablation_eager", text)

    # Eager never hurts in this no-contention setting.
    assert sims["summa/eager"].total_time <= (
        sims["summa/rendezvous"].total_time * 1.001
    )
    # The SUMMA-vs-HSUMMA verdict is protocol-independent (within 25%).
    assert ratio_e == pytest.approx(ratio_r, rel=0.25)