"""Ablation: more than two hierarchy levels (paper future work).

The conclusions suggest >2 levels could perform even better.  With the
Van de Geijn broadcast the two-level optimum turns the 2 sqrt(p)
latency term into 4 p^(1/4); an h-level hierarchy gives 2h p^(1/2h),
minimised near h = ln(sqrt(p)).  We measure 1-, 2- and 3-level runs on
a latency-dominated platform point and check the predicted ordering.
"""

from conftest import run_once


from repro.core.hsumma import run_hsumma_multilevel
from repro.mpi.comm import CollectiveOptions
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray
from repro.util.tables import format_table

# Latency-dominated: alpha huge relative to message sizes.
PARAMS = HockneyParams(alpha=1e-3, beta=1e-10)
N = 1024
S = T = 16  # p = 256
BLOCK = 16
VDG = CollectiveOptions(bcast="vandegeijn")


def _run(row_factors, col_factors, blocks):
    A = PhantomArray((N, N))
    _, sim = run_hsumma_multilevel(
        A, A, grid=(S, T), row_factors=row_factors, col_factors=col_factors,
        blocks=blocks, bcast="vandegeijn", params=PARAMS, options=VDG)
    return sim.total_time


def sweep():
    return {
        "1 level (SUMMA)": _run((16,), (16,), (BLOCK,)),
        "2 levels (4x4 groups)": _run((4, 4), (4, 4), (BLOCK, BLOCK)),
        "3 levels (2x2x4)": _run((2, 2, 4), (2, 2, 4),
                                 (BLOCK, BLOCK, BLOCK)),
    }


def test_multilevel_hierarchy(benchmark, record_output):
    times = run_once(benchmark, sweep)
    text = format_table(
        ["hierarchy", "total_s"],
        [[k, v] for k, v in times.items()],
        title=(
            f"Ablation — hierarchy depth (p={S*T}, n={N}, b={BLOCK}, "
            "latency-dominated platform)"
        ),
    )
    record_output("ablation_multilevel", text)

    one = times["1 level (SUMMA)"]
    two = times["2 levels (4x4 groups)"]
    three = times["3 levels (2x2x4)"]
    # Two levels beat one (the paper's theorem), and on a latency-
    # dominated platform a third level helps again (the future-work
    # conjecture holds under this model).
    assert two < one
    assert three < two
