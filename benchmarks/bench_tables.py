"""Tables I and II plus the Section IV-C/V analytic-model validation.

Table I (binomial): HSUMMA's latency and bandwidth factors are the
*same* as SUMMA's for every G — the hierarchy is free but useless under
a log-everything broadcast.  Table II (Van de Geijn): at G = sqrt(p)
the latency factor collapses from ~2 sqrt(p) to ~4 p^(1/4) while the
bandwidth factor doubles — the trade the threshold test arbitrates.
"""

import math

from conftest import run_once

from repro.experiments.tables import (
    cost_table,
    table1,
    table2,
    validate_model,
)
from repro.costs import BINOMIAL_MODEL, VANDEGEIJN_MODEL
from repro.platforms import bluegene_p, exascale_2012, grid5000_graphene


def test_table1_binomial(benchmark, record_output):
    text = run_once(benchmark, table1)
    record_output("table1", text)
    rows = cost_table(65536, 16384, 256, BINOMIAL_MODEL, groups=[1, 128, 16384])
    summa = rows[0]
    for row in rows[1:]:
        assert row.latency_factor == summa.latency_factor
        assert row.bandwidth_factor == summa.bandwidth_factor


def test_table2_vandegeijn(benchmark, record_output):
    text = run_once(benchmark, table2)
    record_output("table2", text)
    n, p, b = 65536, 16384, 256
    rows = cost_table(n, p, b, VANDEGEIJN_MODEL, groups=[1, 128, 16384])
    # rows[0] is SUMMA; rows[1..3] are HSUMMA at G=1, 128, 16384.
    summa, g1, g_opt, gp = rows
    assert g1.latency_factor == summa.latency_factor
    assert gp.latency_factor == summa.latency_factor
    # The optimal row: latency collapses, bandwidth doubles (Table II).
    assert g_opt.latency_factor < summa.latency_factor / 4
    assert g_opt.bandwidth_factor > summa.bandwidth_factor
    assert g_opt.bandwidth_factor < 2.1 * summa.bandwidth_factor
    # Closed forms of the paper's Table II last row.
    assert g_opt.latency_factor == (
        math.log2(p) + 4 * (p**0.25 - 1)
    ) * n / b


def test_model_validation(benchmark, record_output):
    """Section IV-C / V: the threshold test on all three platforms."""

    def validate_all():
        checks = [
            (grid5000_graphene(), 8192, 128, 64),
            (bluegene_p(), 65536, 16384, 256),
            (exascale_2012(), 2**22, 2**20, 256),
        ]
        return [
            validate_model(p.name, n, pp, b, p.alpha, p.model_beta)
            for p, n, pp, b in checks
        ]

    reports = run_once(benchmark, validate_all)
    record_output(
        "model_validation", "\n".join(r.summary() for r in reports)
    )
    # The paper's conclusion on all three platforms: HSUMMA wins.
    assert all(r.hsumma_wins for r in reports)
    assert all(r.extremum == "minimum" for r in reports)
    # The quoted thresholds: 8192 (G5K), 2048 (BG/P), 2048 (exascale).
    assert reports[0].threshold == 8192
    assert reports[1].threshold == 2048
    assert reports[2].threshold == 2048
