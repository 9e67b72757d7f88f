"""Analytic performance models (paper Section IV).

Everything here is closed-form: no simulation, valid for any ``p`` up
to (and past) the exascale prediction's ``2^20``.  Message sizes are in
*elements* (matrix entries) with ``beta`` the reciprocal bandwidth per
element, matching the paper's usage; multiply a per-byte ``beta`` by
the word size (8 for float64) to convert.
"""

from repro.costs import (
    BINOMIAL_MODEL,
    VANDEGEIJN_MODEL,
    BroadcastModel,
    critical_ratio,
    hsumma_beats_summa,
    hsumma_communication_cost,
    predicted_extremum_kind,
    summa_communication_cost,
    summa_computation_cost,
)
from repro.models.optimizer import optimal_group_count
from repro.models.exascale import exascale_prediction

__all__ = [
    "BroadcastModel",
    "BINOMIAL_MODEL",
    "VANDEGEIJN_MODEL",
    "summa_communication_cost",
    "summa_computation_cost",
    "hsumma_communication_cost",
    "critical_ratio",
    "hsumma_beats_summa",
    "optimal_group_count",
    "predicted_extremum_kind",
    "exascale_prediction",
]
