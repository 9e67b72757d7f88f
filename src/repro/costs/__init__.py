"""``repro.costs`` — the unified cost registry.

One package owns every SUMMA/HSUMMA/broadcast closed form:

* :mod:`repro.costs.registry` — per-collective costs.  The
  :class:`CostQuery` → :class:`CostEstimate` interface, the broadcast
  ``L/W`` factor table (discrete *and* smooth flavours of each
  algorithm), and the non-broadcast collective forms.
* :mod:`repro.costs.closed_forms` — per-algorithm costs: the paper's
  equations (2)-(12) plus the 2.5D replication form.
* :mod:`repro.costs.lower_bounds` — the memory-independent and
  memory-dependent communication lower bounds every plan is measured
  against.

``repro.models`` and (through the costers)
``repro.simulator.predictor`` are thin consumers of this package.
"""

from repro.costs.closed_forms import (
    algo25d_communication_cost,
    critical_ratio,
    crossover_processor_count,
    hsumma_bandwidth_factor,
    hsumma_beats_summa,
    hsumma_communication_cost,
    hsumma_latency_factor,
    hsumma_optimal_vdg_cost,
    predicted_extremum_kind,
    summa_bandwidth_factor,
    summa_communication_cost,
    summa_computation_cost,
    summa_latency_factor,
    vdg_cost_derivative,
)
from repro.costs.lower_bounds import (
    LowerBound,
    bandwidth_lower_bound_elements,
    latency_lower_bound_terms,
    lower_bound_time,
    memory_dependent_bound_elements,
    memory_independent_bound_elements,
)
from repro.costs.registry import (
    BCAST_ENTRIES,
    BINOMIAL_MODEL,
    PIPELINED_BCASTS,
    SMOOTH_MODELS,
    VANDEGEIJN_MODEL,
    BcastEntry,
    BroadcastModel,
    CostEstimate,
    CostQuery,
    bcast_bandwidth_factor,
    bcast_entry,
    bcast_latency_factor,
    bcast_time,
    collective_time,
    estimate,
    PipelineDepthWarning,
    hypersystolic_depth,
    hypersystolic_stride,
    max_pipeline_segments,
    optimal_pipeline_segments,
    pipeline_slots,
    segmented_fill_slots,
)

__all__ = [
    "BCAST_ENTRIES",
    "BINOMIAL_MODEL",
    "PIPELINED_BCASTS",
    "SMOOTH_MODELS",
    "VANDEGEIJN_MODEL",
    "BcastEntry",
    "BroadcastModel",
    "CostEstimate",
    "CostQuery",
    "LowerBound",
    "algo25d_communication_cost",
    "bandwidth_lower_bound_elements",
    "bcast_bandwidth_factor",
    "bcast_entry",
    "bcast_latency_factor",
    "bcast_time",
    "collective_time",
    "critical_ratio",
    "crossover_processor_count",
    "estimate",
    "hsumma_bandwidth_factor",
    "hsumma_beats_summa",
    "hsumma_communication_cost",
    "hsumma_latency_factor",
    "hsumma_optimal_vdg_cost",
    "hypersystolic_depth",
    "hypersystolic_stride",
    "latency_lower_bound_terms",
    "lower_bound_time",
    "memory_dependent_bound_elements",
    "memory_independent_bound_elements",
    "PipelineDepthWarning",
    "max_pipeline_segments",
    "optimal_pipeline_segments",
    "pipeline_slots",
    "predicted_extremum_kind",
    "segmented_fill_slots",
    "summa_bandwidth_factor",
    "summa_communication_cost",
    "summa_computation_cost",
    "summa_latency_factor",
    "vdg_cost_derivative",
]
