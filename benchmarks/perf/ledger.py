"""The metric ledger: every number the benchmark prints, with its unit.

``BENCHMARK.json`` at the repo root is ``manifest()`` written out; the
smoke test keeps the two equal, so a metric cannot be printed without
being declared.

Host quantities (seconds, MB, calls) are what this benchmark measures.
Simulated quantities (``experiments.fig8s_*``, ``faults.retries``,
``cluster.retries``, ``tracing.transfer_records``, ``engine.des_messages``,
the ``collapse.*`` rank counts) are exact counts read off the simulator's
results: they repeat bit-for-bit and must not move at all.
"""

from __future__ import annotations

from typing import Any

from workloads import WORKLOADS

COMMAND = ["python3", "benchmarks/perf/run.py"]
PATHS = ["benchmarks/perf"]
RUN_SECONDS = 10

#: (name, unit, better, regression bound as a share of the parent's
#: median).  The issue started from 0.10 / 0.20 / 0.05; ``wall_s`` and
#: ``setup_s`` are widened to three times the largest spread seen in two
#: sets of ten runs (README, "Measured spread").  ``failed_share`` is
#: the fourth end-to-end number the command prints; the contract carries
#: it as ``failed`` / ``attempted`` (a metric that is 0 on every healthy
#: run has no meaningful relative bound), and any increase fails the run.
END_TO_END = [
    ("wall_s", "s", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

#: Layers with a self-time line in the traced run, in stack order.
LAYERS = [
    "experiments", "cluster", "planner", "costs", "core", "algorithms",
    "verify", "metrics", "mpi", "simulator.predictor", "simulator.backends",
    "simulator.collapse", "simulator.engine", "network", "bench",
]

PER_LAYER: list[tuple[str, str, str]] = [
    # network
    ("network.homogeneous_transfer_ns", "ns", "lower"),
    ("network.switched_transfer_ns", "ns", "lower"),
    ("network.torus_transfer_ns", "ns", "lower"),
    ("network.torus_links_ns", "ns", "lower"),
    ("network.transfer_time_calls", "count", "lower"),
    ("network.links_calls", "count", "lower"),
    # simulator.engine
    ("engine.p2p_us_per_msg", "us", "lower"),
    ("engine.p2p_general_us_per_msg", "us", "lower"),
    ("engine.des_messages", "count", "lower"),
    ("engine.des_us_per_msg", "us", "lower"),
    ("engine.general_us_per_msg", "us", "lower"),
    ("engine.run_self_s", "s", "lower"),
    # mpi
    ("mpi.context_build_us_per_rank_p1024", "us", "lower"),
    ("mpi.context_build_us_per_rank_p16384", "us", "lower"),
    # collectives
    ("collectives.bcast_binomial_us_per_msg", "us", "lower"),
    ("collectives.bcast_vandegeijn_us_per_msg", "us", "lower"),
    ("collectives.bcast_segmented_us_per_msg", "us", "lower"),
    ("collectives.bcast_calls", "count", "lower"),
    # core and algorithms
    ("core.summa_des_s", "s", "lower"),
    ("core.hsumma_des_s", "s", "lower"),
    ("core.program_build_us_per_rank", "us", "lower"),
    ("core.cyclic_macro_s", "s", "lower"),
    ("algorithms.cannon_macro_s", "s", "lower"),
    ("algorithms.dns3d_macro_s", "s", "lower"),
    # simulator.backends
    ("macro.per_rank_us_per_rank_collective", "us", "lower"),
    ("macro.collapsed_us_per_probe_collective", "us", "lower"),
    # simulator.collapse
    ("collapse.probed_ranks", "count", "lower"),
    ("collapse.total_ranks", "count", "higher"),
    ("collapse.probe_ratio", "ratio", "lower"),
    ("collapse.fallback_runs", "count", "lower"),
    ("collapse.speedup_p1024", "ratio", "higher"),
    # simulator.predictor
    ("predictor.chain_us", "us", "lower"),
    ("predictor.sweep_ms", "ms", "lower"),
    # costs
    ("costs.estimate_us", "us", "lower"),
    ("costs.closed_form_us", "us", "lower"),
    ("costs.lower_bound_us", "us", "lower"),
    # planner
    ("planner.enumerate_ms", "ms", "lower"),
    ("planner.candidates", "count", "lower"),
    ("planner.rank_ms", "ms", "lower"),
    ("planner.refine_s", "s", "lower"),
    ("planner.refine_macro_calls", "count", "lower"),
    ("planner.refine_predictor_calls", "count", "lower"),
    ("planner.resolve_us", "us", "lower"),
    ("planner.hot_plan_us", "us", "lower"),
    ("planner.disk_hit_ms", "ms", "lower"),
    # cluster
    ("cluster.fifo_s", "s", "lower"),
    ("cluster.easy_s", "s", "lower"),
    ("cluster.planner_s", "s", "lower"),
    ("cluster.jobs_per_s", "1/s", "higher"),
    ("cluster.pick_calls", "count", "lower"),
    ("cluster.pick_s", "s", "lower"),
    ("cluster.find_calls", "count", "lower"),
    ("cluster.find_us", "us", "lower"),
    ("cluster.launch_spec_s", "s", "lower"),
    ("cluster.report_ms", "ms", "lower"),
    ("cluster.engine_self_s", "s", "lower"),
    ("cluster.retries", "count", "lower"),
    # experiments
    ("experiments.fig6_s", "s", "lower"),
    ("experiments.fig8s_s", "s", "lower"),
    ("experiments.fig10_ms", "ms", "lower"),
    ("experiments.tables_ms", "ms", "lower"),
    ("experiments.micro_coster_calls", "count", "lower"),
    ("experiments.micro_coster_s", "s", "lower"),
    ("experiments.topology_coster_calls", "count", "lower"),
    ("experiments.topology_coster_s", "s", "lower"),
    ("experiments.points_per_s", "1/s", "higher"),
    ("experiments.fig8s_best_groups", "count", "higher"),
    ("experiments.fig8s_comm_ratio", "ratio", "higher"),
    # faults, tracing, verify
    ("faults.retries", "count", "lower"),
    ("faults.overhead_ratio", "ratio", "lower"),
    ("tracing.overhead_ratio", "ratio", "lower"),
    ("tracing.transfer_records", "count", "lower"),
    ("metrics.phase_rollup_ms", "ms", "lower"),
    ("metrics.critical_path_ms", "ms", "lower"),
    ("verify.overhead_ratio", "ratio", "lower"),
    # payloads
    ("payloads.data_mode_s", "s", "lower"),
    ("payloads.max_abs_err", "abs", "lower"),
    # the benchmark itself
    ("bench.import_s", "s", "lower"),
    ("bench.first_pass_s", "s", "lower"),
    ("bench.pass_iqr_share", "ratio", "lower"),
    ("bench.calib_ms", "ms", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.warnings", "count", "lower"),
] + [(f"self.{layer}_s", "s", "lower") for layer in LAYERS]

def manifest() -> dict[str, Any]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
