"""One workload in one fresh process: set-up, warm-up, timed passes.

``run.py`` starts this file once per workload (and a few more times with
``--setup-only`` to sample set-up time).  It prints one JSON document on
its last stdout line and exits 0 unless the checkout has no ``src/``.

A run is a closed loop with one client: set-up, one warm-up pass, then
timed passes over the workload's fixed operation list until both the
pass floor and ``--seconds`` are met.  Every operation of every pass is
checked: against the committed pins, against pass 1, and by its own
correctness check.  With ``--trace 1`` one extra pass runs under the
wrappers of ``tracing.py``, followed by the layer microbenchmarks.
"""

import argparse
import gc
import heapq
import json
import pathlib
import resource
import shutil
import statistics
import sys
import time
import warnings

import pins

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: Timed passes: the issue's floor under the contract's time cap.
MIN_PASSES = 5
TRACE_PASSES = 3
SMOKE_PASSES = 2
CALIB_LOOPS = 60_000
#: What one calibration loop takes on the reference machine state (the
#: common state of the 2-core box the benchmark was written on).
CALIB_REF_S = 0.040


def _pairs(n: int):
    for i in range(n):
        yield (i, n)


def calibrate(loops: int = CALIB_LOOPS) -> float:
    """Seconds of a fixed pure-Python loop shaped like the simulator's
    inner loop: generator resumes, heap pushes and pops, dict stores,
    tuple allocation.

    The box this was written on drifts between machine states that last
    from a second to a minute and differ by 30 % (CPU time tracks wall,
    and it is not GC).  Raw pass times of one commit then spread by
    7-35 % between runs (quartile distance over median, ten runs),
    which would hide any change smaller than that.  The loop is timed
    just before and just after every operation, and the operation's
    time is scaled by ``CALIB_REF_S`` over their mean: the same runs
    then spread by 1.3-6.6 %.  A plain integer loop does not work — the
    states slow memory-heavy code more than arithmetic — and operations
    much longer than half a second outlast the state their brackets
    saw.  The loop runs none of the repo's code, so a real slowdown
    still shows.
    The collector is off inside the loop: a collection's cost grows with
    the live heap, and the heap belongs to the program under test.
    Smoke runs pass a shorter ``loops``; the result is scaled back to
    ``CALIB_LOOPS``.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        heap: list = []
        table: dict = {}
        source = _pairs(loops)
        push, pop = heapq.heappush, heapq.heappop
        for i in range(loops):
            value = next(source)
            push(heap, (i * 7919 % 1000, i, value))
            table[i & 1023] = value
            if i & 1:
                pop(heap)
        return (time.perf_counter() - start) * (CALIB_LOOPS / loops)
    finally:
        gc.enable()


class Checker:
    """Failure accounting: pins, pass-1 determinism, per-op checks."""

    def __init__(self, expected: dict | None, use_seeded_pins: bool) -> None:
        #: None collects pins (``--pin``) instead of comparing with them
        self.expected = expected
        self.use_seeded_pins = use_seeded_pins
        self.first: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, op_name: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op_name}: {why}")

    def check(self, op, result) -> object:
        """Count one attempted operation; returns its pin."""
        self.attempted += 1
        pin = pins.normalise(op.pin(result))
        why = None
        if op.name in self.first:
            why = pins.diff(self.first[op.name], pin, 0.0)
            if why:
                why = "differs from pass 1 at " + why
        else:
            self.first[op.name] = pin
        if self.expected is None:
            return pin
        if why is None and (self.use_seeded_pins or not op.seeded):
            if op.name not in self.expected:
                why = "no pin in expected.json (run with --pin)"
            else:
                why = pins.diff(self.expected[op.name], pin, op.rel)
                if why:
                    why = "differs from the pin at " + why
        if why is None and op.check is not None:
            why = op.check(result)
        if why:
            self.fail(op.name, why)
        return pin


def run_pass(ops, checker, tracer=None, loops=CALIB_LOOPS):
    """One pass over the operation list.

    Returns ``{"wall_s", "raw_wall_s", "calib_ms", "ops", "raw_ops"}``
    and the result stats.  A pass's wall is the sum of its operations'
    own times (checking a result is the benchmark's work, not the
    program's); ``wall_s`` and ``ops`` are calibrated, see
    :func:`calibrate`.
    """
    raw, scaled, stats, calibs = {}, {}, {}, []
    before = calibrate(loops)
    for op in ops:
        result = failure = None
        start = time.perf_counter()
        try:
            if tracer is None:
                result = op.fn()
            else:
                with tracer.operation(op.name):
                    result = op.fn()
        except Exception as exc:  # a failed operation, not a failed run
            failure = f"raised {type(exc).__name__}: {exc}"
        raw[op.name] = time.perf_counter() - start
        after = calibrate(loops)
        scaled[op.name] = raw[op.name] * CALIB_REF_S / ((before + after) / 2)
        calibs.append(before)
        before = after
        if failure:
            checker.attempted += 1
            checker.fail(op.name, failure)
            continue
        checker.check(op, result)
        if op.stats is not None:
            for key, value in op.stats(result).items():
                stats[key] = stats.get(key, 0.0) + value
    calibs.append(before)
    return {"wall_s": sum(scaled.values()),
            "raw_wall_s": sum(raw.values()),
            "calib_ms": statistics.median(calibs) * 1e3,
            "ops": scaled, "raw_ops": raw}, stats


def median_op_times(passes) -> dict[str, float]:
    names = passes[0]["ops"].keys()
    return {name: statistics.median(p["ops"][name] for p in passes)
            for name in names}


def trace_metrics(tracer, ops, op_medians, stats) -> dict:
    """Per-layer numbers read off the traced pass and the op medians."""
    # Result stats that are not declared metrics (``cluster.jobs``,
    # ``experiments.points``) only feed the rates below.
    out = dict(stats)
    for op in ops:
        if op.metric:
            scale = 1e3 if op.metric.endswith("_ms") else 1.0
            out[op.metric] = op_medians[op.name] * scale

    tt_calls, _ = tracer.acc_stats(".transfer_time")
    link_calls, _ = tracer.acc_stats(".links")
    out["network.transfer_time_calls"] = tt_calls
    out["network.links_calls"] = link_calls
    out["collectives.bcast_calls"] = tracer.count("Comm.bcast")
    out["engine.run_self_s"] = sum(
        tracer.span_stats(name)[2] for name in ("DesBackend.run",
                                                "Engine.run"))

    reports = tracer.collapse_reports
    collapsed = [r for r in reports if r.get("mode") == "collapsed"]
    probed = sum(r["probed"] for r in collapsed)
    ranks = sum(r["ranks"] for r in collapsed)
    out["collapse.probed_ranks"] = probed
    out["collapse.total_ranks"] = ranks
    out["collapse.probe_ratio"] = probed / ranks if ranks else 0.0
    out["collapse.fallback_runs"] = len(reports) - len(collapsed)

    refine_s, macro_calls, predictor_calls = 0.0, 0, 0
    for idx, span in enumerate(tracer.spans):
        macro = span[0].endswith("_step_model")
        if (macro or span[0].startswith("predict_")) \
                and tracer.has_ancestor(idx, "PlanService.plan"):
            macro_calls += macro
            predictor_calls += not macro
            refine_s += tracer.duration(idx)
    out["planner.refine_s"] = refine_s
    out["planner.refine_macro_calls"] = macro_calls
    out["planner.refine_predictor_calls"] = predictor_calls

    pick_calls = pick_s = 0.0
    for name in ("FifoScheduler.pick", "EasyBackfillScheduler.pick"):
        count, total, _own = tracer.span_stats(name)
        pick_calls += count
        pick_s += total
    out["cluster.pick_calls"] = pick_calls
    out["cluster.pick_s"] = pick_s
    find_calls, find_s = tracer.acc_stats("SlotGrid.find")
    out["cluster.find_calls"] = find_calls
    out["cluster.find_us"] = find_s / find_calls * 1e6 if find_calls else 0.0
    # The planner scheduler falls back to its base class's launch_spec:
    # count the outermost call only.
    out["cluster.launch_spec_s"] = sum(
        tracer.duration(idx) for idx, span in enumerate(tracer.spans)
        if span[0].endswith(".launch_spec")
        and not tracer.spans[span[4]][0].endswith(".launch_spec"))
    out["cluster.report_ms"] = \
        tracer.span_stats("StreamReport.from_records")[1] * 1e3
    out["cluster.engine_self_s"] = tracer.span_stats("ClusterEngine.serve")[2]
    serve_s = sum(op_medians[op.name] for op in ops
                  if op.name.startswith("serve_"))
    out["cluster.jobs_per_s"] = \
        stats.get("cluster.jobs", 0.0) / serve_s if serve_s else 0.0

    for label, cls in (("micro", "MicroDesCoster"),
                       ("topology", "TopologyCoster")):
        calls, total = tracer.acc_stats(".collective_time", prefix=cls)
        out[f"experiments.{label}_coster_calls"] = calls
        out[f"experiments.{label}_coster_s"] = total
    sweep_s = sum(op_medians.get(name, 0.0) for name in ("fig6", "fig8s"))
    out["experiments.points_per_s"] = \
        stats.get("experiments.points", 0.0) / sweep_s if sweep_s else 0.0

    for layer, entry in tracer.layers().items():
        out[f"self.{layer}_s"] = entry["self_s"]
    return out


def overhead_ratios(ops, op_medians, loops) -> dict:
    """Feature-on over feature-off time for the ops that declare a
    baseline (tracing, faults, verify), both sides calibrated."""
    import workloads

    baselines = [workloads.Op(op.name, op.size, op.baseline, lambda _r: None)
                 for op in ops if op.baseline is not None]
    if not baselines:
        return {}
    unchecked = Checker(None, use_seeded_pins=False)
    passes = [run_pass(baselines, unchecked, loops=loops)[0]
              for _ in range(3)]
    base = median_op_times(passes)
    return {op.ratio: op_medians[op.name] / base[op.name]
            for op in ops if op.baseline is not None}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pin", action="store_true",
                        help="report this run's pins instead of checking")
    parser.add_argument("--expected", default=None)
    parser.add_argument("--t0", type=float, default=time.time(),
                        help="epoch seconds at which the parent spawned us")
    parser.add_argument("--out-dir", default=str(HERE / "results"))
    return parser.parse_args(argv)


def timed_passes(args, ops, checker, loops):
    """Timed passes until the pass floor and ``--seconds`` are both met;
    ``gc.collect()`` between passes, collector left on."""
    if args.smoke:
        floor, budget = SMOKE_PASSES, 0.0
    elif args.trace:
        floor, budget = TRACE_PASSES, 0.0
    else:
        floor, budget = MIN_PASSES, args.seconds
    passes, stats = [], {}
    start = time.perf_counter()
    while len(passes) < floor or time.perf_counter() - start < budget:
        gc.collect()
        timing, stats = run_pass(ops, checker, loops=loops)
        passes.append(timing)
    return passes, stats


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf benchmark: no program to measure at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # Set-up: everything from process start to the warm-up pass.
    import_start = time.perf_counter()
    import repro  # noqa: F401
    import ledger
    import workloads
    import_s = time.perf_counter() - import_start

    size = "smoke" if args.smoke else "full"
    ops = workloads.WORKLOADS[args.workload].build(args.seed, args.smoke)
    expected, pin_seed = None, None
    if not args.pin:
        tree = pins.load(args.expected)
        expected = tree.get(size, {}).get(args.workload, {})
        pin_seed = tree.get("seed")
    raw_setup_s = time.time() - args.t0
    setup_s = raw_setup_s * CALIB_REF_S / calibrate()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    checker = Checker(expected, use_seeded_pins=args.seed == pin_seed)
    loops = CALIB_LOOPS // 10 if args.smoke else CALIB_LOOPS
    per_layer, trace_files = {}, {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gc.collect()
        first_pass_s = run_pass(ops, checker, loops=loops)[0]["raw_wall_s"]
        if args.pin:
            print(json.dumps({"pins": checker.first}))
            return 0
        passes, stats = timed_passes(args, ops, checker, loops)
        walls = [p["wall_s"] for p in passes]
        op_medians = median_op_times(passes)
        if args.trace:
            per_layer, trace_files = traced_pass(
                args, ops, checker, op_medians, stats, walls, loops)

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "size": size,
        "ops": [{"name": op.name, "size": op.size,
                 "median_s": op_medians[op.name]} for op in ops],
        "passes": passes,
        # A typical pass: every operation at its median over the passes
        # (steadier between runs than the median of the pass sums).
        "wall_s": sum(op_medians.values()),
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
    }
    if args.trace:
        quartiles = statistics.quantiles(walls, n=4)
        per_layer.update({
            "bench.import_s": import_s,
            "bench.first_pass_s": first_pass_s,
            "bench.pass_iqr_share":
                (quartiles[2] - quartiles[0]) / statistics.median(walls),
            "bench.calib_ms": statistics.median(
                p["calib_ms"] for p in passes),
            "bench.warnings": len(caught),
        })
        per_message = out["wall_s"] / per_layer["engine.des_messages"] * 1e6 \
            if per_layer["engine.des_messages"] else 0.0
        if args.workload == "des_fast":
            per_layer["engine.des_us_per_msg"] = per_message
        elif args.workload == "des_general":
            per_layer["engine.general_us_per_msg"] = per_message
        # Every declared metric is printed for every workload; a layer
        # the workload does not reach reads 0.
        out["per_layer"] = {name: float(per_layer.get(name, 0.0))
                            for name, _unit, _better in ledger.PER_LAYER}
        out["trace_files"] = trace_files
    print(json.dumps(out))
    return 0


def traced_pass(args, ops, checker, op_medians, stats, walls, loops):
    """The extra pass under the wrappers, then everything per-layer."""
    import micro
    import tracing

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer()
    gc.collect()
    tracer.install()
    try:
        traced = run_pass(ops, checker, tracer, loops)[0]
    finally:
        tracer.uninstall()
    stem = f"{args.workload}-{'smoke' if args.smoke else 'full'}"
    trace_path = out_dir / f"trace-{stem}.json"
    layers_path = out_dir / f"layers-{stem}.json"
    tracer.write(trace_path, layers_path, workload=args.workload,
                 pass_s=traced["raw_wall_s"])

    per_layer = trace_metrics(tracer, ops, op_medians, stats)
    # Messages come from the untraced results: the traced pass pins the
    # same numbers, so either would do.
    per_layer["engine.des_messages"] = sum(
        pin.get("messages", 0) for pin in checker.first.values()
        if isinstance(pin, dict))
    per_layer["bench.trace_overhead_ratio"] = \
        traced["wall_s"] / statistics.median(walls)
    per_layer.update(overhead_ratios(ops, op_medians, loops))
    tmp_dir = out_dir / f"tmp-{args.workload}-{time.time_ns()}"
    tmp_dir.mkdir()
    try:
        per_layer.update(micro.run_all(args.smoke, tmp_dir))
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    return per_layer, {"trace": str(trace_path), "layers": str(layers_path)}


if __name__ == "__main__":
    raise SystemExit(main())
