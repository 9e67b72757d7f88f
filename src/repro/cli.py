"""Command-line interface: ``hsumma`` (or ``python -m repro``).

Subcommands:

* ``figure {5,6,7,8,9,10}`` — regenerate a paper figure as a table.
* ``tables`` — print Tables I and II evaluated at the BG/P setting.
* ``validate`` — the alpha/beta threshold test per platform.
* ``multiply`` — run one simulated multiplication and report times.
* ``tune`` — empirical optimal group count for a configuration.
* ``lu`` — run a simulated block LU factorization (flat or hierarchical).
* ``timeline`` — ascii Gantt chart of a small traced SUMMA/HSUMMA run.
* ``trace`` — run a traced multiplication; write a Chrome trace_event
  JSON (loadable in Perfetto) and print the per-phase breakdown.
* ``plan`` — best algorithm + parameters for a problem/machine via the
  plan service (``docs/planner.md``); text or JSON.
* ``report`` — quick scorecard verifying the paper's claims end to end.
* ``verify`` — run the communication-correctness verifier over the
  algorithm corpus (see ``docs/verification.md``).
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import figures

    driver = {
        "5": figures.fig5,
        "6": figures.fig6,
        "7": figures.fig7,
        "8": figures.fig8,
        "9": figures.fig9,
        "10": figures.fig10,
    }[args.number]
    kwargs = {"jobs": args.jobs}
    if args.cache_dir is not None:
        from repro.experiments.parallel import SweepCache

        kwargs["cache"] = SweepCache(args.cache_dir)
    series = driver(**kwargs)
    if args.csv:
        print(series.to_csv(), end="")
    else:
        print(series.to_table())
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.experiments.tables import table1, table2

    print(table1())
    print()
    print(table2())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments.tables import validate_model
    from repro.platforms import bluegene_p, exascale_2012, grid5000_graphene

    checks = [
        (grid5000_graphene(), 8192, 128, 64),
        (bluegene_p(), 65536, 16384, 256),
        (exascale_2012(), 2**22, 2**20, 256),
    ]
    for platform, n, p, b in checks:
        report = validate_model(
            platform.name, n, p, b, platform.alpha, platform.model_beta
        )
        print(report.summary())
    return 0


def _cmd_multiply(args: argparse.Namespace) -> int:
    from repro.core.api import multiply
    from repro.payloads import PhantomArray

    A = PhantomArray((args.n, args.n))
    B = PhantomArray((args.n, args.n))
    kwargs = {}
    if args.groups is not None:
        kwargs["groups"] = args.groups
    if args.bcast is not None:
        from repro.mpi.comm import CollectiveOptions

        kwargs["options"] = CollectiveOptions(bcast=args.bcast)
    if args.pipeline_depth is not None:
        kwargs["bcast_segments"] = args.pipeline_depth
    faults = None
    if args.faults is not None:
        from repro.faults import parse_fault_spec

        faults = parse_fault_spec(args.faults, seed=args.fault_seed)
        print(f"injecting {faults.describe()}")
    result = multiply(
        A,
        B,
        nprocs=args.procs,
        algorithm=args.algorithm,
        block=args.block,
        backend=args.backend,
        faults=faults,
        **kwargs,
    )
    print(
        f"{args.algorithm}: n={args.n} p={args.procs} "
        f"backend={args.backend} params={result.parameters}"
    )
    print(
        f"  total {result.total_time:.6f}s = comm {result.comm_time:.6f}s "
        f"+ compute {result.compute_time:.6f}s"
    )
    if faults is not None:
        print(f"  {result.sim.fault_summary()}")
    replayed = result.sim.replay_summary()
    if replayed:
        print(f"  {replayed}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.core.tuning import tune_group_count
    from repro.util.gridmath import factor_grid

    grid = factor_grid(args.procs)
    report = tune_group_count(args.n, grid, args.block)
    print(f"grid {grid[0]}x{grid[1]}, block {args.block}:")
    for g in sorted(report.times):
        marker = "  <-- best" if g == report.best_groups else ""
        print(f"  G={g:6d}  {report.times[g]:.6f}s{marker}")
    return 0


def _cmd_lu(args: argparse.Namespace) -> int:
    from repro.factorization import run_block_lu
    from repro.payloads import PhantomArray
    from repro.util.gridmath import factor_grid

    grid = factor_grid(args.procs)
    groups = (args.group_rows, args.group_cols)
    _, _, sim = run_block_lu(
        PhantomArray((args.n, args.n)),
        grid=grid,
        block=args.block,
        groups=groups,
    )
    kind = "HLU" if groups != (1, 1) else "LU"
    print(
        f"{kind}: n={args.n} p={args.procs} (grid {grid[0]}x{grid[1]}) "
        f"b={args.block} groups={groups}"
    )
    print(
        f"  total {sim.total_time:.6f}s = comm {sim.comm_time:.6f}s "
        f"+ compute {sim.compute_time:.6f}s"
    )
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.core.api import multiply
    from repro.experiments.timeline import render_timeline
    from repro.payloads import PhantomArray

    n = args.n
    sim = multiply(PhantomArray((n, n)), PhantomArray((n, n)),
                   nprocs=args.procs, algorithm="summa", block=args.block,
                   overlap=args.overlap, gamma=args.gamma, trace=True).sim
    schedule = "overlapped" if args.overlap else "bulk-synchronous"
    print(f"{schedule} SUMMA, n={n}, p={args.procs}, b={args.block} "
          f"(total {sim.total_time:.4g}s)")
    print(render_timeline(sim, width=args.width))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.launch import family, launch, Shape
    from repro.experiments.timeline import render_phase_timeline
    from repro.metrics import (
        critical_path,
        phase_rollup,
        spans_to_csv,
        write_chrome_trace,
    )
    from repro.payloads import PhantomArray

    n = args.n
    row = family(args.algo)  # argparse choices guard the name
    shape, cfg = row.configure(n, n, n, Shape(
        nprocs=args.procs, block=args.block, groups=args.groups))
    _, sim = launch(row, cfg, PhantomArray((n, n)), PhantomArray((n, n)),
                    gamma=args.gamma, trace=True)
    setting = ", ".join(f"{key}={value}"
                        for key, value in shape.params().items())

    try:
        write_chrome_trace(sim, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    breakdown = phase_rollup(sim)
    print(f"{args.algo}: n={args.n} p={args.procs} ({setting})")
    print(f"wrote Chrome trace to {args.out} (open in https://ui.perfetto.dev)")
    print()
    print(f"per-phase breakdown on critical rank {breakdown.rank} "
          f"(makespan {sim.total_time:.6f}s):")
    print(breakdown.to_table())
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(spans_to_csv(sim))
        except OSError as exc:
            print(f"error: cannot write {args.csv}: {exc}", file=sys.stderr)
            return 2
        print(f"\nwrote span CSV to {args.csv}")
    if args.timeline:
        print()
        print(render_phase_timeline(sim, width=args.width))
    if args.critical_path:
        print()
        print(critical_path(sim).to_table())
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    import json

    from repro.planner import PlanQuery, PlanService

    service = PlanService(cache_dir=args.cache_dir, top_k=args.top_k,
                          refine=args.refine)
    memory_bytes = (args.memory_gb * 2.0**30
                    if args.memory_gb is not None else None)
    result = service.plan(PlanQuery(
        n=args.n, p=args.p, dtype=args.dtype, platform=args.platform,
        alpha=args.alpha, beta=args.beta, gamma=args.gamma,
        memory_bytes=memory_bytes, faults=args.faults,
    ))
    if args.json:
        out = result.to_dict()
        out["from_cache"] = result.from_cache
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(result.summary())
    return 0


def _serve_machine(args: argparse.Namespace):
    from repro.errors import ConfigurationError
    from repro.simulator.runtime import DEFAULT_PARAMS
    from repro.network.model import HockneyParams

    params = DEFAULT_PARAMS
    if args.alpha is not None or args.beta is not None:
        params = HockneyParams(
            alpha=args.alpha if args.alpha is not None else DEFAULT_PARAMS.alpha,
            beta=args.beta if args.beta is not None else DEFAULT_PARAMS.beta,
        )
    if args.topology == "torus":
        from repro.network.torus import Torus3D
        from repro.util.gridmath import factor_grid

        side = round(args.slots ** (1 / 3))
        if side**3 == args.slots:
            dims = (side, side, side)
        else:
            s, t = factor_grid(args.slots)
            u, v = factor_grid(t)
            dims = (s, u, v)
        return Torus3D(dims, params)
    if args.topology == "homogeneous":
        from repro.network.homogeneous import HomogeneousNetwork

        return HomogeneousNetwork(args.slots, params)
    raise ConfigurationError(f"unknown topology {args.topology!r}")


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.cluster import (
        compare_schedulers,
        load_trace,
        poisson_stream,
    )
    from repro.errors import ConfigurationError

    if args.check:
        return _serve_check()
    if args.arrivals is not None:
        jobs = load_trace(args.arrivals)
        trace_info = {"source": args.arrivals, "jobs": len(jobs)}
    else:
        jobs = poisson_stream(args.jobs, rate=args.rate, seed=args.seed)
        trace_info = {"source": f"poisson(rate={args.rate}, seed={args.seed})",
                      "jobs": len(jobs)}
    schedulers = [s.strip() for s in args.scheduler.split(",") if s.strip()]
    if not schedulers:
        raise ConfigurationError("no scheduler given")
    machine = _serve_machine(args)
    slot_grid = None
    if args.slot_grid is not None:
        rows, _, cols = args.slot_grid.partition("x")
        try:
            slot_grid = (int(rows), int(cols))
        except ValueError:
            raise ConfigurationError(
                f"--slot-grid must be ROWSxCOLS, got {args.slot_grid!r}"
            ) from None
    results = compare_schedulers(
        jobs, schedulers, machine=machine, slot_grid=slot_grid,
        gamma=args.gamma, failures=args.failures,
        max_retries=args.max_retries,
    )
    if args.json:
        payload = {
            "trace": trace_info,
            "machine": {"topology": args.topology, "slots": machine.nranks},
            "reports": {name: res.report.to_dict()
                        for name, res in results.items()},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"stream: {trace_info['source']} — {trace_info['jobs']} jobs "
              f"on {machine.nranks} {args.topology} slots")
        for name, res in results.items():
            print()
            print(res.report.to_text())
    return 0


def _serve_check() -> int:
    """Built-in smoke: run a small stream under two schedulers twice,
    asserting determinism and the SLO report shape (used by CI)."""
    from repro.cluster import compare_schedulers, poisson_stream
    from repro.network.torus import Torus3D
    from repro.simulator.runtime import DEFAULT_PARAMS

    def once() -> dict:
        machine = Torus3D((2, 2, 2), DEFAULT_PARAMS)
        jobs = poisson_stream(10, rate=1500.0, seed=3,
                              sizes=((128, 4), (256, 8)))
        results = compare_schedulers(
            jobs, ["fifo", "planner"], machine=machine, slot_grid=(4, 2),
            gamma=1e-11, failures="kill(rank=1,t=0.001)", max_retries=1,
        )
        return {name: res.report.to_dict() for name, res in results.items()}

    first, second = once(), once()
    if first != second:
        print("serve --check: FAIL (stream not deterministic)",
              file=sys.stderr)
        return 1
    required = {"throughput", "latency_p50", "latency_p99",
                "queue_wait_p50", "utilisation", "makespan"}
    for name, report in first.items():
        missing = required - set(report)
        if missing:
            print(f"serve --check: FAIL ({name} report missing {missing})",
                  file=sys.stderr)
            return 1
        if report["completed"] != report["jobs"]:
            print(f"serve --check: FAIL ({name} lost jobs: {report})",
                  file=sys.stderr)
            return 1
    print(f"serve --check: OK ({first['fifo']['jobs']} jobs, "
          f"fifo p99 {first['fifo']['latency_p99']:.6g}s, "
          f"planner p99 {first['planner']['latency_p99']:.6g}s)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import build_scorecard, render_scorecard

    results = build_scorecard()
    print(render_scorecard(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    from repro.verify import VerifyOptions
    from repro.verify.corpus import run_corpus

    options = VerifyOptions(schedules=args.schedules, seed=args.seed)
    names = args.cases or None
    results = run_corpus(names, verify=options)

    if args.json:
        payload = [
            {"case": case.name, "description": case.description,
             **verdict.to_dict()}
            for case, verdict in results
        ]
        print(json.dumps(payload, indent=2, default=str))
    else:
        width = max(len(case.name) for case, _ in results)
        for case, verdict in results:
            print(f"{case.name:<{width}}  {verdict.summary()}")
            if not verdict.ok or args.verbose:
                for line in verdict.to_text().splitlines()[1:]:
                    print(f"{'':<{width}}  {line.strip()}")
    failed = [case.name for case, verdict in results if not verdict.ok]
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsumma",
        description="HSUMMA paper reproduction: simulated parallel matmul",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("number", choices=["5", "6", "7", "8", "9", "10"])
    p_fig.add_argument("--csv", action="store_true", help="emit CSV")
    p_fig.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="evaluate independent sweep points across N worker processes",
    )
    p_fig.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="reuse previously computed sweep points from this directory "
             "(content-addressed; safe across concurrent runs)",
    )
    p_fig.set_defaults(func=_cmd_figure)

    p_tab = sub.add_parser("tables", help="print Tables I and II")
    p_tab.set_defaults(func=_cmd_tables)

    p_val = sub.add_parser("validate", help="threshold test per platform")
    p_val.set_defaults(func=_cmd_validate)

    p_mul = sub.add_parser("multiply", help="run one simulated multiply")
    p_mul.add_argument("--n", type=int, default=4096)
    p_mul.add_argument("--procs", type=int, default=64)
    p_mul.add_argument(
        "--block", type=int, default=None,
        help="pivot block; default: the family's largest valid block "
             "(families without one reject the flag)",
    )
    p_mul.add_argument("--algorithm", default="hsumma")
    p_mul.add_argument("--groups", type=int, default=None)
    p_mul.add_argument(
        "--bcast", default=None,
        help="broadcast algorithm (binomial, vandegeijn, pipelined, "
             "segmented, fourcolor, hypersystolic, ...); default: the "
             "context default",
    )
    p_mul.add_argument(
        "--pipeline-depth", type=int, default=None, metavar="S",
        help="segment count for the pipelined broadcast family "
             "(pipelined/segmented/fourcolor/hypersystolic and the "
             "overlap runners' streamed IBcast); default: per-algorithm "
             "auto",
    )
    p_mul.add_argument(
        "--backend", choices=["des", "macro", "predictor"], default="des",
        help="execution backend: full DES, collective-granularity macro, "
             "or the zero-stepping closed-form predictor "
             "(see docs/cost_model.md)",
    )
    p_mul.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault spec, e.g. 'drop(p=0.05); slow(rank=3,factor=10)' "
             "(see docs/robustness.md); DES backend only",
    )
    p_mul.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the fault schedule's deterministic randomness",
    )
    p_mul.set_defaults(func=_cmd_multiply)

    p_tune = sub.add_parser("tune", help="empirical optimal group count")
    p_tune.add_argument("--n", type=int, default=4096)
    p_tune.add_argument("--procs", type=int, default=64)
    p_tune.add_argument("--block", type=int, default=64)
    p_tune.set_defaults(func=_cmd_tune)

    p_lu = sub.add_parser("lu", help="simulated block LU factorization")
    p_lu.add_argument("--n", type=int, default=2048)
    p_lu.add_argument("--procs", type=int, default=64)
    p_lu.add_argument("--block", type=int, default=32)
    p_lu.add_argument("--group-rows", type=int, default=1)
    p_lu.add_argument("--group-cols", type=int, default=1)
    p_lu.set_defaults(func=_cmd_lu)

    p_tl = sub.add_parser("timeline", help="ascii Gantt of a traced run")
    p_tl.add_argument("--n", type=int, default=128)
    p_tl.add_argument("--procs", type=int, default=4)
    p_tl.add_argument("--block", type=int, default=16)
    p_tl.add_argument("--gamma", type=float, default=5e-9)
    p_tl.add_argument("--width", type=int, default=72)
    p_tl.add_argument("--overlap", action="store_true")
    p_tl.set_defaults(func=_cmd_timeline)

    p_tr = sub.add_parser(
        "trace",
        help="traced run: Chrome trace JSON + per-phase breakdown",
    )
    p_tr.add_argument("--algo", choices=["summa", "hsumma"], default="hsumma")
    p_tr.add_argument("-n", "--n", dest="n", type=int, default=1024)
    p_tr.add_argument("-p", "--procs", dest="procs", type=int, default=16)
    p_tr.add_argument("--block", type=int, default=64)
    p_tr.add_argument("--groups", type=int, default=None,
                      help="HSUMMA group count G (default sqrt(p))")
    p_tr.add_argument("--gamma", type=float, default=5e-9)
    p_tr.add_argument("--out", default="hsumma-trace.json",
                      help="Chrome trace_event JSON output path")
    p_tr.add_argument("--csv", default=None,
                      help="also write every span as CSV to this path")
    p_tr.add_argument("--timeline", action="store_true",
                      help="print the per-phase ascii Gantt")
    p_tr.add_argument("--critical-path", action="store_true",
                      help="print the critical-path walk")
    p_tr.add_argument("--width", type=int, default=72)
    p_tr.set_defaults(func=_cmd_trace)

    p_plan = sub.add_parser(
        "plan",
        help="best algorithm + parameters for a problem/machine "
             "(plan service; see docs/planner.md)",
    )
    p_plan.add_argument("--n", type=int, required=True,
                        help="matrix dimension (n x n)")
    p_plan.add_argument("-p", "--p", "--procs", dest="p", type=int,
                        required=True, help="rank count")
    p_plan.add_argument("--dtype", default="float64",
                        help="element type (default float64)")
    p_plan.add_argument(
        "--platform", default=None,
        choices=["grid5000-graphene", "bluegene-p", "exascale-2012"],
        help="named machine preset for alpha/beta/gamma",
    )
    p_plan.add_argument("--alpha", type=float, default=None,
                        help="latency in seconds (overrides platform)")
    p_plan.add_argument("--beta", type=float, default=None,
                        help="seconds per byte (overrides platform)")
    p_plan.add_argument("--gamma", type=float, default=None,
                        help="seconds per flop (overrides platform)")
    p_plan.add_argument("--memory-gb", type=float, default=None,
                        help="per-rank memory budget in GiB")
    p_plan.add_argument("--faults", default=None, metavar="SPEC",
                        help="fault spec; restricts plans to "
                             "fault-tolerant broadcasts")
    p_plan.add_argument("--top-k", type=int, default=4,
                        help="ranking leaders re-priced by the "
                             "refinement backend")
    p_plan.add_argument(
        "--refine", choices=["predictor", "none"],
        default="predictor",
        help="refinement backend for the ranking leaders",
    )
    p_plan.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed plan cache directory (reused across runs)",
    )
    p_plan.add_argument("--json", action="store_true",
                        help="emit the plan as JSON")
    p_plan.set_defaults(func=_cmd_plan)

    p_srv = sub.add_parser(
        "serve",
        help="multi-tenant job-stream simulation with SLO report "
             "(see docs/scheduler.md)",
    )
    p_srv.add_argument("--arrivals", default=None, metavar="TRACE",
                       help="JSONL job trace (one job per line); default: "
                            "a seeded Poisson stream")
    p_srv.add_argument("--jobs", type=int, default=20,
                       help="Poisson stream length (ignored with --arrivals)")
    p_srv.add_argument("--rate", type=float, default=1000.0,
                       help="Poisson arrival rate in jobs per virtual "
                            "second (ignored with --arrivals)")
    p_srv.add_argument("--seed", type=int, default=0,
                       help="Poisson stream seed (ignored with --arrivals)")
    p_srv.add_argument(
        "--scheduler", default="fifo,planner",
        help="comma-separated schedulers to run on the same trace "
             "(fifo, easy, planner)",
    )
    p_srv.add_argument("--slots", type=int, default=64,
                       help="machine size in placement slots")
    p_srv.add_argument("--slot-grid", default=None, metavar="RxC",
                       help="logical placement grid (default most square)")
    p_srv.add_argument("--topology", choices=["torus", "homogeneous"],
                       default="torus",
                       help="shared machine model; torus gives honest "
                            "cross-job link contention")
    p_srv.add_argument("--alpha", type=float, default=None,
                       help="latency in seconds (default: library default)")
    p_srv.add_argument("--beta", type=float, default=None,
                       help="seconds per byte (default: library default)")
    p_srv.add_argument("--gamma", type=float, default=0.0,
                       help="seconds per flop per rank")
    p_srv.add_argument("--failures", default=None, metavar="SPEC",
                       help="fail-stop spec, e.g. 'kill(rank=5,t=0.25)'; "
                            "rank numbers name machine slots")
    p_srv.add_argument("--max-retries", type=int, default=1,
                       help="retry budget per job after a fail-stop")
    p_srv.add_argument("--json", action="store_true",
                       help="emit the SLO reports as JSON")
    p_srv.add_argument("--check", action="store_true",
                       help="run the built-in determinism/report smoke "
                            "and exit (CI)")
    p_srv.set_defaults(func=_cmd_serve)

    p_rep = sub.add_parser("report", help="reproduction scorecard")
    p_rep.set_defaults(func=_cmd_report)

    p_ver = sub.add_parser(
        "verify",
        help="communication-correctness verifier over the algorithm corpus",
    )
    p_ver.add_argument(
        "cases", nargs="*", metavar="CASE",
        help="corpus case names to run (default: all)",
    )
    p_ver.add_argument(
        "--schedules", type=int, default=2, metavar="K",
        help="perturbed delivery schedules for the determinism pass "
             "(0 disables it)",
    )
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed for the schedule perturbations")
    p_ver.add_argument("--json", action="store_true",
                       help="emit the verdicts as JSON")
    p_ver.add_argument("--verbose", action="store_true",
                       help="print findings even for clean cases")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
