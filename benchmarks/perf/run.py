#!/usr/bin/env python3
"""The repo's performance benchmark: six workloads, measured end to end
and layer by layer.

    python benchmarks/perf/run.py                      # all six workloads
    python benchmarks/perf/run.py --workload des_fast --seed 3
    python benchmarks/perf/run.py --workload plan_cold --trace
    python benchmarks/perf/run.py --smoke --trace      # seconds, for tests
    python benchmarks/perf/run.py --pin                # regenerate pins

Each workload runs in a fresh single-threaded subprocess (``worker.py``)
as a closed loop with one client.  The command prints every metric by
name with its unit, appends the run to ``results/ledger.jsonl`` and
exits non-zero if any operation failed.  The last stdout line is one
JSON object in the form ``BENCHMARK.json``'s driver reads.

``--seed`` feeds the Poisson stream, the fault schedule, the data-mode
matrices and the order of the plan queries; the program under test only
ever receives the generated inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

import pins
from compare import spread

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "worker.py"
MANIFEST = ROOT / "BENCHMARK.json"

#: Set-up is sampled this many times per run (the measuring worker plus
#: ``--setup-only`` workers) and reported as the median.
SETUP_SAMPLES = 5


def worker_env() -> dict[str, str]:
    """Noise hygiene: fixed hash seed, single-threaded BLAS."""
    env = dict(os.environ)
    env.update({"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
                "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    return env


def spawn(workload: str, args: argparse.Namespace, *extra: str) -> dict:
    """Run one worker to completion and return its JSON document."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(args.out_dir)]
    if args.smoke:
        cmd.append("--smoke")
    if args.expected:
        cmd += ["--expected", args.expected]
    cmd += [*extra, "--t0", repr(time.time())]
    proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.PIPE,
                          text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_metadata() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=False).stdout.strip() or None
    except OSError:
        sha = None
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "python": platform.python_version(), "numpy": numpy_version,
            "git_sha": sha, "time": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                  time.gmtime())}


def measure(workload: str, args: argparse.Namespace) -> dict:
    """One workload: the measuring worker plus the set-up samples."""
    doc = spawn(workload, args)
    setups = [doc["setup_s"]]
    if not (args.smoke or args.trace):
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(workload, args, "--setup-only")["setup_s"])
    walls = [p["wall_s"] for p in doc["passes"]]
    _, wall_q1, wall_q3 = spread(walls)
    _, raw_q1, raw_q3 = spread([p["raw_wall_s"] for p in doc["passes"]])
    setup_median, setup_q1, setup_q3 = spread(setups)
    doc["end_to_end"] = {
        "wall_s": {"value": doc["wall_s"], "n": len(walls),
                   "q1": wall_q1, "q3": wall_q3},
        # Not a declared metric: the uncalibrated pass time, for the
        # reader (see worker.calibrate).
        "raw_wall_s": {"value": doc["raw_wall_s"], "n": len(walls),
                       "q1": raw_q1, "q3": raw_q3},
        "setup_s": {"value": setup_median, "n": len(setups),
                    "q1": setup_q1, "q3": setup_q3},
        "peak_rss_mb": {"value": doc["peak_rss_mb"], "n": 1,
                        "q1": doc["peak_rss_mb"], "q3": doc["peak_rss_mb"]},
        "failed_share": {"value": doc["failed"] / doc["attempted"],
                         "n": doc["attempted"], "q1": 0.0, "q3": 0.0},
    }
    doc["setup_samples"] = setups
    return doc


def report(doc: dict, units: dict[str, str]) -> None:
    """Every metric by name, with its unit."""
    print(f"\n== {doc['workload']} (seed {doc['seed']}, {doc['size']} sizes, "
          "closed loop, 1 client) ==")
    for op in doc["ops"]:
        print(f"  op {op['name']:<44s} {op['median_s']:9.4f} s   {op['size']}")
    for name, m in doc["end_to_end"].items():
        unit = units.get(name, "s" if name == "raw_wall_s" else "share")
        print(f"  {name:<14s} {m['value']:12.6g} {unit:<5s} "
              f"(n={m['n']}, q1={m['q1']:.6g}, q3={m['q3']:.6g})")
    for why in doc["failures"]:
        print(f"  FAILED {why}")
    if "per_layer" in doc:
        print("  -- per layer (traced run; self.* are self times of the "
              "traced pass) --")
        for name, value in doc["per_layer"].items():
            print(f"  {name:<42s} {value:14.6g} {units[name]}")
        print(f"  trace:  {doc['trace_files']['trace']}")
        print(f"  layers: {doc['trace_files']['layers']}")


def layer_table(docs: list[dict]) -> str:
    """Markdown "where the time goes": per layer and workload, the share
    of the traced pass spent in the layer's own code, and in brackets
    the share spent in or under its spans."""
    shares: dict[str, dict[str, tuple[float, float]]] = {}
    for doc in docs:
        with open(doc["trace_files"]["layers"], encoding="utf-8") as fh:
            layers = json.load(fh)
        total = layers["self_s_total"]
        for layer, entry in layers["layers"].items():
            if entry["timed"]:
                shares.setdefault(layer, {})[doc["workload"]] = (
                    entry["self_s"] / total, entry["under_s"] / total)
    names = [doc["workload"] for doc in docs]
    rows = ["| layer | " + " | ".join(names) + " |",
            "|---|" + "---:|" * len(names)]
    for layer in sorted(shares, key=lambda l: -max(
            self_ for self_, _ in shares[l].values())):
        cells = []
        for name in names:
            own, under = shares[layer].get(name, (0.0, 0.0))
            cells.append(f"{own:.1%} ({under:.0%})" if under >= 0.0005
                         else "-")
        rows.append(f"| `{layer}` | " + " | ".join(cells) + " |")
    return "\n".join(rows)


def contract_line(docs: list[dict], trace: int, units: dict[str, str],
                  declared: list[str]) -> str:
    """The driver's result line.  With several workloads the metric
    names are prefixed ``workload:``."""
    metrics = {}
    for doc in docs:
        prefix = f"{doc['workload']}:" if len(docs) > 1 else ""
        if trace:
            values = doc["per_layer"]
        else:
            values = {n: doc["end_to_end"][n]["value"] for n in declared}
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    failed = sum(d["failed"] for d in docs)
    return json.dumps({"correct": failed == 0,
                       "attempted": sum(d["attempted"] for d in docs),
                       "failed": failed, "metrics": metrics})


def regenerate_pins(args: argparse.Namespace, names: list[str]) -> None:
    try:
        tree = pins.load(args.expected)
    except FileNotFoundError:
        tree = {}
    tree["seed"] = args.seed
    for smoke in (False, True):
        args.smoke = smoke
        section = tree.setdefault("smoke" if smoke else "full", {})
        for name in names:
            section[name] = spawn(name, args, "--pin")["pins"]
            print(f"pinned {name} ({'smoke' if smoke else 'full'}): "
                  f"{len(section[name])} operations")
    pins.save(tree, args.expected)


def main(argv: list[str] | None = None) -> int:
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    names = [w["name"] for w in manifest["workloads"]]
    units = {m["name"]: m["unit"]
             for m in manifest["end_to_end"] + manifest["per_layer"]}
    declared = [m["name"] for m in manifest["end_to_end"]]

    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(manifest["run_seconds"]),
                        help="seconds of timed passes per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add a traced pass and the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: exercises every path in seconds")
    parser.add_argument("--pin", action="store_true",
                        help="regenerate expected.json and exit")
    parser.add_argument("--expected", default=None,
                        help="pin file (default: expected.json beside this)")
    parser.add_argument("--out-dir", default=str(HERE / "results"),
                        help="ledger, traces and temp files go here")
    args = parser.parse_args(argv)
    selected = args.workload or names

    if args.pin:
        regenerate_pins(args, selected)
        return 0

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    host = host_metadata()
    docs = []
    for name in selected:
        doc = measure(name, args)
        doc["host"] = host
        doc["trace"] = args.trace
        docs.append(doc)
        report(doc, units)
        with open(out_dir / "ledger.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(doc) + "\n")

    if args.trace:
        print("\nwhere the time goes: self share (share in or under the "
              "layer's spans) of the traced pass\n")
        print(layer_table(docs))
    failed = sum(d["failed"] for d in docs)
    print(f"\n{sum(d['attempted'] for d in docs)} operations attempted, "
          f"{failed} failed; appended to {out_dir / 'ledger.jsonl'}")
    print(contract_line(docs, args.trace, units, declared))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
