#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per workload x metric.

    python benchmarks/perf/compare.py A.json B.json

``A`` and ``B`` are ledgers written by ``run.py`` (JSON lines, one run
per line): ``A`` the parent commit,
``B`` the change — or two sets of runs of one commit, to show that the
benchmark agrees with itself.  Each row shows both medians and
quartiles over the runs, the regression bound from ``BENCHMARK.json``
and a verdict:

* ``regressed``   B's median is worse than A's by more than the bound;
* ``improved``    B wins at least nine tenths of the run pairs and the
                  medians differ by more than A's own quartile spread;
* ``unresolved``  the spread of either side exceeds the bound and the
                  two sides' runs interleave, so neither of the above
                  can be told from noise;
* ``unchanged``   none of these.

Exact per-layer counts are compared too: any that differ are listed.
Exit status 1 if anything regressed or an exact count moved.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load_runs(path: str) -> list[dict[str, Any]]:
    text = pathlib.Path(path).read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3); a single run spreads over nothing."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q = statistics.quantiles(values, n=4)
    return median, q[0], q[2]


def verdict(a: list[float], b: list[float], bound: float,
            lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    med_a, q1_a, q3_a = spread(a)
    med_b, q1_b, q3_b = spread(b)
    if med_a == 0:
        return "unchanged" if med_b == 0 else "regressed"
    worse_by = sign * (med_b - med_a) / abs(med_a)
    iqr_a = (q3_a - q1_a) / abs(med_a)
    iqr_b = (q3_b - q1_b) / abs(med_a)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if max(iqr_a, iqr_b) > bound and not (all_better or all_worse):
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    losses = sum(sign * (y - x) > 0 for x, y in pairs)
    decided = wins + losses
    if decided and wins >= 0.9 * decided and -worse_by > iqr_a:
        return "improved"
    return "unchanged"


def by_workload(runs: list[dict[str, Any]], trace: int
                ) -> dict[str, list[dict[str, Any]]]:
    out: dict[str, list[dict[str, Any]]] = {}
    for run in runs:
        if run.get("trace", 0) == trace:
            out.setdefault(run["workload"], []).append(run)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    runs_a, runs_b = load_runs(argv[0]), load_runs(argv[1])
    status = 0

    a, b = by_workload(runs_a, 0), by_workload(runs_b, 0)
    header = (f"{'workload':<13s} {'metric':<12s} {'A median':>10s} "
              f"{'[q1, q3]':>23s} {'B median':>10s} {'[q1, q3]':>23s} "
              f"{'change':>8s} {'bound':>6s}  verdict")
    print(header)
    print("-" * len(header))
    metrics = [(m["name"], m["bound"], m["better"] == "lower")
               for m in manifest["end_to_end"]]
    metrics.append(("failed_share", 0.0, True))
    metrics.append(("raw_wall_s", 0.25, True))  # shown, never judged
    for workload in (w["name"] for w in manifest["workloads"]):
        if workload not in a or workload not in b:
            continue
        for name, bound, lower in metrics:
            va = [r["end_to_end"][name]["value"] for r in a[workload]]
            vb = [r["end_to_end"][name]["value"] for r in b[workload]]
            med_a, q1_a, q3_a = spread(va)
            med_b, q1_b, q3_b = spread(vb)
            change = (med_b - med_a) / med_a if med_a else 0.0
            word = verdict(va, vb, bound, lower)
            status |= word == "regressed" and name != "raw_wall_s"
            print(f"{workload:<13s} {name:<12s} {med_a:10.4g} "
                  f"[{q1_a:10.4g},{q3_a:10.4g}] {med_b:10.4g} "
                  f"[{q1_b:10.4g},{q3_b:10.4g}] {change:+8.1%} "
                  f"{bound:6.2f}  {word}  (n={len(va)}/{len(vb)})")

    # Exact counts from the traced runs must be identical on both sides
    # at equal seeds.
    exact = [m["name"] for m in manifest["per_layer"] if m["unit"] == "count"]
    ta, tb = by_workload(runs_a, 1), by_workload(runs_b, 1)
    for workload in ta.keys() & tb.keys():
        seeds_b = {r["seed"]: r for r in tb[workload]}
        for run in ta[workload]:
            other = seeds_b.get(run["seed"])
            if other is None:
                continue
            moved = [f"{n}: {run['per_layer'][n]:g} -> "
                     f"{other['per_layer'][n]:g}" for n in exact
                     if run["per_layer"][n] != other["per_layer"][n]]
            if moved:
                status = 1
                print(f"{workload} seed {run['seed']}: exact counts moved: "
                      + "; ".join(moved))
            else:
                print(f"{workload} seed {run['seed']}: all {len(exact)} "
                      "exact per-layer counts identical")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
