"""Smoke test of the performance benchmark.

Run explicitly — it is outside tier-1's ``testpaths``::

    python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
import pins  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_benchmark(*args: str, out_dir: pathlib.Path) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--out-dir", str(out_dir),
         *args],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]), proc.stdout


def test_smoke_runs_every_workload_and_the_trace_path(tmp_path):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    workloads = [w["name"] for w in manifest["workloads"]]
    start = time.perf_counter()
    code, result, stdout = run_benchmark("--smoke", "--trace",
                                         out_dir=tmp_path)
    elapsed = time.perf_counter() - start
    assert code == 0, stdout
    assert elapsed < 20, f"smoke run took {elapsed:.1f} s"
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1

    # Every printed metric is declared, with its unit, and every
    # declared per-layer metric is printed for every workload.
    units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    printed = {}
    for key, metric in result["metrics"].items():
        workload, name = key.split(":")
        assert workload in workloads
        assert metric["unit"] == units[name]
        printed.setdefault(workload, set()).add(name)
    assert set(printed) == set(workloads)
    for workload in workloads:
        assert printed[workload] == set(units)

    # The human-readable report names all four end-to-end metrics.
    for name in ("wall_s", "setup_s", "peak_rss_mb", "failed_share"):
        assert stdout.count(name) >= len(workloads)

    # A trace and a layers.json per workload; self times add up to the
    # traced pass within 5 %.
    for workload in workloads:
        trace = json.loads(
            (tmp_path / f"trace-{workload}-smoke.json").read_text("utf-8"))
        assert trace["traceEvents"]
        layers = json.loads(
            (tmp_path / f"layers-{workload}-smoke.json").read_text("utf-8"))
        assert abs(layers["self_s_total"] - layers["traced_pass_s"]) \
            <= 0.05 * layers["traced_pass_s"]

    # Untraced run of one workload: the contract's end-to-end line.
    code, result, stdout = run_benchmark(
        "--smoke", "--workload", "des_fast", "--trace", "0", "--seed", "7",
        out_dir=tmp_path)
    assert code == 0, stdout
    assert set(result["metrics"]) == {m["name"]
                                      for m in manifest["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_manifest_matches_the_ledger_and_the_contract_limits():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert manifest == ledger.manifest()
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in manifest[section]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for entry in manifest["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    assert any(e["name"] == "setup_s" and e["unit"] == "s"
               and e["better"] == "lower" for e in manifest["end_to_end"])
    for workload in manifest["workloads"]:
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_a_perturbed_pin_is_a_failed_operation(tmp_path):
    tree = pins.load()
    pin = tree["smoke"]["des_fast"]["summa_g5k"]
    pin["total_time"] = pin["total_time"] * (1 + 1e-12)
    perturbed = tmp_path / "expected.json"
    pins.save(tree, perturbed)
    code, result, stdout = run_benchmark(
        "--smoke", "--workload", "des_fast", "--expected", str(perturbed),
        out_dir=tmp_path)
    assert code != 0
    assert not result["correct"]
    # Warm-up plus two timed passes, one mismatching operation in each.
    assert result["failed"] == 3
    assert "FAILED summa_g5k: differs from the pin at /total_time" in stdout
