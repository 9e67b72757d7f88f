"""The ``hsumma serve`` subcommand end to end."""

import json

from repro.cli import main
from repro.cluster import JobSpec, dump_trace, poisson_stream


def test_serve_check_smoke(capsys):
    assert main(["serve", "--check"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("serve --check: OK")


def test_serve_json_reports_all_slo_fields(capsys):
    code = main(["serve", "--jobs", "6", "--rate", "800", "--seed", "2",
                 "--slots", "64", "--topology", "torus",
                 "--scheduler", "fifo,easy", "--gamma", "1e-11", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trace"]["jobs"] == 6
    assert payload["machine"]["slots"] == 64
    assert set(payload["reports"]) == {"fifo", "easy"}
    for report in payload["reports"].values():
        for key in ("throughput", "latency_p50", "latency_p99",
                    "queue_wait_p50", "queue_wait_max", "utilisation",
                    "makespan", "retried_attempts"):
            assert key in report
        assert report["completed"] == 6


def test_serve_reads_jsonl_trace(tmp_path, capsys):
    trace = tmp_path / "arrivals.jsonl"
    dump_trace(poisson_stream(5, rate=600.0, seed=1,
                              sizes=((128, 4), (256, 8))), str(trace))
    code = main(["serve", "--arrivals", str(trace), "--slots", "8",
                 "--scheduler", "fifo", "--gamma", "1e-11", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trace"]["source"] == str(trace)
    assert payload["reports"]["fifo"]["jobs"] == 5


def test_serve_text_report_per_scheduler(capsys):
    code = main(["serve", "--jobs", "4", "--rate", "500", "--seed", "6",
                 "--slots", "8", "--scheduler", "fifo,planner",
                 "--gamma", "1e-11",
                 "--failures", "kill(rank=0,t=0.0005)"])
    assert code == 0
    out = capsys.readouterr().out
    assert "scheduler: fifo" in out
    assert "scheduler: planner" in out
    assert "latency" in out and "utilisation" in out


def test_serve_rejects_bad_slot_grid(capsys):
    assert main(["serve", "--slot-grid", "nonsense"]) == 2
    assert "--slot-grid" in capsys.readouterr().err


def _refuse_constant(token):
    raise AssertionError(f"invalid JSON token {token!r} in serve --json")


def test_serve_json_is_valid_when_no_job_completes(tmp_path, capsys):
    # One p=16 job on an 8-slot machine is rejected: no latency and no
    # queue-wait sample.  "No sample" is null, never a bare NaN token.
    trace = tmp_path / "arrivals.jsonl"
    dump_trace([JobSpec(jid=0, arrival=0.0, n=256, p=16)], str(trace))
    argv = ["serve", "--arrivals", str(trace), "--slots", "8",
            "--scheduler", "fifo,planner"]
    assert main(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out,
                         parse_constant=_refuse_constant)
    for report in payload["reports"].values():
        assert (report["jobs"], report["completed"],
                report["rejected"]) == (1, 0, 1)
        for key in ("latency_p50", "latency_p99", "latency_mean",
                    "queue_wait_p50", "queue_wait_max", "queue_wait_mean"):
            assert report[key] is None
    assert main(argv) == 0
    assert "p50 n/a" in capsys.readouterr().out  # the table keeps n/a
