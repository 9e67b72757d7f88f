"""Scheduler behaviour: EASY backfill mechanics and the planner's SLO
edge over FIFO on a contended trace (with and without fail-stop)."""

import pytest

from repro.cluster import (
    JobSpec,
    compare_schedulers,
    poisson_stream,
    serve,
)
from repro.cluster.schedulers import SCHEDULERS, resolve_scheduler
from repro.errors import ConfigurationError
from repro.mpi.comm import CollectiveOptions
from repro.network.torus import Torus3D
from repro.simulator.runtime import DEFAULT_PARAMS

GAMMA = 1e-11

# The benchmark scenario pinned in benchmarks/bench_job_stream.py: a
# 64-rank torus at ~80% utilisation where queueing dominates, so
# scheduling order actually moves the SLO needle.
CONTENDED = dict(
    machine=lambda: Torus3D((4, 4, 4), DEFAULT_PARAMS),
    jobs=lambda: poisson_stream(
        40, rate=2000.0, seed=11,
        sizes=((256, 4), (384, 4), (512, 16), (1024, 64)),
        weights=(5, 4, 3, 2)),
    slot_grid=(8, 8),
    gamma=GAMMA,
    max_retries=1,
)
FAILURES = "kill(rank=0,t=0.005);kill(rank=37,t=0.012);kill(rank=55,t=0.02)"


def _p99(scheduler, failures=None):
    cfg = dict(CONTENDED)
    machine = cfg.pop("machine")()
    jobs = cfg.pop("jobs")()
    res = serve(jobs, machine=machine, scheduler=scheduler,
                failures=failures, **cfg)
    assert res.report.completed + res.report.failed == len(jobs)
    return res.report


def test_resolve_scheduler_names():
    assert set(SCHEDULERS) == {"fifo", "easy", "planner"}
    for name in SCHEDULERS:
        sched = resolve_scheduler(name, alpha=1e-6, beta=1e-9, gamma=GAMMA)
        assert sched.name == name
    with pytest.raises(ConfigurationError):
        resolve_scheduler("srpt", alpha=1e-6, beta=1e-9, gamma=GAMMA)


def test_easy_backfills_small_job_past_blocked_head():
    # Head job needs the whole 4-slot machine while half is busy; the
    # tiny job behind it finishes before the running job frees the
    # machine, so EASY starts it immediately while FIFO leaves the
    # machine half idle.
    jobs = [JobSpec(jid=0, arrival=0.0, n=256, p=4),
            JobSpec(jid=1, arrival=1e-5, n=256, p=8),
            JobSpec(jid=2, arrival=2e-5, n=64, p=4)]
    fifo = serve(jobs, slots=8, scheduler="fifo", gamma=GAMMA)
    easy = serve(jobs, slots=8, scheduler="easy", gamma=GAMMA)
    fifo_by = {r.job.jid: r for r in fifo.records}
    easy_by = {r.job.jid: r for r in easy.records}
    # EASY runs job 2 in the idle half while job 1 waits for job 0.
    assert easy_by[2].queue_wait < fifo_by[2].queue_wait
    # The reservation protects the head: it never starts later.
    assert easy_by[1].first_start <= fifo_by[1].first_start


def test_backfill_never_delays_reserved_head():
    # A long job that would overrun the head's reservation must not be
    # backfilled into the gap.
    jobs = [JobSpec(jid=0, arrival=0.0, n=512, p=4),
            JobSpec(jid=1, arrival=1e-5, n=256, p=8),
            JobSpec(jid=2, arrival=2e-5, n=1024, p=4)]
    easy = serve(jobs, slots=8, scheduler="easy", gamma=GAMMA)
    by = {r.job.jid: r for r in easy.records}
    # Job 2's predicted run exceeds job 0's remaining time, so it waits
    # until after the reserved head has started.
    assert by[2].first_start >= by[1].first_start


@pytest.mark.parametrize("n,p", [(512, 16), (768, 16), (1024, 64),
                                 (4096, 256)])
@pytest.mark.parametrize("algorithm", [None, "hsumma"])
@pytest.mark.parametrize("bcast", ["binomial", "vandegeijn"])
@pytest.mark.parametrize("scheduler", ["fifo", "easy"])
def test_lone_job_prediction_is_its_runtime(scheduler, bcast, algorithm,
                                            n, p):
    # On the default homogeneous machine the closed form a FIFO/EASY
    # launch is priced by is exact, under whichever broadcast the
    # stream's options make the job run: a backfill decision never
    # rests on an estimate the run then overshoots.
    job = JobSpec(jid=0, arrival=0.0, n=n, p=p, algorithm=algorithm)
    record, = serve([job], scheduler=scheduler, gamma=GAMMA,
                    options=CollectiveOptions(bcast=bcast)).records
    assert record.status == "done"
    assert record.launch.predicted == pytest.approx(
        record.finish - record.first_start, rel=1e-12)


def test_planner_beats_fifo_p99_on_contended_trace():
    fifo = _p99("fifo")
    planner = _p99("planner")
    assert planner.latency_p99 < fifo.latency_p99
    assert fifo.failed == 0 and planner.failed == 0


def test_planner_beats_fifo_p99_under_fail_stop():
    fifo = _p99("fifo", failures=FAILURES)
    planner = _p99("planner", failures=FAILURES)
    assert planner.latency_p99 < fifo.latency_p99
    # The kills land on busy slots and every job still completes via
    # retry on this trace.
    assert fifo.retried_attempts > 0
    assert fifo.failed == 0 and planner.failed == 0


def test_compare_schedulers_shares_one_trace():
    jobs = poisson_stream(10, rate=800.0, seed=7,
                          sizes=((128, 4), (256, 8)))
    results = compare_schedulers(jobs, ("fifo", "easy", "planner"),
                                 slots=8, gamma=GAMMA)
    assert set(results) == {"fifo", "easy", "planner"}
    for result in results.values():
        assert result.report.completed == len(jobs)
        assert result.report.utilisation > 0.0


def test_all_schedulers_report_full_slo_surface():
    jobs = poisson_stream(8, rate=600.0, seed=5,
                          sizes=((128, 4), (256, 8)))
    for name in SCHEDULERS:
        res = serve(jobs, slots=8, scheduler=name, gamma=GAMMA)
        payload = res.report.to_dict()
        for key in ("scheduler", "jobs", "completed", "failed", "rejected",
                    "makespan", "throughput", "latency_p50", "latency_p99",
                    "latency_mean", "queue_wait_p50", "queue_wait_max",
                    "queue_wait_mean", "utilisation", "retried_attempts"):
            assert key in payload, (name, key)
        assert payload["scheduler"] == name
