"""The stream simulator's two contracts: 1-job bit-identity and
whole-stream determinism in (seed, trace, scheduler)."""

import pytest

from repro.cluster import (
    JobSpec,
    build_programs,
    dumps_trace,
    loads_trace,
    poisson_stream,
    serve,
)
from repro.cluster.engine import ClusterEngine
from repro.cluster.programs import naive_launch
from repro.core.summa import run_summa
from repro.errors import ConfigurationError
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.subnet import SubNetwork
from repro.network.torus import Torus3D
from repro.network.tree import SwitchedCluster
from repro.payloads import PhantomArray
from repro.simulator.engine import Engine
from repro.simulator.runtime import DEFAULT_PARAMS

GAMMA = 1e-11


def _one_job_stream(machine, job, **kwargs):
    res = serve([job], machine=machine, scheduler="fifo", gamma=GAMMA,
                contention=True, collect_trace=True, **kwargs)
    record = res.records[0]
    assert record.status == "done"
    return record


def _assert_sim_equal(got, want):
    assert got.stats == want.stats
    assert got.trace == want.trace
    assert got.spans == want.spans
    assert [v.shape for v in got.return_values] == \
        [v.shape for v in want.return_values]


def test_one_job_stream_is_bit_identical_on_torus():
    machine = Torus3D((4, 2, 2), DEFAULT_PARAMS)
    job = JobSpec(jid=0, arrival=0.0, n=256, p=16)
    record = _one_job_stream(machine, job, slot_grid=(4, 4))
    slots = record.attempts[0].slots
    spec = naive_launch(job, alpha=DEFAULT_PARAMS.alpha,
                        beta=DEFAULT_PARAMS.beta, gamma=GAMMA)
    standalone = Engine(
        SubNetwork(machine, slots), contention=True, collect_trace=True,
    ).run(build_programs(job, spec, gamma=GAMMA, trace=True))
    _assert_sim_equal(record.result, standalone)


def test_one_job_stream_matches_run_summa():
    # On a homogeneous machine the whole grid is one placement block, so
    # the stream must reproduce the public runner's SimResult exactly.
    machine = HomogeneousNetwork(16, DEFAULT_PARAMS)
    job = JobSpec(jid=0, arrival=0.0, n=256, p=16)
    record = _one_job_stream(machine, job)
    spec = record.launch
    _, standalone = run_summa(
        PhantomArray((256, 256)), PhantomArray((256, 256)),
        grid=(spec.s, spec.t), block=spec.block, network=machine,
        gamma=GAMMA, contention=True, trace=True,
    )
    _assert_sim_equal(record.result, standalone)


def test_one_job_nonzero_arrival_shifts_clock():
    machine = HomogeneousNetwork(16, DEFAULT_PARAMS)
    t0 = 0.125
    job = JobSpec(jid=0, arrival=t0, n=256, p=16)
    record = _one_job_stream(machine, job)
    base = _one_job_stream(machine,
                           JobSpec(jid=0, arrival=0.0, n=256, p=16))
    assert record.latency == pytest.approx(base.latency)
    assert record.result.total_time == pytest.approx(
        base.result.total_time + t0)


@pytest.mark.parametrize("scheduler", ["fifo", "easy", "planner"])
def test_stream_deterministic_in_seed_trace_scheduler(scheduler):
    # Property pinned by the issue: rerunning the same (seed, trace,
    # scheduler) triple gives identical reports and per-job outcomes;
    # changing the seed changes the outcome.
    def run(seed):
        machine = Torus3D((2, 2, 2), DEFAULT_PARAMS)
        jobs = poisson_stream(12, rate=1200.0, seed=seed,
                              sizes=((128, 4), (256, 8)))
        res = serve(jobs, machine=machine, slot_grid=(4, 2),
                    scheduler=scheduler, gamma=GAMMA,
                    failures="kill(rank=0,t=0.002)", max_retries=1)
        detail = [(r.job.jid, r.status, r.latency, r.queue_wait,
                   r.failed_attempts) for r in res.records]
        return res.report.to_dict(), detail

    first = run(9)
    assert first == run(9)
    assert first != run(10)


def test_trace_round_trip_preserves_stream_outcome():
    jobs = poisson_stream(8, rate=800.0, seed=4, sizes=((128, 4), (256, 8)))
    replayed = loads_trace(dumps_trace(jobs))

    def outcome(stream):
        res = serve(stream, slots=8, scheduler="fifo", gamma=GAMMA)
        return res.report.to_dict()

    assert outcome(jobs) == outcome(replayed)


def test_failure_retry_and_exhaustion():
    machine = HomogeneousNetwork(16, DEFAULT_PARAMS)
    job = JobSpec(jid=0, arrival=0.0, n=256, p=16)

    retried = serve([job], machine=machine, scheduler="fifo", gamma=GAMMA,
                    failures="kill(rank=0,t=0.0005)", max_retries=1)
    record = retried.records[0]
    assert record.status == "done"
    assert record.failed_attempts == 1
    assert len(record.attempts) == 2
    # The retry starts when the failure frees the machine.
    assert record.attempts[1].start == pytest.approx(0.0005)

    dead = serve([job], machine=machine, scheduler="fifo", gamma=GAMMA,
                 failures="kill(rank=0,t=0.0005)", max_retries=0)
    assert dead.records[0].status == "failed"
    assert dead.records[0].latency == pytest.approx(0.0005)
    assert dead.report.failed == 1

    # A kill aimed at an idle slot is absorbed.
    idle = serve([job], machine=machine, scheduler="fifo", gamma=GAMMA,
                 failures="kill(rank=0,t=99.0)", max_retries=0)
    assert idle.records[0].status == "done"


def test_failure_killing_the_retry_too():
    machine = HomogeneousNetwork(16, DEFAULT_PARAMS)
    job = JobSpec(jid=0, arrival=0.0, n=256, p=16)
    res = serve([job], machine=machine, scheduler="fifo", gamma=GAMMA,
                failures="kill(rank=0,t=0.0004);kill(rank=5,t=0.0006)",
                max_retries=1)
    record = res.records[0]
    assert record.status == "failed"
    assert record.failed_attempts == 2


def test_each_job_result_holds_its_ranks_records_in_stream_order(
        monkeypatch):
    """A traced stream's records are split among the jobs once, after
    the stream drains: each completed attempt gets exactly the transfer
    records and root spans of its rank range, in stream order — the
    filtered lists — and a killed attempt's records go to no job."""
    engines = []
    stream_serve = ClusterEngine.serve

    def spy(engine, jobs):
        engines.append(engine)
        return stream_serve(engine, jobs)

    monkeypatch.setattr(ClusterEngine, "serve", spy)
    jobs = [JobSpec(jid=jid, arrival=jid * 2e-4, n=256, p=p)
            for jid, p in enumerate((16, 8, 8, 16))]
    res = serve(jobs, machine=Torus3D((4, 2, 4), DEFAULT_PARAMS),
                slot_grid=(4, 8), scheduler="fifo", gamma=GAMMA,
                collect_trace=True, failures="kill(rank=0,t=0.0005)")
    [engine] = engines
    killed = [a for r in res.records for a in r.attempts if a.dead]
    assert killed and all(r.status == "done" for r in res.records)
    for record in res.records:
        [attempt] = [a for a in record.attempts if not a.dead]
        lo, hi = attempt.base, attempt.base + attempt.p
        assert record.result.trace and record.result.spans
        assert record.result.trace == \
            [t for t in engine._trace if lo <= t.src < hi]
        assert record.result.spans == \
            [s for s in engine._spans.roots if lo <= s.rank < hi]
    owned = sum(len(r.result.trace) for r in res.records)
    assert owned < len(engine._trace)  # the killed attempt's records


def test_oversized_job_rejected_not_wedged():
    res = serve([JobSpec(jid=0, arrival=0.0, n=256, p=64),
                 JobSpec(jid=1, arrival=0.0, n=128, p=4)],
                slots=16, scheduler="fifo", gamma=GAMMA)
    by_jid = {r.job.jid: r for r in res.records}
    assert by_jid[0].status == "rejected"
    assert by_jid[1].status == "done"
    assert res.report.rejected == 1


def test_non_death_failure_classes_rejected():
    with pytest.raises(ConfigurationError):
        serve([JobSpec(jid=0, arrival=0.0, n=128, p=4)], slots=4,
              failures="drop(p=0.5)")


def test_cross_job_contention_on_shared_uplinks():
    # On a switched cluster, a (2, 8) slot grid places each job's 2x4
    # block across both edge switches, so the two jobs fight over the
    # same core uplinks and each runs slower than it would alone.
    machine = SwitchedCluster(16, 8, DEFAULT_PARAMS)
    jobs = [JobSpec(jid=0, arrival=0.0, n=256, p=8),
            JobSpec(jid=1, arrival=0.0, n=256, p=8)]
    both = serve(jobs, machine=machine, slot_grid=(2, 8), scheduler="fifo",
                 gamma=GAMMA, contention=True)
    alone = serve(jobs[:1], machine=machine, slot_grid=(2, 8),
                  scheduler="fifo", gamma=GAMMA, contention=True)
    lat_alone = alone.records[0].latency
    lat_shared = max(r.latency for r in both.records)
    assert lat_shared > lat_alone
