"""Arrival processes and the JSONL trace format."""

import pytest

from repro.cluster import (
    JobSpec,
    dumps_trace,
    loads_trace,
    poisson_stream,
)
from repro.cluster.jobs import validate_stream
from repro.errors import ConfigurationError


def test_poisson_stream_is_deterministic_in_seed():
    a = poisson_stream(25, rate=100.0, seed=42)
    b = poisson_stream(25, rate=100.0, seed=42)
    c = poisson_stream(25, rate=100.0, seed=43)
    assert a == b
    assert a != c


def test_poisson_stream_monotone_arrivals_and_ids():
    jobs = poisson_stream(50, rate=10.0, seed=1)
    assert [j.jid for j in jobs] == list(range(50))
    arrivals = [j.arrival for j in jobs]
    assert arrivals == sorted(arrivals)
    assert all(t > 0 for t in arrivals)


def test_poisson_stream_weights_bias_sizes():
    jobs = poisson_stream(200, rate=10.0, seed=0,
                          sizes=((128, 4), (1024, 64)), weights=(1, 0))
    assert {(j.n, j.p) for j in jobs} == {(128, 4)}


def test_trace_round_trip():
    jobs = poisson_stream(10, rate=5.0, seed=3)
    jobs[3] = JobSpec(jid=3, arrival=jobs[3].arrival, n=jobs[3].n,
                      p=jobs[3].p, algorithm="hsumma")
    text = dumps_trace(jobs)
    assert loads_trace(text) == validate_stream(jobs)


def test_trace_rejects_garbage():
    with pytest.raises(ConfigurationError):
        loads_trace("not json\n")
    with pytest.raises(ConfigurationError):
        loads_trace('{"jid": 0, "arrival": 0.0, "n": 64}\n')  # missing p
    with pytest.raises(ConfigurationError):
        loads_trace('{"jid": 0, "arrival": 0.0, "n": 64, "p": 4, "x": 1}\n')
    with pytest.raises(ConfigurationError):
        loads_trace("")


def test_trace_skips_comments_and_blank_lines():
    text = '# a comment\n\n{"jid": 0, "arrival": 0.5, "n": 64, "p": 4}\n'
    jobs = loads_trace(text)
    assert jobs == [JobSpec(jid=0, arrival=0.5, n=64, p=4)]


def test_duplicate_jid_rejected():
    jobs = [JobSpec(jid=0, arrival=0.0, n=64, p=4),
            JobSpec(jid=0, arrival=1.0, n=64, p=4)]
    with pytest.raises(ConfigurationError):
        validate_stream(jobs)


def test_jobspec_validation():
    with pytest.raises(ConfigurationError):
        JobSpec(jid=0, arrival=-1.0, n=64, p=4)
    with pytest.raises(ConfigurationError):
        JobSpec(jid=0, arrival=0.0, n=0, p=4)
    with pytest.raises(ConfigurationError):
        JobSpec(jid=0, arrival=0.0, n=64, p=4, algorithm="cannon")


@pytest.mark.parametrize("arrival", [float("nan"), float("inf")])
def test_jobspec_rejects_non_finite_arrival(arrival):
    with pytest.raises(ConfigurationError, match=r"job 7: arrival"):
        JobSpec(jid=7, arrival=arrival, n=64, p=4)


def test_trace_rejects_nan_arrival():
    # JSON has no NaN, but Python's json module reads one; a stream
    # holding it would report every job "completed" at makespan 0.
    with pytest.raises(ConfigurationError, match=r"job 0: arrival"):
        loads_trace('{"jid": 0, "arrival": NaN, "n": 64, "p": 4}\n')


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_poisson_stream_rejects_non_finite_rate(rate):
    with pytest.raises(ConfigurationError, match="arrival rate"):
        poisson_stream(3, rate=rate, seed=0)
