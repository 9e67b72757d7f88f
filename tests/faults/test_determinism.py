"""Determinism regression: the same seed and fault spec must reproduce
the exact event trace on a fresh engine, and changing the seed must
actually change something."""

import numpy as np

from repro.core.hsumma import run_hsumma
from repro.core.summa import run_summa
from repro.faults import parse_fault_spec
from repro.network.model import HockneyParams
from repro.simulator import run_spmd
from tests.pins import observed

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)

SPEC = ("drop(p=0.3); degrade(src=0, dst=1, beta=4);"
        " slow(rank=2, factor=3, t0=0, t1=0.01)")


def _chatter(ctx):
    """All-pairs chatter with interleaved compute: a timing-sensitive
    workload where any nondeterminism would reorder transfers."""
    size = ctx.world.size
    for k in range(4):
        yield from ctx.compute(1e-5 * ((ctx.rank + k) % 3))
        dst = (ctx.rank + 1 + k) % size
        src = (ctx.rank - 1 - k) % size
        out = yield from ctx.world.sendrecv(
            np.full(32, float(ctx.rank)), dst, src, sendtag=k, recvtag=k)
    return out


def _run(seed):
    faults = parse_fault_spec(SPEC, seed=seed)
    return run_spmd(_chatter, 6, params=PARAMS, collect_trace=True,
                    faults=faults)


class TestTraceReplay:
    def test_same_seed_same_trace(self):
        """Two fresh engines under the same schedule produce identical
        TransferRecord sequences — every field of every event."""
        first, second = _run(seed=11), _run(seed=11)
        assert observed(first) == observed(second)
        assert first.total_time == second.total_time
        assert first.total_retries == second.total_retries
        assert first.total_fault_delay == second.total_fault_delay

    def test_different_seed_different_outcome(self):
        a, b = _run(seed=11), _run(seed=12)
        assert a.total_retries != b.total_retries or a.total_time != b.total_time

    def test_spec_reparse_is_equivalent(self):
        """Parsing the spec twice gives interchangeable schedules."""
        one = run_spmd(_chatter, 6, params=PARAMS,
                       faults=parse_fault_spec(SPEC, seed=7))
        two = run_spmd(_chatter, 6, params=PARAMS,
                       faults=parse_fault_spec(SPEC, seed=7))
        assert one.total_time == two.total_time


class TestAlgorithmReplay:
    def test_summa_replay(self):
        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((24, 24)), rng.standard_normal((24, 24))
        runs = [run_summa(A, B, grid=(2, 2), block=6, params=PARAMS,
                          faults=parse_fault_spec("drop(p=0.4)", seed=21))
                for _ in range(2)]
        (c1, s1), (c2, s2) = runs
        assert np.array_equal(c1, c2)
        assert s1.total_time == s2.total_time
        assert s1.total_retries == s2.total_retries
        assert s1.total_retries > 0

    def test_hsumma_replay(self):
        rng = np.random.default_rng(1)
        A, B = rng.standard_normal((24, 24)), rng.standard_normal((24, 24))
        runs = [run_hsumma(A, B, grid=(2, 2), groups=2, outer_block=6,
                           params=PARAMS,
                           faults=parse_fault_spec(SPEC, seed=8))
                for _ in range(2)]
        (c1, s1), (c2, s2) = runs
        assert np.array_equal(c1, c2)
        assert s1.total_time == s2.total_time
        assert s1.total_retries == s2.total_retries
