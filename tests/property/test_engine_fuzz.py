"""Fuzz tests: random (but well-formed) communication schedules through
the engine must terminate with consistent accounting, under every
protocol and contention setting."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.network.torus import Torus3D
from repro.simulator.engine import Engine
from repro.simulator.requests import (
    ComputeRequest,
    ISendRequest,
    RecvRequest,
)

PARAMS = HockneyParams(alpha=1e-5, beta=1e-9)


def _random_schedule(rng: np.random.Generator, nranks: int, nmsgs: int):
    """A random set of point-to-point messages with unique tags.

    Returns per-rank operation lists.  Senders use isend (so ordering
    constraints cannot deadlock); receivers use blocking recv in a
    rank-locally shuffled order — legal because every (src, dst, tag)
    triple is unique.
    """
    ops: list[list[tuple]] = [[] for _ in range(nranks)]
    recvs: list[list[tuple]] = [[] for _ in range(nranks)]
    for tag in range(nmsgs):
        src, dst = rng.choice(nranks, size=2, replace=False)
        nbytes = int(rng.integers(0, 4096))
        ops[src].append(("isend", int(dst), tag, nbytes))
        recvs[dst].append(("recv", int(src), tag))
    for r in range(nranks):
        rng.shuffle(recvs[r])
        # Interleave compute between operations.
        merged = []
        for op in ops[r] + recvs[r]:
            if rng.random() < 0.3:
                merged.append(("compute", float(rng.uniform(0, 1e-4))))
            merged.append(op)
        ops[r] = merged
    return ops


def _program(oplist):
    def gen():
        handles = []
        nbytes_recv = 0
        for op in oplist:
            if op[0] == "isend":
                _, dst, tag, nbytes = op
                h = yield ISendRequest(dst, tag, b"x" * nbytes)
                handles.append(h)
            elif op[0] == "recv":
                _, src, tag = op
                payload = yield RecvRequest(src, tag)
                nbytes_recv += len(payload)
            else:
                yield ComputeRequest(op[1])
        for h in handles:
            yield h
        return nbytes_recv

    return gen()


class TestEngineFuzz:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        nranks=st.integers(min_value=2, max_value=10),
        nmsgs=st.integers(min_value=0, max_value=40),
        eager=st.sampled_from([0, 256, 1 << 20]),
        contention=st.booleans(),
    )
    def test_random_schedules_terminate_consistently(
        self, seed, nranks, nmsgs, eager, contention
    ):
        rng = np.random.default_rng(seed)
        ops = _random_schedule(rng, nranks, nmsgs)
        net = HomogeneousNetwork(nranks, PARAMS)
        engine = Engine(net, eager_threshold=eager, contention=contention)
        res = engine.run([_program(o) for o in ops])

        # Every byte sent was received.
        sent = sum(
            op[3] for rank_ops in ops for op in rank_ops if op[0] == "isend"
        )
        assert sum(res.return_values) == sent
        assert res.total_bytes == sent
        # Accounting invariants.
        for s in res.stats:
            assert s.clock >= 0
            assert s.comm_time >= -1e-15
            assert s.compute_time >= 0
            assert s.comm_time + s.compute_time <= s.clock + 1e-12

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_torus_contention_never_faster(self, seed):
        """Adding contention can only delay a fixed schedule."""
        rng = np.random.default_rng(seed)
        nranks = 8
        ops = _random_schedule(rng, nranks, 20)
        net = Torus3D((2, 2, 2), PARAMS)
        free = Engine(net, contention=False).run([_program(o) for o in ops])
        rng = np.random.default_rng(seed)  # regenerate identical schedule
        ops = _random_schedule(rng, nranks, 20)
        cont = Engine(net, contention=True).run([_program(o) for o in ops])
        assert cont.total_time >= free.total_time - 1e-15

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_trace_consistent_with_stats(self, seed):
        rng = np.random.default_rng(seed)
        nranks = 6
        ops = _random_schedule(rng, nranks, 15)
        net = HomogeneousNetwork(nranks, PARAMS)
        res = Engine(net, collect_trace=True).run([_program(o) for o in ops])
        assert len(res.trace) == res.total_messages
        assert sum(t.nbytes for t in res.trace) == res.total_bytes
        for t in res.trace:
            assert t.finish >= t.start >= 0
