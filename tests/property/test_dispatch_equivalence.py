"""Golden pin for the engine's request dispatch.

The engine's ``_resume`` loop was refactored from an isinstance ladder
to a type-keyed dispatch table, and its per-event closures to
method+args records.  Those are pure mechanics: a shuffled mix of
*every* request kind — sends, receives, isend/irecv/wait, compute,
spans, counters, timed receives and collectives, with and without an
active fault schedule — must produce bit-identical ``SimResult`` stats,
trace and spans to the seed semantics.  Each mix is pinned traced and
untraced: an untraced fault-free run is the engine's cheapest path
(no trace, no spans, no fault hooks), so it is pinned on its own.

The seed semantics are pinned as golden JSON fixtures (generated with
``pytest --regen-golden`` against the pre-refactor engine and committed)
so any future rework of the hot path is held to the same standard.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.faults import parse_fault_spec
from repro.network.model import HockneyParams
from repro.simulator import run_spmd
from repro.simulator.requests import RECV_TIMEOUT, CounterRequest
from tests.pins import check_golden

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)
NRANKS = 5
ROUNDS = 4
FAULT_SPEC = ("drop(p=0.25); degrade(src=0, dst=1, beta=3); "
              "slow(rank=2, factor=2.5, t0=0, t1=0.005)")

#: Collectives every rank calls each round (op name, needs_root).
_COLLECTIVES = [
    ("bcast", True),
    ("allreduce", False),
    ("gather", True),
    ("allgather", False),
    ("reduce", True),
    ("scatter", True),
    ("barrier", False),
]


def _plan(seed: int):
    """A deterministic, SPMD-consistent kitchen-sink schedule.

    Returns per-round point-to-point ops per rank plus the round's
    collective, shuffled by ``seed`` — the *mix order* varies across
    seeds while staying deadlock-free (unique tags, isend senders,
    blocking receivers in shuffled order).
    """
    rng = np.random.default_rng(seed)
    rounds = []
    tag = 0
    for _ in range(ROUNDS):
        ops: list[list[tuple]] = [[] for _ in range(NRANKS)]
        recvs: list[list[tuple]] = [[] for _ in range(NRANKS)]
        for _ in range(int(rng.integers(3, 9))):
            src, dst = (int(x) for x in rng.choice(NRANKS, size=2,
                                                   replace=False))
            nwords = int(rng.integers(1, 64))
            ops[src].append(("isend", dst, tag, nwords))
            recvs[dst].append(("recv", src, tag))
            tag += 1
        # One blocking send/recv pair (rendezvous path).
        src, dst = (int(x) for x in rng.choice(NRANKS, size=2,
                                               replace=False))
        ops[src].append(("send", dst, tag, 8))
        recvs[dst].append(("recv", src, tag))
        tag += 1
        # One timed receive that must expire: nobody sends this tag.
        waiter = int(rng.integers(0, NRANKS))
        peer = (waiter + 1) % NRANKS
        recvs[waiter].append(("timed_recv", peer, tag, 2e-4))
        tag += 1
        # A counter bump and spans on random ranks.
        ops[int(rng.integers(0, NRANKS))].append(("counter",))
        ops[int(rng.integers(0, NRANKS))].append(("spanned_compute",
                                                  float(rng.uniform(0, 1e-4))))
        for r in range(NRANKS):
            rng.shuffle(recvs[r])
            merged = []
            for op in ops[r] + recvs[r]:
                if rng.random() < 0.4:
                    merged.append(("compute", float(rng.uniform(0, 1e-4))))
                merged.append(op)
            ops[r] = merged
        coll, needs_root = _COLLECTIVES[int(rng.integers(0, len(_COLLECTIVES)))]
        root = int(rng.integers(0, NRANKS)) if needs_root else 0
        rounds.append((ops, coll, root))
    return rounds


def _program(rounds, rank):
    """One rank's generator walking the plan (SPMD in the collectives)."""

    def gen(ctx):
        world = ctx.world
        handles = []
        timeouts_seen = 0
        words_received = 0
        for ops, coll, root in rounds:
            yield from ctx.span("round")
            for op in ops[rank]:
                kind = op[0]
                if kind == "isend":
                    _, dst, tag, nwords = op
                    h = yield from world.isend(
                        np.full(nwords, float(rank)), dst, tag)
                    handles.append(h)
                elif kind == "send":
                    _, dst, tag, nwords = op
                    yield from world.send(np.full(nwords, float(rank)),
                                          dst, tag)
                elif kind == "recv":
                    _, src, tag = op
                    payload = yield from world.recv(src, tag)
                    words_received += payload.size
                elif kind == "timed_recv":
                    _, src, tag, timeout = op
                    out = yield from world.recv(src, tag, timeout=timeout)
                    assert out is RECV_TIMEOUT
                    timeouts_seen += 1
                elif kind == "counter":
                    yield CounterRequest("recoveries")
                elif kind == "spanned_compute":
                    yield from ctx.span("local.work")
                    yield from ctx.compute(op[1])
                    yield from ctx.end_span()
                else:  # ("compute", seconds)
                    yield from ctx.compute(op[1])
            contribution = np.full(6, float(rank + 1))
            if coll == "bcast":
                out = yield from world.bcast(
                    contribution if rank == root else None, root=root)
                words_received += out.size
            elif coll == "allreduce":
                out = yield from world.allreduce(contribution)
                words_received += out.size
            elif coll == "gather":
                out = yield from world.gather(contribution, root=root)
                if rank == root:
                    words_received += sum(o.size for o in out)
            elif coll == "allgather":
                out = yield from world.allgather(contribution)
                words_received += sum(o.size for o in out)
            elif coll == "reduce":
                out = yield from world.reduce(contribution, root=root)
                if rank == root:
                    words_received += out.size
            elif coll == "scatter":
                parts = None
                if rank == root:
                    parts = [np.full(3, float(i)) for i in range(NRANKS)]
                out = yield from world.scatter(parts, root=root)
                words_received += out.size
            else:  # barrier
                yield from world.barrier()
            yield from ctx.end_span()
        for h in handles:
            yield from world.wait(h)
        return (words_received, timeouts_seen)

    return gen


def _run(seed: int, faulty: bool, trace: bool = True):
    rounds = _plan(seed)
    faults = parse_fault_spec(FAULT_SPEC, seed=seed) if faulty else None

    def factory(ctx):
        return _program(rounds, ctx.rank)(ctx)

    return run_spmd(factory, NRANKS, params=PARAMS, trace=trace,
                    faults=faults)


def _snapshot(sim, trace: bool = True) -> dict:
    """JSON-stable full dump: stats, the trace and spans of a traced
    run, then return values and totals (the golden files' key order)."""
    snap = {"stats": [dataclasses.asdict(s) for s in sim.stats]}
    if trace:
        snap["trace"] = [
            {"src": t.src, "dst": t.dst, "tag": repr(t.tag),
             "nbytes": t.nbytes, "start": t.start, "finish": t.finish,
             "span": t.span}
            for t in sim.trace
        ]
        snap["spans"] = [[s.rank, s.name, s.start, s.end]
                         for s in sim.iter_spans()]
    snap.update({
        "return_values": [list(v) for v in sim.return_values],
        "total_time": sim.total_time,
        "comm_time": sim.comm_time,
        "compute_time": sim.compute_time,
    })
    return snap


CASES = [
    pytest.param(seed, faulty, trace,
                 id=f"{seed}-{faulty}" + ("" if trace else "-untraced"))
    for seed in (0, 1) for faulty in (False, True) for trace in (True, False)
]


@pytest.mark.parametrize("seed,faulty,trace", CASES)
def test_dispatch_matches_seed_semantics(seed, faulty, trace, request):
    """The refactored dispatch reproduces the pinned seed output —
    every stat and return value, and traced every trace record and
    span, bit for bit."""
    snap = _snapshot(_run(seed, faulty, trace), trace)
    name = (f"dispatch_seed{seed}_{'' if trace else 'untraced_'}"
            f"{'faulty' if faulty else 'clean'}.json")
    check_golden(request, GOLDEN_DIR / name, json.dumps(snap, indent=1))


@pytest.mark.parametrize("seed,faulty", [(7, False), (7, True)])
def test_dispatch_is_deterministic(seed, faulty):
    """Two fresh engines over the same shuffled mix agree exactly."""
    a, b = _snapshot(_run(seed, faulty)), _snapshot(_run(seed, faulty))
    assert a == b
