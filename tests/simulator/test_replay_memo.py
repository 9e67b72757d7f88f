"""A replayed broadcast pays once per distinct input.

Recordings are kept for the life of the process, keyed by the function
a broadcast name resolves to; within a run, a replay is remembered per
shape and placement class and handed back when a later instance has the
same arrival clocks and running ``comm_time`` (compared with ``==``).
Every test holds the result to the same run with every message stepped
(``ExpandingEngine``) at zero tolerance.
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro.collectives import COLLECTIVES, bcast_flat
from repro.core.summa import run_summa
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams, Network
from repro.network.torus import Torus3D
from repro.payloads import PhantomArray
from repro.simulator import replay
from repro.simulator.engine import Engine
from repro.simulator.requests import ComputeRequest
from tests.pins import both, spmd, stats

PARAMS = HockneyParams(alpha=1e-5, beta=1e-9)


@pytest.fixture
def replays(monkeypatch):
    """Counts Schedule.replay calls (the recorder's self-check too)."""
    calls = []
    plain = replay.Schedule.replay

    def counting(schedule, *args):
        calls.append(schedule)
        return plain(schedule, *args)

    monkeypatch.setattr(replay.Schedule, "replay", counting)
    return calls


@pytest.fixture
def cold_cache(monkeypatch):
    """An empty process-wide recording cache for this test only."""
    monkeypatch.setattr(replay, "_recorded", OrderedDict())
    monkeypatch.setattr(replay, "_held", 0)


def rows_program(nranks, row_size, before, algorithm="binomial", count=64,
                 times=3):
    """Each row of ``row_size`` ranks broadcasts ``times`` times;
    ``before(ctx, row)`` runs first."""
    def body(ctx):
        row = ctx.world.split_by(lambda r: r // row_size)
        yield from before(ctx, row)
        out = []
        for _ in range(times):
            got = yield from row.bcast(
                PhantomArray((count,)) if row.rank == 0 else None, root=0,
                algorithm=algorithm)
            out.append(got.shape)
        return out
    return spmd(nranks, body)


def test_a_torus_summa_replays_fewer_times_than_it_broadcasts(
        monkeypatch, replays):
    A = PhantomArray((256, 256))
    kwargs = dict(grid=(8, 8), block=32, network=Torus3D((4, 4, 4), PARAMS))
    run_summa(A, A, **kwargs)  # every shape recorded before counting
    replays.clear()
    replayed = run_summa(A, A, **kwargs)[1]
    assert replayed.replay["replayed"] == 128
    assert 0 < len(replays) < replayed.replay["replayed"]
    monkeypatch.setattr(Engine, "_replay", False)
    expanded = run_summa(A, A, **kwargs)[1]
    assert stats(replayed) == stats(expanded)


def _staggered(ctx, row):
    # Row 1 arrives later than row 0: a different clock, equal comm.
    if ctx.rank // 4 == 1:
        yield ComputeRequest(3e-6 * (1 + row.rank))


def _same_clock_other_comm(ctx, row):
    # Every rank reaches the broadcast at the same clock, one wire in;
    # row 0 spent it waiting on a shift, row 1 computing.
    wire = PARAMS.transfer_time(512)
    if ctx.rank // 4 == 0:
        peer = row.rank ^ 1
        yield from row.sendrecv(PhantomArray((64,)), peer, peer)
    else:
        yield ComputeRequest(wire)


@pytest.mark.parametrize("before", [_staggered, _same_clock_other_comm])
def test_equal_placement_keys_with_other_inputs_do_not_hit(before):
    # Without intra-node parameters a homogeneous network keys every
    # communicator by its size: both rows are one placement class.
    network = HomogeneousNetwork(8, PARAMS)
    assert network.placement_key([0, 1, 2, 3]) == network.placement_key(
        [4, 5, 6, 7])
    replayed, _ = both(rows_program(8, 4, before), lambda: network)
    assert replayed.replay["replayed"] == 6
    rows = [s[1:] for s in stats(replayed)]  # every field but the rank
    assert rows[:4] != rows[4:]


class Skewed(Network):
    """Every pair its own latency; keyed by the default rank tuple."""

    def transfer_time(self, src, dst, nbytes):
        return PARAMS.alpha * (1 + (3 * src + dst) % 5) + PARAMS.beta * nbytes

    def links(self, src, dst):
        return () if src == dst else ((src, dst),)


def test_a_network_keyed_by_the_rank_tuple_stays_exact(replays):
    # Both rows arrive together with nothing charged, but each is its
    # own placement class: neither may take the other's exits.
    def nothing(ctx, row):
        return
        yield

    programs = rows_program(8, 4, nothing, algorithm="vandegeijn",
                            count=4096)
    Engine(Skewed(8)).run(programs())  # record the shape
    replays.clear()
    replayed, _ = both(programs, lambda: Skewed(8))
    assert replayed.replay["replayed"] == len(replays) == 6


def test_a_memo_never_holds_more_than_its_bound(monkeypatch):
    held = []
    release = Engine._release

    def spy(engine):
        held.append(dict(engine._schedules))
        release(engine)

    monkeypatch.setattr(Engine, "_release", spy)

    def body(ctx):
        for i in range(3 * replay.MEMO_INPUTS):
            yield ComputeRequest((ctx.rank + i) * 1e-6)
            yield from ctx.world.bcast(
                np.arange(64.0) if ctx.rank == 0 else None, root=0,
                algorithm="binomial")

    both(spmd(4, body), lambda: HomogeneousNetwork(4, PARAMS))
    _by_cid, by_class = held[0][None]
    memos = [seen for memo in by_class.values() for seen in memo.values()]
    assert memos and max(map(len, memos)) == replay.MEMO_INPUTS


def test_a_name_bound_to_another_function_records_afresh(monkeypatch):
    network = HomogeneousNetwork(8, PARAMS)

    def staggered(ctx, row):
        yield ComputeRequest(ctx.rank * 5e-6)

    programs = rows_program(8, 8, staggered)
    before = Engine(network).run(programs())
    assert before.replay["replayed"] == 3

    def wrapped(*args, **kwargs):
        return bcast_flat(*args, **kwargs)

    monkeypatch.setitem(COLLECTIVES["bcast"].algorithms, "binomial", wrapped)
    replayed, _ = both(programs, lambda: network)
    assert replayed.replay["replayed"] == 3
    assert stats(replayed) != stats(before)


def test_the_recording_cache_is_bounded_in_legs(cold_cache, monkeypatch):
    monkeypatch.setattr(replay, "CACHE_LEGS", 40)
    big = replay.record("vandegeijn", 8, 0, None, 4096, 8)
    assert len(big.steps) > 40 and not replay._recorded  # used, not kept
    kept = [replay.record("binomial", 8, root, None, 64, 8)
            for root in range(8)]
    assert {len(s.steps) for s in kept} == {7}
    assert [key[2] for key in replay._recorded] == [3, 4, 5, 6, 7]
    assert replay._held == 35
    assert replay.record("binomial", 8, 3, None, 64, 8) is kept[3]
    assert [key[2] for key in replay._recorded] == [4, 5, 6, 7, 3]


def one_bcast_program(shapes):
    """One broadcast per ``(algorithm, count)`` over eight ranks."""
    def body(ctx):
        for algorithm, count in shapes:
            yield from ctx.world.bcast(
                np.arange(float(count)) if ctx.rank == 0 else None, root=0,
                algorithm=algorithm)
    return spmd(8, body)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_a_report_does_not_depend_on_what_ran_before(cold_cache, order):
    network = HomogeneousNetwork(8, PARAMS)
    runs = [one_bcast_program([("binomial", 64), ("binomial", 64)]),
            one_bcast_program([("binomial", 64), ("vandegeijn", 4096),
                               ("vandegeijn", 3)])]
    reports = {i: Engine(network).run(runs[i]()).replay for i in order}
    assert reports == {
        0: {"replayed": 2, "expanded": 0, "stepped": 0, "recorded": 1,
            "reasons": {}},
        1: {"replayed": 2, "expanded": 1, "stepped": 0, "recorded": 3,
            "reasons": {"zero-byte send": 1}},
    }
    assert len(replay._recorded) == 3
