"""Tests for repro.metrics: rollups, critical path, exporters."""

import json
import pathlib
import random

import pytest

from repro.core.hsumma import run_hsumma
from repro.core.summa import run_summa
from repro.errors import ConfigurationError
from repro.metrics import (
    CriticalPath,
    PathSegment,
    critical_path,
    phase_rollup,
    spans_to_csv,
    to_chrome_json,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray
from repro.simulator.engine import Engine
from repro.simulator.requests import ComputeRequest, RecvRequest, SendRequest
from repro.simulator.spans import Span, phase_of
from repro.simulator.tracing import RankStats, SimResult, TransferRecord
from tests.pins import check_golden

GOLDEN = pathlib.Path(__file__).parent / "golden_trace_2x2_summa.json"
PARAMS = HockneyParams(alpha=1e-5, beta=1e-9)


def _summa_2x2():
    A, B = PhantomArray((64, 64)), PhantomArray((64, 64))
    _, sim = run_summa(A, B, grid=(2, 2), block=32, gamma=5e-9, trace=True)
    return sim


def _hsumma_4x4():
    A, B = PhantomArray((256, 256)), PhantomArray((256, 256))
    _, sim = run_hsumma(A, B, grid=(4, 4), groups=4, outer_block=32,
                        gamma=5e-9, trace=True)
    return sim


class TestPhaseRollup:
    def test_rows_partition_makespan_exactly(self):
        sim = _hsumma_4x4()
        breakdown = phase_rollup(sim)
        assert breakdown.total == sim.total_time
        assert abs(breakdown.attributed_total - sim.total_time) <= 1e-9

    def test_expected_hsumma_phases(self):
        breakdown = phase_rollup(_hsumma_4x4())
        names = [r.name for r in breakdown.rows]
        assert names == ["bcast.inter", "bcast.intra", "gemm", "other"]

    def test_traffic_attribution_covers_all_sends(self):
        sim = _hsumma_4x4()
        breakdown = phase_rollup(sim)
        rank = breakdown.rank
        sent = sim.stats[rank].bytes_sent
        assert sum(r.bytes for r in breakdown.rows) == sent
        assert sum(r.messages for r in breakdown.rows) == \
            sim.stats[rank].messages_sent

    def test_gemm_has_no_traffic(self):
        breakdown = phase_rollup(_hsumma_4x4())
        assert breakdown["gemm"].messages == 0
        assert breakdown["gemm"].bytes == 0

    def test_every_rank_partitions_its_clock(self):
        sim = _hsumma_4x4()
        for rank in range(sim.nranks):
            breakdown = phase_rollup(sim, rank=rank)
            assert breakdown.attributed_total == \
                pytest.approx(sim.stats[rank].clock, abs=1e-12)

    def test_table_and_csv_render(self):
        breakdown = phase_rollup(_summa_2x2())
        table = breakdown.to_table()
        assert "bcast.row" in table and "total" in table
        csv = breakdown.to_csv()
        assert csv.splitlines()[0] == "phase,seconds,fraction,spans,messages,bytes"
        assert len(csv.splitlines()) == len(breakdown.rows) + 1

    def test_requires_trace(self):
        A, B = PhantomArray((64, 64)), PhantomArray((64, 64))
        _, sim = run_summa(A, B, grid=(2, 2), block=32)
        with pytest.raises(ConfigurationError, match="trace"):
            phase_rollup(sim)

    def test_bad_rank_rejected(self):
        with pytest.raises(ConfigurationError):
            phase_rollup(_summa_2x2(), rank=99)


class TestCriticalPath:
    def test_simple_relay_chain(self):
        """0 computes, sends to 1; 1 forwards to 2: the path must walk
        back through both transfers and the compute."""

        def r0():
            yield ComputeRequest(1.0)
            yield SendRequest(1, 0, b"x" * 1000)

        def r1():
            yield RecvRequest(0, 0)
            yield SendRequest(2, 0, b"x" * 1000)

        def r2():
            yield RecvRequest(1, 0)

        sim = Engine(HomogeneousNetwork(3, PARAMS), collect_trace=True).run(
            [r0(), r1(), r2()]
        )
        path = critical_path(sim)
        kinds = [(s.kind, s.rank) for s in path.segments]
        assert kinds == [("local", 0), ("transfer", 0), ("transfer", 1)]
        # Segments tile the makespan.
        assert path.transfer_time + path.local_time == \
            pytest.approx(sim.total_time)
        assert path.segments[-1].finish == pytest.approx(sim.total_time)

    def test_segments_are_contiguous_and_end_at_makespan(self):
        sim = _hsumma_4x4()
        path = critical_path(sim)
        assert path.segments[0].start == pytest.approx(0.0)
        assert path.segments[-1].finish == pytest.approx(sim.total_time)
        for a, b in zip(path.segments, path.segments[1:]):
            assert a.finish == pytest.approx(b.start)

    def test_phase_attribution_present(self):
        path = critical_path(_hsumma_4x4())
        phases = {s.phase for s in path.segments}
        assert "gemm" in phases
        assert phases & {"bcast.inter", "bcast.intra"}

    def test_phase_times_sum_to_makespan(self):
        sim = _hsumma_4x4()
        path = critical_path(sim)
        assert sum(path.phase_times().values()) == \
            pytest.approx(sim.total_time)

    def test_table_renders(self):
        out = critical_path(_summa_2x2()).to_table()
        assert "critical path" in out
        assert "transfer" in out


def _linear_scan_critical_path(result):
    """The reference :func:`critical_path`: every hop scans all of the
    rank's transfers and every local segment all top-level spans.
    ``critical_path`` indexes both per rank once and bisects; the tie
    rules below are the contract it must keep."""
    by_rank = {}
    for rec in result.trace:
        by_rank.setdefault(rec.src, []).append(rec)
        if rec.dst != rec.src:
            by_rank.setdefault(rec.dst, []).append(rec)

    def latest_before(rank, t):
        best = None
        for rec in by_rank.get(rank, ()):
            if rec.finish <= t + 1e-18 and rec.start < t:
                if best is None or rec.finish > best.finish:
                    best = rec
        return best

    def phase_at(rank, start, finish):
        mid = 0.5 * (start + finish)
        for span in result.spans_for(rank):
            if span.start <= mid < span.end:
                return span.name
        return None

    segments = []
    rank = result.critical_rank
    t = result.stats[rank].clock if result.stats else 0.0
    for _guard in range(2 * len(result.trace) + 2):
        rec = latest_before(rank, t)
        if rec is None:
            if t > 0:
                segments.append(PathSegment(
                    kind="local", rank=rank, start=0.0, finish=t,
                    phase=phase_at(rank, 0.0, t)))
            break
        if rec.finish < t:
            segments.append(PathSegment(
                kind="local", rank=rank, start=rec.finish, finish=t,
                phase=phase_at(rank, rec.finish, t)))
        segments.append(PathSegment(
            kind="transfer", rank=rec.src, peer=rec.dst, start=rec.start,
            finish=rec.finish, nbytes=rec.nbytes, phase=phase_of(rec.span)))
        prev_src = latest_before(rec.src, rec.start)
        prev_dst = latest_before(rec.dst, rec.start)
        src_busy = prev_src.finish if prev_src is not None else -1.0
        dst_busy = prev_dst.finish if prev_dst is not None else -1.0
        rank = rec.dst if dst_busy > src_busy else rec.src
        t = rec.start
        if t <= 0:
            break
    segments.reverse()
    return CriticalPath(segments=tuple(segments), makespan=result.total_time)


def _hsumma_torus_contended():
    """``des_general``'s traced operation at its smoke size."""
    from repro.platforms import bluegene_p

    plat = bluegene_p(16)
    A, B = PhantomArray((512, 512)), PhantomArray((512, 512))
    _, sim = run_hsumma(A, B, grid=(4, 4), groups=4, outer_block=64,
                        contention=True, trace=True, network=plat.network(16),
                        options=plat.options, gamma=plat.gamma)
    return sim


def _synthetic(seed):
    """A random trace on a coarse time lattice: equal finishes,
    zero-duration transfers and both-gated starts are the common case,
    not the corner."""
    rng = random.Random(seed)
    nranks = rng.randint(2, 5)
    trace = []
    for _ in range(rng.randint(0, 40)):
        start = rng.randint(0, 8) / 4
        src = rng.randrange(nranks)
        trace.append(TransferRecord(
            src=src, dst=rng.choice([src, rng.randrange(nranks)]), tag=0,
            nbytes=rng.randint(0, 9), start=start,
            finish=start + rng.choice([0, 0, 1, 2, 3]) / 4,
            span=rng.choice([None, "a/coll.bcast", "b"])))
    spans = []
    for rank in range(nranks):
        edges = sorted(rng.sample(range(0, 13), rng.randint(0, 6)))
        for lo, hi in zip(edges[::2], edges[1::2]):
            spans.append(Span(name=rng.choice("ab"), rank=rank,
                              start=lo / 4, end=hi / 4))
    rng.shuffle(spans)
    stats = [RankStats(rank=r, clock=rng.randint(0, 12) / 4)
             for r in range(nranks)]
    return SimResult(stats=stats, return_values=[None] * nranks,
                     trace=trace, spans=spans)


class TestCriticalPathKeepsTheLinearScansAnswer:
    @pytest.mark.parametrize("run", [_summa_2x2, _hsumma_4x4,
                                     _hsumma_torus_contended])
    def test_traced_runs(self, run):
        sim = run()
        path = critical_path(sim)
        assert path == _linear_scan_critical_path(sim)
        assert len(path.segments) > 3 and path.makespan == sim.total_time

    def test_tie_rules_on_a_coarse_lattice(self):
        hops = 0
        for seed in range(400):
            sim = _synthetic(seed)
            path = critical_path(sim)
            assert path == _linear_scan_critical_path(sim), seed
            hops += len(path.segments)
        assert hops > 1000

    def test_equal_finishes_go_to_the_earliest_trace_record(self):
        first = TransferRecord(src=1, dst=0, tag=0, nbytes=1, start=0.25,
                               finish=1.0)
        second = TransferRecord(src=2, dst=0, tag=0, nbytes=2, start=0.5,
                                finish=1.0)
        instant = TransferRecord(src=0, dst=0, tag=0, nbytes=3, start=1.0,
                                 finish=1.0)
        sim = SimResult(
            stats=[RankStats(rank=0, clock=1.0), RankStats(rank=1),
                   RankStats(rank=2)],
            return_values=[None] * 3, trace=[first, second, instant])
        path = critical_path(sim)
        assert path == _linear_scan_critical_path(sim)
        # ``instant`` finishes by t but does not start strictly before
        # it; of the two that do, the earlier record wins.
        assert [(s.kind, s.rank, s.nbytes) for s in path.segments] \
            == [("local", 1, 0), ("transfer", 1, 1)]


class TestChromeExporter:
    def test_events_well_formed(self):
        doc = to_chrome_trace(_summa_2x2())
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        for ev in doc["traceEvents"]:
            assert ev["ph"] in {"M", "X", "s", "f"}
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
                assert ev["ts"] >= 0

    def test_span_slices_match_span_count(self):
        sim = _summa_2x2()
        doc = to_chrome_trace(sim)
        slices = [e for e in doc["traceEvents"]
                  if e["ph"] == "X" and e["cat"] != "transfer"]
        assert len(slices) == sum(1 for _ in sim.iter_spans())

    def test_flow_events_pair_up(self):
        doc = to_chrome_trace(_summa_2x2())
        starts = [e["id"] for e in doc["traceEvents"] if e["ph"] == "s"]
        ends = [e["id"] for e in doc["traceEvents"] if e["ph"] == "f"]
        assert starts == ends and len(starts) > 0

    def test_json_round_trip(self):
        text = to_chrome_json(_summa_2x2())
        doc = json.loads(text)
        assert doc["otherData"]["nranks"] == 4

    def test_write_chrome_trace(self, tmp_path):
        out = tmp_path / "trace.json"
        write_chrome_trace(_summa_2x2(), str(out))
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]

    def test_golden_2x2_summa(self, request):
        """The exporter output on a fixed 2x2 SUMMA run is pinned: the
        trace is a reproducible artifact, so any diff here is a real
        behaviour change (regenerate with ``pytest --regen-golden``,
        see docs/observability.md)."""
        check_golden(request, GOLDEN, to_chrome_json(_summa_2x2()))


class TestSpanCsv:
    def test_rows_and_paths(self):
        sim = _summa_2x2()
        lines = spans_to_csv(sim).splitlines()
        assert lines[0] == "rank,path,name,start,end,duration,self_time,attrs"
        assert len(lines) == 1 + sum(1 for _ in sim.iter_spans())
        assert any("bcast.row/coll.bcast" in line for line in lines[1:])

    def test_attrs_embedded(self):
        csv = spans_to_csv(_summa_2x2())
        assert "algorithm=binomial" in csv
        assert "comm_size=2" in csv


class TestPhaseTimeline:
    def test_render_and_legend(self):
        from repro.experiments.timeline import render_phase_timeline

        out = render_phase_timeline(_summa_2x2(), width=40)
        assert "rank 0" in out and "rank 3" in out
        assert "#=gemm" in out
        assert "a=bcast.row" in out

    def test_requires_spans(self):
        from repro.experiments.timeline import render_phase_timeline

        A, B = PhantomArray((64, 64)), PhantomArray((64, 64))
        _, sim = run_summa(A, B, grid=(2, 2), block=32)
        with pytest.raises(ConfigurationError, match="spans"):
            render_phase_timeline(sim)
