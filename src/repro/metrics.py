"""Queryable metrics over traced simulation runs.

Everything here consumes a :class:`~repro.simulator.tracing.SimResult`
produced with tracing on (``run_summa(..., trace=True)``,
``run_hsumma(..., trace=True)`` or ``run_spmd(..., trace=True)``) and
answers the paper's attribution questions:

* :func:`phase_rollup` — how the makespan splits across the top-level
  phase spans a rank opened (``bcast.inter`` / ``bcast.intra`` /
  ``gemm`` / other), with per-phase message and byte counts.  By
  construction the rows sum *exactly* to the rank's clock, so on the
  critical rank they partition ``SimResult.total_time``.
* :func:`critical_path` — the chain of transfers and local intervals
  that determined the makespan, extracted by walking the transfer DAG
  backwards from the last rank to finish.
* :func:`to_chrome_trace` / :func:`write_chrome_trace` — export spans
  and transfers as Chrome ``trace_event`` JSON, loadable in Perfetto
  (https://ui.perfetto.dev) for interactive inspection.
* :func:`spans_to_csv` / ``PhaseBreakdown.to_csv`` — flat CSV exports
  for spreadsheets and plotting scripts.

All outputs are deterministic functions of the (deterministic)
simulation, so exported traces are reproducible artifacts.
"""

from __future__ import annotations

import bisect
import dataclasses
import io
import json
import operator
from typing import Any

from repro.errors import ConfigurationError
from repro.simulator.spans import PATH_SEP, Span, phase_of
from repro.simulator.tracing import SimResult, TransferRecord

#: Rollup bucket for time/traffic not covered by any top-level span.
OTHER_PHASE = "other"


def _require_trace(result: SimResult) -> None:
    if not result.trace and result.total_messages:
        raise ConfigurationError(
            "result has no transfer trace; rerun with trace=True "
            "(or Engine(collect_trace=True))"
        )


# ---------------------------------------------------------------------------
# Per-phase rollup
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PhaseStat:
    """Aggregate for one phase on one rank.

    ``seconds`` is wall (virtual) time inside the phase's top-level
    spans; ``messages``/``bytes`` count transfers *sent* by the rank
    while inside the phase.
    """

    name: str
    seconds: float
    fraction: float
    spans: int
    messages: int
    bytes: int


@dataclasses.dataclass(frozen=True)
class PhaseBreakdown:
    """How one rank's clock splits across its top-level phase spans.

    The rows always include an ``other`` bucket holding the clock time
    not covered by any top-level span, so ``sum(row.seconds) ==
    total`` exactly (it is computed by subtraction, not measurement).
    """

    rank: int
    total: float
    rows: tuple[PhaseStat, ...]

    @property
    def attributed_total(self) -> float:
        """Sum of all row times; equals ``total`` by construction."""
        return sum(r.seconds for r in self.rows)

    def __getitem__(self, phase: str) -> PhaseStat:
        for row in self.rows:
            if row.name == phase:
                return row
        raise KeyError(phase)

    def to_table(self) -> str:
        """Aligned text table (phase, time, share, spans, msgs, bytes)."""
        header = ("phase", "time (s)", "share", "spans", "msgs", "bytes sent")
        body = [
            (r.name, f"{r.seconds:.6f}", f"{100 * r.fraction:5.1f}%",
             str(r.spans), str(r.messages), str(r.bytes))
            for r in self.rows
        ]
        body.append(("total", f"{self.total:.6f}", "100.0%",
                     str(sum(r.spans for r in self.rows)),
                     str(sum(r.messages for r in self.rows)),
                     str(sum(r.bytes for r in self.rows))))
        widths = [max(len(header[c]), *(len(row[c]) for row in body))
                  for c in range(len(header))]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("phase,seconds,fraction,spans,messages,bytes\n")
        for r in self.rows:
            out.write(f"{r.name},{r.seconds!r},{r.fraction!r},"
                      f"{r.spans},{r.messages},{r.bytes}\n")
        return out.getvalue()


def phase_rollup(result: SimResult, rank: int | None = None) -> PhaseBreakdown:
    """Roll the clock of ``rank`` (default: the critical rank, whose
    clock is the makespan) up into its top-level phase spans.

    Phases appear in order of first opening; the ``other`` bucket is
    last.  Transfers are attributed to the phase the *sender* had open
    at post time; untraced sends land in ``other``.
    """
    _require_trace(result)
    if rank is None:
        rank = result.critical_rank
    if not (0 <= rank < result.nranks):
        raise ConfigurationError(f"rank {rank} outside world of {result.nranks}")
    clock = result.stats[rank].clock

    order: list[str] = []
    seconds: dict[str, float] = {}
    counts: dict[str, int] = {}
    for span in result.spans_for(rank):
        if span.name not in seconds:
            order.append(span.name)
            seconds[span.name] = 0.0
            counts[span.name] = 0
        seconds[span.name] += span.duration
        counts[span.name] += 1

    messages: dict[str, int] = {name: 0 for name in order}
    nbytes: dict[str, int] = {name: 0 for name in order}
    other_msgs = other_bytes = 0
    for rec in result.trace:
        if rec.src != rank:
            continue
        phase = phase_of(rec.span)
        if phase in seconds:
            messages[phase] += 1
            nbytes[phase] += rec.nbytes
        else:
            other_msgs += 1
            other_bytes += rec.nbytes

    rows = []
    for name in order:
        rows.append(PhaseStat(
            name=name,
            seconds=seconds[name],
            fraction=seconds[name] / clock if clock > 0 else 0.0,
            spans=counts[name],
            messages=messages[name],
            bytes=nbytes[name],
        ))
    other_seconds = clock - sum(seconds.values())
    rows.append(PhaseStat(
        name=OTHER_PHASE,
        seconds=other_seconds,
        fraction=other_seconds / clock if clock > 0 else 0.0,
        spans=0,
        messages=other_msgs,
        bytes=other_bytes,
    ))
    return PhaseBreakdown(rank=rank, total=clock, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Critical path over the transfer DAG
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PathSegment:
    """One link of the critical path.

    ``kind`` is ``"transfer"`` (a recorded wire transfer; ``rank`` is
    the sender, ``peer`` the receiver) or ``"local"`` (compute or
    matching delay on ``rank`` between transfers).  ``phase`` is the
    top-level span covering the segment, when spans were recorded.
    """

    kind: str
    rank: int
    start: float
    finish: float
    peer: int | None = None
    nbytes: int = 0
    phase: str | None = None

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclasses.dataclass(frozen=True)
class CriticalPath:
    """The dependency chain ending at the makespan.

    Extracted by a deterministic backward walk over the recorded
    transfers: starting from the last rank to finish, repeatedly take
    the latest transfer touching the current rank, then hop to the
    endpoint whose prior activity finished later (the endpoint that
    actually gated the transfer's start).  Intervals between transfers
    are reported as ``local`` segments (compute, or waiting absorbed by
    the matching rule).
    """

    segments: tuple[PathSegment, ...]
    makespan: float

    @property
    def transfer_time(self) -> float:
        return sum(s.duration for s in self.segments if s.kind == "transfer")

    @property
    def local_time(self) -> float:
        return sum(s.duration for s in self.segments if s.kind == "local")

    def phase_times(self) -> dict[str, float]:
        """Path time per phase (None-phase time under ``other``)."""
        acc: dict[str, float] = {}
        for seg in self.segments:
            key = seg.phase if seg.phase is not None else OTHER_PHASE
            acc[key] = acc.get(key, 0.0) + seg.duration
        return acc

    def to_table(self) -> str:
        lines = [
            f"critical path: {len(self.segments)} segments, "
            f"makespan {self.makespan:.6f}s "
            f"(transfers {self.transfer_time:.6f}s, "
            f"local {self.local_time:.6f}s)",
        ]
        for seg in self.segments:
            where = (f"rank {seg.rank}->{seg.peer}" if seg.kind == "transfer"
                     else f"rank {seg.rank}")
            extra = f" {seg.nbytes}B" if seg.kind == "transfer" else ""
            phase = f" [{seg.phase}]" if seg.phase else ""
            lines.append(
                f"  {seg.start:.6f} - {seg.finish:.6f}  "
                f"{seg.kind:8s} {where}{extra}{phase}"
            )
        return "\n".join(lines)


def critical_path(result: SimResult) -> CriticalPath:
    """Extract the chain of transfers that determined the makespan.

    Requires a transfer trace (``trace=True``).  The walk is a
    heuristic in one place only: when a transfer's start was gated by
    *both* endpoints at the same instant, it hops to the sender.
    """
    _require_trace(result)
    makespan = result.total_time
    # Indexed once, not per hop: each rank's top-level spans in open
    # order, and the transfers touching it ordered by (finish, trace
    # position) — the sort is stable.
    spans: dict[int, list[Span]] = {}
    for span in result.spans:
        spans.setdefault(span.rank, []).append(span)
    by_rank: dict[int, list[TransferRecord]] = {}
    for rec in result.trace:
        by_rank.setdefault(rec.src, []).append(rec)
        if rec.dst != rec.src:
            by_rank.setdefault(rec.dst, []).append(rec)
    finish_of = operator.attrgetter("finish")
    for recs in by_rank.values():
        recs.sort(key=finish_of)

    def latest_before(rank: int, t: float) -> TransferRecord | None:
        """Latest-finishing transfer on ``rank`` finishing by ``t`` and
        starting strictly before it (strict start keeps the walk
        monotone even through zero-duration transfers); among equal
        finishes, the earliest in the trace."""
        recs = by_rank.get(rank, ())
        best: TransferRecord | None = None
        last = bisect.bisect_right(recs, t + 1e-18, key=finish_of)
        for i in range(last - 1, -1, -1):
            rec = recs[i]
            if best is not None and rec.finish < best.finish:
                break
            if rec.start < t:
                best = rec
        return best

    def phase_at(rank: int, start: float, finish: float) -> str | None:
        """Top-level span of ``rank`` covering the interval's midpoint."""
        mid = 0.5 * (start + finish)
        for span in spans.get(rank, ()):
            if span.start <= mid < span.end:
                return span.name
        return None

    segments: list[PathSegment] = []
    rank = result.critical_rank
    t = result.stats[rank].clock if result.stats else 0.0
    for _guard in range(2 * len(result.trace) + 2):
        rec = latest_before(rank, t)
        if rec is None:
            if t > 0:
                segments.append(PathSegment(
                    kind="local", rank=rank, start=0.0, finish=t,
                    phase=phase_at(rank, 0.0, t),
                ))
            break
        if rec.finish < t:
            segments.append(PathSegment(
                kind="local", rank=rank, start=rec.finish, finish=t,
                phase=phase_at(rank, rec.finish, t),
            ))
        segments.append(PathSegment(
            kind="transfer", rank=rec.src, peer=rec.dst,
            start=rec.start, finish=rec.finish, nbytes=rec.nbytes,
            phase=phase_of(rec.span),
        ))
        # Hop to the endpoint that gated the start: the one whose prior
        # activity ran later (ties and no-prior-activity go to the
        # sender, who at minimum had to produce the data).
        prev_src = latest_before(rec.src, rec.start)
        prev_dst = latest_before(rec.dst, rec.start)
        src_busy = prev_src.finish if prev_src is not None else -1.0
        dst_busy = prev_dst.finish if prev_dst is not None else -1.0
        rank = rec.dst if dst_busy > src_busy else rec.src
        t = rec.start
        if t <= 0:
            break
    segments.reverse()
    return CriticalPath(segments=tuple(segments), makespan=makespan)


# ---------------------------------------------------------------------------
# Chrome trace_event export (Perfetto-loadable)
# ---------------------------------------------------------------------------


def _span_events(span: Span) -> list[dict[str, Any]]:
    events = [{
        "name": span.name,
        "cat": phase_of(span.name) or "span",
        "ph": "X",
        "pid": 0,
        "tid": span.rank,
        "ts": span.start * 1e6,  # trace_event wants microseconds
        "dur": span.duration * 1e6,
        "args": {k: _jsonable(v) for k, v in sorted(span.attrs.items())},
    }]
    for child in span.children:
        events.extend(_span_events(child))
    return events


def _jsonable(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def to_chrome_trace(result: SimResult) -> dict[str, Any]:
    """Spans + transfers as a Chrome ``trace_event`` JSON object.

    One process, one thread per rank.  Spans become complete (``X``)
    slices; each transfer becomes an ``X`` slice on the sender's track
    plus a flow arrow (``s``/``f``) to the receiver, so Perfetto draws
    the message lines between rank tracks.
    """
    events: list[dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": 0,
        "args": {"name": "repro simulated ranks"},
    }]
    for rank in range(result.nranks):
        events.append({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": rank,
            "args": {"name": f"rank {rank}"},
        })
    for root in result.spans:
        events.extend(_span_events(root))
    for i, rec in enumerate(result.trace):
        args = {
            "nbytes": rec.nbytes,
            "span": rec.span,
            "tag": _jsonable(rec.tag),
        }
        events.append({
            "name": f"xfer -> {rec.dst}",
            "cat": "transfer",
            "ph": "X",
            "pid": 0,
            "tid": rec.src,
            "ts": rec.start * 1e6,
            "dur": rec.duration * 1e6,
            "args": args,
        })
        if rec.dst != rec.src:
            events.append({
                "name": "msg", "cat": "transfer", "ph": "s", "id": i,
                "pid": 0, "tid": rec.src, "ts": rec.start * 1e6,
            })
            events.append({
                "name": "msg", "cat": "transfer", "ph": "f", "bp": "e",
                "id": i, "pid": 0, "tid": rec.dst, "ts": rec.finish * 1e6,
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.metrics.to_chrome_trace",
            "nranks": result.nranks,
            "total_time_s": result.total_time,
        },
    }


def to_chrome_json(result: SimResult) -> str:
    """Deterministic JSON text of :func:`to_chrome_trace`."""
    return json.dumps(to_chrome_trace(result), sort_keys=True, indent=1)


def write_chrome_trace(result: SimResult, path: str) -> None:
    """Write the Chrome trace to ``path`` (open in ui.perfetto.dev)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_chrome_json(result))
        fh.write("\n")


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def spans_to_csv(result: SimResult) -> str:
    """Every span as one CSV row (rank, path, timings, attributes).

    ``path`` is the slash-joined ancestry; ``attrs`` is a
    semicolon-joined ``key=value`` list so the file stays one row per
    span.
    """
    out = io.StringIO()
    out.write("rank,path,name,start,end,duration,self_time,attrs\n")

    def emit(span: Span, prefix: str) -> None:
        path = f"{prefix}{PATH_SEP}{span.name}" if prefix else span.name
        attrs = ";".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
        out.write(
            f"{span.rank},{path},{span.name},{span.start!r},{span.end!r},"
            f"{span.duration!r},{span.self_time!r},{attrs}\n"
        )
        for child in span.children:
            emit(child, path)

    for root in result.spans:
        emit(root, "")
    return out.getvalue()


# ---------------------------------------------------------------------------
# Fault accounting
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FaultRow:
    """One rank's fault-recovery counters (see ``docs/robustness.md``).

    ``retries`` counts engine-level retransmissions of dropped
    messages, ``timeouts`` counts timed receives that expired,
    ``recoveries`` counts successful fallbacks after a timeout, and
    ``fault_delay`` is the virtual time this rank's transfers and
    computations lost to injected faults.
    """

    rank: int
    retries: int
    timeouts: int
    recoveries: int
    fault_delay: float


@dataclasses.dataclass(frozen=True)
class FaultReport:
    """Per-rank fault counters for a run, plus totals.

    ``rows`` holds only the ranks that saw any fault activity; a
    fault-free run yields an empty report (``faulted`` is False).
    """

    nranks: int
    rows: tuple[FaultRow, ...]

    @property
    def faulted(self) -> bool:
        """True when any rank recorded fault activity."""
        return bool(self.rows)

    @property
    def total_retries(self) -> int:
        return sum(r.retries for r in self.rows)

    @property
    def total_timeouts(self) -> int:
        return sum(r.timeouts for r in self.rows)

    @property
    def total_recoveries(self) -> int:
        return sum(r.recoveries for r in self.rows)

    @property
    def total_fault_delay(self) -> float:
        return sum(r.fault_delay for r in self.rows)

    def __getitem__(self, rank: int) -> FaultRow:
        for row in self.rows:
            if row.rank == rank:
                return row
        raise KeyError(rank)

    def to_table(self) -> str:
        """Aligned text table (rank, retries, timeouts, recoveries, delay)."""
        header = ("rank", "retries", "timeouts", "recoveries", "fault delay (s)")
        body = [
            (str(r.rank), str(r.retries), str(r.timeouts),
             str(r.recoveries), f"{r.fault_delay:.6f}")
            for r in self.rows
        ]
        body.append(("total", str(self.total_retries), str(self.total_timeouts),
                     str(self.total_recoveries),
                     f"{self.total_fault_delay:.6f}"))
        widths = [max(len(header[c]), *(len(row[c]) for row in body))
                  for c in range(len(header))]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("rank,retries,timeouts,recoveries,fault_delay\n")
        for r in self.rows:
            out.write(f"{r.rank},{r.retries},{r.timeouts},"
                      f"{r.recoveries},{r.fault_delay!r}\n")
        return out.getvalue()


def fault_report(result: SimResult) -> FaultReport:
    """Per-rank fault-recovery counters of a run.

    Works on any :class:`SimResult` (no trace needed).  Ranks with no
    fault activity are omitted, so a clean run returns an empty report.
    """
    rows = tuple(
        FaultRow(rank=s.rank, retries=s.retries, timeouts=s.timeouts,
                 recoveries=s.recoveries, fault_delay=s.fault_delay)
        for s in result.stats
        if s.retries or s.timeouts or s.recoveries or s.fault_delay
    )
    return FaultReport(nranks=result.nranks, rows=rows)
