"""SLO metrics for job streams.

Rolls the per-job records a :class:`ClusterEngine` run produces into
the numbers a capacity planner asks for: throughput, p50/p99 job
latency, queue-wait, and machine utilisation.  All statistics are
computed with deterministic arithmetic (sorted inputs, nearest-rank
percentiles), so a report is a pure function of the stream outcome.

Report fields (``to_dict`` keys, mirrored in the text table):

* ``jobs`` / ``completed`` / ``failed`` / ``rejected`` — stream counts.
* ``makespan`` — virtual seconds from the first arrival to the last
  job event.
* ``throughput`` — completed jobs per virtual second of makespan.
* ``latency_p50`` / ``latency_p99`` / ``latency_mean`` — submission-to-
  completion seconds over completed jobs (failed/rejected jobs never
  complete and are reported separately, not folded into latency).
* ``queue_wait_p50`` / ``queue_wait_max`` / ``queue_wait_mean`` —
  submission-to-first-start seconds over jobs that started.
  These six are ``None`` (JSON ``null``, ``n/a`` in the table) when the
  sample is empty — a stream in which no job completed, or none started.
* ``utilisation`` — slot-seconds occupied by attempts (including dead
  attempts: a killed job held its block until the failure) divided by
  ``slots * makespan``.
* ``retried_attempts`` — attempts killed by fail-stop failures, summed
  over all jobs (a job that died twice contributes two).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

from repro.cluster.engine import JobRecord


def percentile(values: Sequence[float], q: float) -> float | None:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]);
    ``None`` for an empty sample."""
    if not values:
        return None
    if not (0 <= q <= 100):
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    k = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[k - 1]


@dataclasses.dataclass(frozen=True)
class StreamReport:
    """Aggregated SLO metrics for one scheduler run over one trace."""

    scheduler: str
    jobs: int
    completed: int
    failed: int
    rejected: int
    makespan: float
    throughput: float
    latency_p50: float | None
    latency_p99: float | None
    latency_mean: float | None
    queue_wait_p50: float | None
    queue_wait_max: float | None
    queue_wait_mean: float | None
    utilisation: float
    retried_attempts: int

    @classmethod
    def from_records(cls, records: Sequence[JobRecord], *, slots: int,
                     scheduler: str) -> "StreamReport":
        if slots < 1:
            raise ValueError(f"need slots >= 1, got {slots}")
        completed = [r for r in records if r.status == "done"]
        failed = [r for r in records if r.status == "failed"]
        rejected = [r for r in records if r.status == "rejected"]
        first_arrival = min((r.arrival for r in records), default=0.0)
        last_event = max(
            (max((a.end for a in r.attempts if a.end is not None),
                 default=r.arrival)
             for r in records),
            default=0.0,
        )
        makespan = max(0.0, last_event - first_arrival)
        latencies = [r.latency for r in completed]
        waits = [r.queue_wait for r in records if r.queue_wait is not None]
        busy = sum(a.p * (a.end - a.start)
                   for r in records for a in r.attempts if a.end is not None)
        return cls(
            scheduler=scheduler,
            jobs=len(records),
            completed=len(completed),
            failed=len(failed),
            rejected=len(rejected),
            makespan=makespan,
            throughput=len(completed) / makespan if makespan > 0 else 0.0,
            latency_p50=percentile(latencies, 50),
            latency_p99=percentile(latencies, 99),
            latency_mean=(sum(latencies) / len(latencies)
                          if latencies else None),
            queue_wait_p50=percentile(waits, 50),
            queue_wait_max=max(waits, default=None),
            queue_wait_mean=sum(waits) / len(waits) if waits else None,
            utilisation=busy / (slots * makespan) if makespan > 0 else 0.0,
            retried_attempts=sum(r.failed_attempts for r in records),
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_text(self) -> str:
        """Multi-line human-readable report."""
        def fmt(x: float | None) -> str:
            return "n/a" if x is None else f"{x:.6g}"

        rows = [
            ("jobs", f"{self.jobs} ({self.completed} done, "
                     f"{self.failed} failed, {self.rejected} rejected)"),
            ("makespan", f"{fmt(self.makespan)}s"),
            ("throughput", f"{fmt(self.throughput)} jobs/s"),
            ("latency", f"p50 {fmt(self.latency_p50)}s / "
                        f"p99 {fmt(self.latency_p99)}s / "
                        f"mean {fmt(self.latency_mean)}s"),
            ("queue wait", f"p50 {fmt(self.queue_wait_p50)}s / "
                           f"max {fmt(self.queue_wait_max)}s / "
                           f"mean {fmt(self.queue_wait_mean)}s"),
            ("utilisation", fmt(self.utilisation)),
            ("retries", str(self.retried_attempts)),
        ]
        width = max(len(name) for name, _ in rows)
        lines = [f"scheduler: {self.scheduler}"]
        lines += [f"  {name.ljust(width)}  {value}" for name, value in rows]
        return "\n".join(lines)
