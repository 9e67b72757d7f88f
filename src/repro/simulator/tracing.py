"""Result objects and optional transfer tracing for simulation runs.

The paper reports two time series per experiment: overall execution
time and communication time.  :class:`SimResult` exposes both (as the
maximum over ranks, which is what a barrier-terminated MPI timing
measures) plus per-rank detail and aggregate message statistics.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from repro.simulator.spans import Span, iter_spans


@dataclasses.dataclass
class RankStats:
    """Accounting for one rank.

    ``comm_time`` counts every interval the rank spent blocked in a
    communication call (send/recv/wait), including time waiting for the
    partner to arrive — exactly what wrapping MPI calls in timers
    measures on a real machine.

    The fault counters are all zero on fault-free runs:

    * ``retries`` — messages this rank retransmitted after an injected
      drop (engine-level automatic recovery).
    * ``timeouts`` — timed receives that expired on this rank.
    * ``recoveries`` — receives that ultimately succeeded after at
      least one timeout/escalation (reported by the MPI layer).
    * ``fault_delay`` — extra virtual seconds this rank's operations
      took because of injected faults (wasted wire time, backoff,
      degradation and slowdown deltas).
    """

    rank: int
    clock: float = 0.0
    comm_time: float = 0.0
    compute_time: float = 0.0
    messages_sent: int = 0
    bytes_sent: int = 0
    retries: int = 0
    timeouts: int = 0
    recoveries: int = 0
    fault_delay: float = 0.0

    @property
    def other_time(self) -> float:
        """Clock time not attributed to comm or compute (should be ~0)."""
        return self.clock - self.comm_time - self.compute_time


@dataclasses.dataclass(frozen=True, slots=True)
class TransferRecord:
    """One completed point-to-point transfer (recorded when tracing).

    ``span`` is the sender's open-span path at post time (e.g.
    ``"bcast.inter/coll.bcast"``), or None when the sender had no span
    open — it is what lets per-phase rollups attribute wire traffic.
    """

    src: int
    dst: int
    tag: int
    nbytes: int
    start: float
    finish: float
    span: str | None = None

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclasses.dataclass
class SimResult:
    """Outcome of a simulation run.

    Attributes
    ----------
    stats:
        Per-rank accounting, indexed by rank.
    return_values:
        What each rank program returned (via ``return`` in the
        generator), indexed by rank.
    trace:
        Completed transfers, when tracing was enabled; else empty.
    spans:
        Top-level spans from every rank (in recording order), when the
        rank programs emitted any; else empty.  See
        :mod:`repro.simulator.spans`.
    verdict:
        The :class:`repro.verify.Verdict` of a verified run, or None
        when the run executed without verification.
    collapse:
        The macro backend's ``collapse_report`` — ``{"mode":
        "collapsed", "probed": k, "ranks": n}`` when the symmetry fast
        path engaged, ``{"mode": "per-rank", "reason": ...}`` when it
        fell back — or None on backends without a collapse fast path.
    replay:
        Which path the DES took for its broadcasts: ``{"replayed": n,
        "expanded": n, "stepped": n, "recorded": k, "reasons": {reason:
        count}}`` — ``replayed`` were priced from a recorded schedule
        (``recorded`` shapes seen for the first time), ``expanded`` were
        stepped message by message, each for a named reason (``docs/
        performance.md`` lists them), ``stepped`` of those from a
        recorded schedule rather than through the algorithm's
        generators.  None on backends that never replay (macro,
        predictor).
    """

    stats: list[RankStats]
    return_values: list[object]
    trace: list[TransferRecord] = dataclasses.field(default_factory=list)
    spans: list[Span] = dataclasses.field(default_factory=list)
    verdict: object = None
    collapse: dict | None = None
    replay: dict | None = None

    @property
    def nranks(self) -> int:
        return len(self.stats)

    @property
    def total_time(self) -> float:
        """Virtual makespan: the latest rank clock."""
        return max((s.clock for s in self.stats), default=0.0)

    @property
    def comm_time(self) -> float:
        """Communication time as the paper reports it: max over ranks."""
        return max((s.comm_time for s in self.stats), default=0.0)

    @property
    def compute_time(self) -> float:
        """Computation time: max over ranks."""
        return max((s.compute_time for s in self.stats), default=0.0)

    @property
    def mean_comm_time(self) -> float:
        if not self.stats:
            return 0.0
        return sum(s.comm_time for s in self.stats) / len(self.stats)

    @property
    def total_messages(self) -> int:
        return sum(s.messages_sent for s in self.stats)

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes_sent for s in self.stats)

    # -- fault/recovery aggregates (all zero on fault-free runs) ----------

    @property
    def total_retries(self) -> int:
        """Messages retransmitted after injected drops, summed over ranks."""
        return sum(s.retries for s in self.stats)

    @property
    def total_timeouts(self) -> int:
        """Expired timed receives, summed over ranks."""
        return sum(s.timeouts for s in self.stats)

    @property
    def total_recoveries(self) -> int:
        """Receives that succeeded after escalation, summed over ranks."""
        return sum(s.recoveries for s in self.stats)

    @property
    def total_fault_delay(self) -> float:
        """Injected extra virtual seconds, summed over ranks."""
        return sum(s.fault_delay for s in self.stats)

    @property
    def faulted(self) -> bool:
        """True when any fault/recovery counter is nonzero."""
        return bool(self.total_retries or self.total_timeouts
                    or self.total_recoveries or self.total_fault_delay)

    def fault_summary(self) -> str:
        """One-line fault/recovery summary."""
        return (
            f"faults: {self.total_retries} retransmits, "
            f"{self.total_timeouts} timeouts, "
            f"{self.total_recoveries} recoveries, "
            f"{self.total_fault_delay:.6f}s injected delay"
        )

    def spans_for(self, rank: int) -> list[Span]:
        """Top-level spans of one rank, in open order."""
        return [s for s in self.spans if s.rank == rank]

    def iter_spans(self) -> Iterator[Span]:
        """Every recorded span (all ranks, all depths), depth-first."""
        return iter_spans(self.spans)

    @property
    def critical_rank(self) -> int:
        """The rank whose clock sets the makespan (lowest id on ties)."""
        if not self.stats:
            return 0
        return max(range(len(self.stats)), key=lambda r: self.stats[r].clock)

    def replay_summary(self) -> str:
        """One-line broadcast replay report ("" when there is none)."""
        if self.replay is None:
            return ""
        reasons = ", ".join(f"{n} {why}" for why, n in
                            sorted(self.replay["reasons"].items()))
        return (
            f"broadcasts: {self.replay['replayed']} replayed from "
            f"{self.replay['recorded']} recorded schedules, "
            f"{self.replay['expanded']} expanded"
            + (f" ({reasons})" if reasons else "")
            + (f", {self.replay['stepped']} of them stepped from their "
               "schedules" if self.replay["stepped"] else "")
        )

    def summary(self) -> str:
        """One-line human summary."""
        return (
            f"{self.nranks} ranks: total {self.total_time:.6f}s, "
            f"comm {self.comm_time:.6f}s, compute {self.compute_time:.6f}s, "
            f"{self.total_messages} msgs / {self.total_bytes} bytes"
        )
