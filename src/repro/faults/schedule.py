"""Seedable, deterministic fault schedules.

Every stochastic decision is a pure function of the schedule's ``seed``
and of *structural* coordinates (rank, link endpoint, per-channel
message ordinal, attempt number) rather than of wall-clock state or
event-processing order.  Two consequences the tests pin down:

* **Replayability** — the same seed and spec produce the same fault
  sequence in any fresh engine.
* **Severity monotonicity** — for a fixed seed, raising a drop
  probability only *adds* drops (each decision compares the same
  deterministic uniform variate against the larger threshold), and
  degradation/slowdown multipliers scale durations directly, so
  virtual completion times are monotonically non-decreasing in fault
  severity (property-tested in ``tests/property``).

Message ordinals are per ``(src, dst, tag)`` channel.  Channels are
FIFO in the engine, and a rank program's send sequence on a channel is
fixed by the algorithm, so the ordinal of a message is independent of
timing — which is what makes the drop decisions replay identically
even when other faults shift the global event order.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable

from repro.errors import ConfigurationError
from repro.util.validation import require_finite

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def unit_hash(seed: int, *coords: int) -> float:
    """Deterministic uniform variate in ``[0, 1)`` from integer coords.

    Independent of ``PYTHONHASHSEED`` and of platform: only integer
    arithmetic on 64-bit words.
    """
    x = _splitmix64(seed & _MASK64)
    for c in coords:
        x = _splitmix64(x ^ (c & _MASK64))
    return x / float(1 << 64)


def chan_digest(tag: object) -> int:
    """Stable 64-bit digest of an engine channel tag.

    Engine tags are ints at the raw-simulator level but nested tuples
    (communicator id + user tag, themselves containing ints/strings) at
    the MPI level.  Python's ``hash`` is salted per process for
    strings, so drop decisions fold the tag through splitmix64 instead
    — the digest is identical across processes and platforms.
    """
    if isinstance(tag, bool):  # bool is an int subclass; keep it distinct
        return _splitmix64(2 if tag else 3)
    if isinstance(tag, int):
        return tag & _MASK64
    if tag is None:
        return _splitmix64(1)
    if isinstance(tag, str):
        x = _splitmix64(5)
        for byte in tag.encode("utf-8"):
            x = _splitmix64(x ^ byte)
        return x
    if isinstance(tag, tuple):
        x = _splitmix64(7 ^ len(tag))
        for item in tag:
            x = _splitmix64(x ^ chan_digest(item))
        return x
    raise ConfigurationError(
        f"cannot digest channel tag of type {type(tag).__name__}"
    )


def _require_window(t0: float, t1: float) -> None:
    require_finite(t0, "fault window start t0")
    require_finite(t1, "fault window end t1", inf_ok=True)
    if t1 < t0:
        raise ConfigurationError(f"fault window end {t1} before start {t0}")


@dataclasses.dataclass(frozen=True)
class LinkDegradation:
    """Multiply a link's Hockney parameters inside a time window.

    ``src``/``dst`` of ``None`` match any endpoint; the window is
    ``[t0, t1)`` against the transfer's (attempt) start time.  The
    alpha/beta split is recovered from the network model as
    ``alpha = transfer_time(src, dst, 0)`` — exact for every affine
    (Hockney-style) cost model in this repository.
    """

    alpha_mult: float = 1.0
    beta_mult: float = 1.0
    src: int | None = None
    dst: int | None = None
    t0: float = 0.0
    t1: float = math.inf

    def __post_init__(self) -> None:
        require_finite(self.alpha_mult, "alpha_mult")
        require_finite(self.beta_mult, "beta_mult")
        if self.alpha_mult < 1.0 or self.beta_mult < 1.0:
            raise ConfigurationError(
                "degradation multipliers must be >= 1 "
                f"(got alpha={self.alpha_mult}, beta={self.beta_mult})"
            )
        _require_window(self.t0, self.t1)

    def matches(self, src: int, dst: int, t: float) -> bool:
        return (
            (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
            and self.t0 <= t < self.t1
        )


@dataclasses.dataclass(frozen=True)
class MessageDrop:
    """Transient message loss: each delivery attempt on a matching link
    inside ``[t0, t1)`` is dropped with probability ``p``.

    Dropped attempts are retransmitted automatically by the engine
    (wire time wasted plus :class:`RetryPolicy` backoff), so payloads
    always arrive and numerics are unaffected — only virtual time and
    the retry counters change.
    """

    p: float
    src: int | None = None
    dst: int | None = None
    t0: float = 0.0
    t1: float = math.inf

    def __post_init__(self) -> None:
        if not (0.0 <= self.p < 1.0):
            raise ConfigurationError(
                f"drop probability must be in [0, 1), got {self.p}"
            )
        _require_window(self.t0, self.t1)

    def matches(self, src: int, dst: int, t: float) -> bool:
        return (
            (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
            and self.t0 <= t < self.t1
        )


@dataclasses.dataclass(frozen=True)
class RankSlowdown:
    """Straggler: multiply a rank's compute durations inside a window.

    The factor is sampled at the start of each compute request; a
    request spanning the window boundary is scaled as a whole.
    """

    rank: int
    factor: float
    t0: float = 0.0
    t1: float = math.inf

    def __post_init__(self) -> None:
        require_finite(self.factor, "slowdown factor")
        if self.factor < 1.0:
            raise ConfigurationError(
                f"slowdown factor must be >= 1, got {self.factor}"
            )
        _require_window(self.t0, self.t1)

    def matches(self, rank: int, t: float) -> bool:
        return self.rank == rank and self.t0 <= t < self.t1


@dataclasses.dataclass(frozen=True)
class RankDeath:
    """Fail-stop: the rank dies at virtual ``time``.

    The engine raises :class:`repro.errors.RankFailure` at that instant
    unless the rank's program has already finished.
    """

    rank: int
    time: float

    def __post_init__(self) -> None:
        require_finite(self.time, "death time")
        if self.time < 0:
            raise ConfigurationError(f"death time must be >= 0, got {self.time}")


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Backoff and timeout knobs for recovery mechanisms.

    Used in two places: the engine's automatic retransmission of
    dropped messages (``backoff*``, ``max_retransmits``) and the MPI
    layer's timed receives / fault-tolerant broadcast (``timeout*``,
    ``max_attempts``).
    """

    timeout: float = 0.05
    timeout_multiplier: float = 2.0
    backoff: float = 1e-4
    backoff_multiplier: float = 2.0
    max_backoff: float = 1e-2
    max_retransmits: int = 64
    max_attempts: int = 8

    def __post_init__(self) -> None:
        for name in ("timeout", "timeout_multiplier", "backoff",
                     "backoff_multiplier", "max_backoff"):
            require_finite(getattr(self, name), f"retry {name}")
        if self.timeout <= 0 or self.backoff < 0 or self.max_backoff < 0:
            raise ConfigurationError("retry policy times must be positive")
        if self.timeout_multiplier < 1 or self.backoff_multiplier < 1:
            raise ConfigurationError("retry multipliers must be >= 1")
        if self.max_retransmits < 1 or self.max_attempts < 1:
            raise ConfigurationError("retry attempt caps must be >= 1")

    def backoff_delay(self, attempt: int) -> float:
        """Delay before retransmit number ``attempt`` (0-based)."""
        return min(self.backoff * self.backoff_multiplier**attempt,
                   self.max_backoff)

    def escalation_timeout(self, level: int) -> float:
        """Timed-receive window for escalation ``level`` (0-based)."""
        return self.timeout * self.timeout_multiplier**level


DEFAULT_RETRY_POLICY = RetryPolicy()


class FaultSchedule:
    """A deterministic set of faults plus the recovery policy.

    Parameters
    ----------
    seed:
        Seed for every stochastic decision (message drops).
    faults:
        Any mix of :class:`LinkDegradation`, :class:`MessageDrop`,
        :class:`RankSlowdown` and :class:`RankDeath`.
    retry:
        :class:`RetryPolicy` governing the engine's retransmission
        backoff (and the default for MPI-layer retries).
    """

    def __init__(
        self,
        seed: int = 0,
        faults: Iterable[object] = (),
        retry: RetryPolicy | None = None,
    ) -> None:
        self.seed = int(seed)
        self.retry = retry or DEFAULT_RETRY_POLICY
        self.degradations: tuple[LinkDegradation, ...] = ()
        self.drops: tuple[MessageDrop, ...] = ()
        self.slowdowns: tuple[RankSlowdown, ...] = ()
        self.deaths: tuple[RankDeath, ...] = ()
        for fault in faults:
            if isinstance(fault, LinkDegradation):
                self.degradations += (fault,)
            elif isinstance(fault, MessageDrop):
                self.drops += (fault,)
            elif isinstance(fault, RankSlowdown):
                self.slowdowns += (fault,)
            elif isinstance(fault, RankDeath):
                self.deaths += (fault,)
            else:
                raise ConfigurationError(
                    f"unknown fault {fault!r}; expected LinkDegradation, "
                    "MessageDrop, RankSlowdown or RankDeath"
                )
        seen: dict[int, float] = {}
        for death in self.deaths:
            if death.rank in seen:
                raise ConfigurationError(
                    f"rank {death.rank} has two death times "
                    f"({seen[death.rank]} and {death.time})"
                )
            seen[death.rank] = death.time

    # -- queries (all pure) -------------------------------------------------

    @property
    def transient_only(self) -> bool:
        """True when the schedule contains no fail-stop deaths."""
        return not self.deaths

    def compute_factor(self, rank: int, t: float) -> float:
        """Compute-duration multiplier for ``rank`` at time ``t``."""
        factor = 1.0
        for slow in self.slowdowns:
            if slow.matches(rank, t):
                factor *= slow.factor
        return factor

    def link_factors(self, src: int, dst: int, t: float) -> tuple[float, float]:
        """(alpha multiplier, beta multiplier) for the link at ``t``."""
        am = bm = 1.0
        for deg in self.degradations:
            if deg.matches(src, dst, t):
                am *= deg.alpha_mult
                bm *= deg.beta_mult
        return am, bm

    def transfer_time(self, network, src: int, dst: int,
                      nbytes: int, t: float, clean: float) -> float:
        """Possibly-degraded wire time for one delivery attempt;
        ``clean`` is the fault-free ``network.transfer_time(src, dst,
        nbytes)``, which the caller prices once per message."""
        if not self.degradations or src == dst:
            return clean
        am, bm = self.link_factors(src, dst, t)
        if am == 1.0 and bm == 1.0:
            return clean
        alpha = network.transfer_time(src, dst, 0)
        return am * alpha + bm * (clean - alpha)

    def drop(self, src: int, dst: int, chan: int, ordinal: int,
             attempt: int, t: float) -> bool:
        """Is delivery ``attempt`` of message ``ordinal`` on channel
        ``chan`` (a stable integer digest of the tag) dropped?

        The variate depends only on structural coordinates, never on
        ``t`` or ``p`` — raising any probability can therefore only
        add drops, never remove one (severity monotonicity).
        """
        p = 0.0
        for drop in self.drops:
            if drop.matches(src, dst, t):
                p = 1.0 - (1.0 - p) * (1.0 - drop.p)
        if p <= 0.0:
            return False
        return unit_hash(self.seed, src, dst, chan, ordinal, attempt) < p

    def death_events(self) -> tuple[RankDeath, ...]:
        """All fail-stop deaths, ordered by time then rank."""
        return tuple(sorted(self.deaths, key=lambda d: (d.time, d.rank)))

    # -- introspection ------------------------------------------------------

    @property
    def empty(self) -> bool:
        return not (self.degradations or self.drops
                    or self.slowdowns or self.deaths)

    def describe(self) -> str:
        """One-line human summary (CLI echo)."""
        parts = []
        if self.drops:
            parts.append(f"{len(self.drops)} drop rule(s)")
        if self.degradations:
            parts.append(f"{len(self.degradations)} degraded link rule(s)")
        if self.slowdowns:
            parts.append(f"{len(self.slowdowns)} slowdown(s)")
        if self.deaths:
            parts.append(f"{len(self.deaths)} fail-stop death(s)")
        body = ", ".join(parts) if parts else "no faults"
        return f"FaultSchedule(seed={self.seed}: {body})"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self.describe()
