"""Named, nestable spans over virtual time — the tracing vocabulary.

The paper's argument is an *attribution* argument: HSUMMA wins because
the broadcast phases shrink (Tables I/II, Figs. 5-9).  Flat per-rank
scalars cannot answer "how much of the makespan was the inter-group
broadcast vs. the intra-group broadcast vs. the local gemm?", so rank
programs (and the MPI layer automatically) open spans around the
phases they execute:

    yield from ctx.span("bcast.inter", step=k)
    comm, root, _ = grid.leg(0, 0, owner_col)
    a_piv = yield from comm.bcast(a_piv, root=root)
    yield from ctx.end_span()

A span is an interval of one rank's virtual clock.  Spans nest (each
collective opens a ``coll.*`` child inside whatever phase span is
open), carry free-form attributes, and are assembled by the engine
into per-rank trees exposed on
:class:`~repro.simulator.tracing.SimResult`.

Opening and closing a span costs **zero virtual time**: the requests
are absorbed inline by the engine without scheduling an event, so a
traced run produces bit-identical timings to an untraced one.  When
tracing is off (the default) the span helpers yield nothing at all and
the engine sees no requests — zero overhead of any kind.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterator, Mapping

from repro.errors import SimulationError
from repro.simulator.requests import _Request

#: Separator for span paths ("bcast.inter/coll.bcast").
PATH_SEP = "/"


class SpanOpenRequest(_Request):
    """Open a span named ``name`` on the yielding rank (zero time)."""

    __slots__ = ("name", "attrs")

    def __init__(self, name: str, attrs: Mapping[str, Any] | None = None):
        if not name:
            raise SimulationError("span name must be non-empty")
        self.name = name
        self.attrs = dict(attrs) if attrs else {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SpanOpen({self.name!r})"


class SpanCloseRequest(_Request):
    """Close the innermost open span (zero time).

    ``attrs`` are merged into the span at close time, so values only
    known at the end (e.g. the delivered payload size on a non-root
    broadcast rank) can still be recorded.
    """

    __slots__ = ("attrs",)

    def __init__(self, attrs: Mapping[str, Any] | None = None):
        self.attrs = dict(attrs) if attrs else {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "SpanClose()"


@dataclasses.dataclass(slots=True)
class Span:
    """One named interval of a rank's virtual clock.

    Attributes
    ----------
    name:
        Phase name; dotted by convention ("bcast.inter", "coll.bcast").
    rank:
        World rank the span ran on.
    start, end:
        Virtual open/close times.  ``end`` is patched when the span
        closes (spans still open when the rank finishes are closed at
        its final clock).
    attrs:
        Free-form annotations (step index, algorithm, payload bytes...).
    children:
        Spans opened while this one was open, in open order.
    """

    name: str
    rank: int
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = dataclasses.field(default_factory=dict)
    children: list["Span"] = dataclasses.field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration not covered by child spans (children are sequential
        on a single-threaded rank, so this is an exact subtraction)."""
        return self.duration - sum(c.duration for c in self.children)

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Iterator["Span"]:
        """Every span in this subtree named ``name``."""
        for span in self.walk():
            if span.name == name:
                yield span

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.name!r}, rank={self.rank}, "
            f"[{self.start:.3g}, {self.end:.3g}], "
            f"{len(self.children)} children)"
        )


class SpanRecorder:
    """Engine-side assembler of per-rank span trees.

    The engine forwards every :class:`SpanOpenRequest` /
    :class:`SpanCloseRequest` here with the yielding rank's current
    virtual clock; the recorder maintains one open-span stack per rank
    and collects completed top-level spans as roots.
    """

    def __init__(self, nranks: int):
        #: Per rank, every open span with its path (outermost first):
        #: joined once at open rather than once per transfer.
        self._stacks: list[list[tuple[Span, str]]] = [
            [] for _ in range(nranks)]
        self.roots: list[Span] = []
        #: Open spans across all ranks; zero on untraced runs, letting
        #: the engine skip the per-transfer current_path call entirely.
        self.nopen = 0

    def open(self, rank: int, name: str, attrs: dict[str, Any], time: float) -> None:
        span = Span(name=name, rank=rank, start=time, attrs=attrs)
        stack = self._stacks[rank]
        if stack:
            parent, path = stack[-1]
            parent.children.append(span)
            path += PATH_SEP + name
        else:
            self.roots.append(span)
            path = name
        stack.append((span, path))
        self.nopen += 1

    def close(self, rank: int, attrs: dict[str, Any], time: float) -> None:
        stack = self._stacks[rank]
        if not stack:
            raise SimulationError(
                f"rank {rank} closed a span but none is open"
            )
        span = stack.pop()[0]
        span.end = time
        if attrs:
            span.attrs.update(attrs)
        self.nopen -= 1

    def finish(self, rank: int, time: float) -> None:
        """Force-close anything still open when the rank's program ends."""
        stack = self._stacks[rank]
        while stack:
            stack.pop()[0].end = time
            self.nopen -= 1

    def current_path(self, rank: int) -> str | None:
        """Slash-joined names of the rank's open spans (outermost first),
        or None when no span is open — used to attribute transfers."""
        stack = self._stacks[rank]
        return stack[-1][1] if stack else None


def iter_spans(roots: list[Span]) -> Iterator[Span]:
    """Every span under ``roots``, depth-first in recording order."""
    for root in roots:
        yield from root.walk()


def phase_of(span_path: str | None) -> str | None:
    """Top-level phase name of a span path ("bcast.inter/coll.bcast"
    -> "bcast.inter"); None stays None."""
    if span_path is None:
        return None
    head, _, _ = span_path.partition(PATH_SEP)
    return head
