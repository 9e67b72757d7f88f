"""Ascii timelines from simulation traces and spans.

Two Gantt views over a traced :class:`~repro.simulator.SimResult`, one
row per rank, time bucketed into columns:

* :func:`render_timeline` — the *wire* view: each cell shows what
  transfer activity dominated that bucket (sending, receiving, both,
  or idle).  Meant for debugging schedules, e.g. seeing the lookahead
  pipeline of :mod:`repro.core.overlap` actually overlap.
* :func:`render_phase_timeline` — the *phase* view, built on the span
  trees of :mod:`repro.simulator.spans`: each cell shows which
  top-level phase span (``bcast.inter``, ``bcast.intra``, ``gemm``,
  ...) covered most of the bucket — the paper's two-phase broadcast
  structure made visible.

Both are for debugging and teaching, not for publication plots.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.simulator.tracing import SimResult

#: Cell glyphs: sending, receiving, both directions, idle.
GLYPH_SEND = "s"
GLYPH_RECV = "r"
GLYPH_BOTH = "x"
GLYPH_IDLE = "."

#: Preferred glyphs for the phase view's well-known span names;
#: anything else draws from ``_PHASE_FALLBACK`` in appearance order.
PHASE_GLYPHS = {
    "bcast.inter": "O",
    "bcast.intra": "i",
    "bcast.row": "a",
    "bcast.col": "b",
    "gemm": "#",
}
_PHASE_FALLBACK = "cdefghjklmnpqrtuvwyz"


def render_timeline(
    result: SimResult,
    *,
    width: int = 80,
    ranks: list[int] | None = None,
) -> str:
    """Render the transfer activity of a traced run.

    Parameters
    ----------
    result:
        A result produced with ``collect_trace=True`` (raises if the
        trace is empty but messages were sent).
    width:
        Number of time buckets (columns).
    ranks:
        Subset of ranks to show (default: all).
    """
    if width < 1:
        raise ConfigurationError(f"width must be >= 1, got {width}")
    if not result.trace and result.total_messages:
        raise ConfigurationError(
            "result has no trace; rerun the engine with collect_trace=True"
        )
    total = result.total_time
    if total <= 0:
        return "(empty timeline: no virtual time elapsed)"
    ranks = list(range(result.nranks)) if ranks is None else ranks
    rows = {r: [GLYPH_IDLE] * width for r in ranks}
    rankset = set(ranks)

    def buckets(start: float, finish: float) -> range:
        lo = min(width - 1, int(start / total * width))
        hi = min(width - 1, int(max(start, finish - 1e-18) / total * width))
        return range(lo, hi + 1)

    for rec in result.trace:
        if rec.src in rankset:
            row = rows[rec.src]
            for cell in buckets(rec.start, rec.finish):
                row[cell] = GLYPH_BOTH if row[cell] == GLYPH_RECV else GLYPH_SEND
        if rec.dst in rankset:
            row = rows[rec.dst]
            for cell in buckets(rec.start, rec.finish):
                row[cell] = GLYPH_BOTH if row[cell] == GLYPH_SEND else GLYPH_RECV

    label_w = max(len(f"rank {r}") for r in ranks)
    lines = [
        f"{'':>{label_w}} 0{'':{width - 2}}{total:.3g}s",
        f"{'':>{label_w}} {'-' * width}",
    ]
    for r in ranks:
        lines.append(f"{f'rank {r}':>{label_w}} {''.join(rows[r])}")
    lines.append(
        f"{'':>{label_w}} {GLYPH_SEND}=send {GLYPH_RECV}=recv "
        f"{GLYPH_BOTH}=both {GLYPH_IDLE}=no transfer"
    )
    return "\n".join(lines)


def render_phase_timeline(
    result: SimResult,
    *,
    width: int = 80,
    ranks: list[int] | None = None,
) -> str:
    """Render which phase span dominated each time bucket per rank.

    Parameters
    ----------
    result:
        A result produced with tracing on (``trace=True``) so its
        ``spans`` are populated (raises otherwise).
    width:
        Number of time buckets (columns).
    ranks:
        Subset of ranks to show (default: all).
    """
    if width < 1:
        raise ConfigurationError(f"width must be >= 1, got {width}")
    if not result.spans:
        raise ConfigurationError(
            "result has no spans; rerun with trace=True"
        )
    total = result.total_time
    if total <= 0:
        return "(empty timeline: no virtual time elapsed)"
    ranks = list(range(result.nranks)) if ranks is None else ranks

    # Deterministic glyph per phase: preferred glyphs for the known
    # names, then a fallback palette in order of first appearance.
    glyphs: dict[str, str] = {}
    fallback = iter(_PHASE_FALLBACK)
    for span in result.spans:
        if span.name in glyphs:
            continue
        glyphs[span.name] = PHASE_GLYPHS.get(span.name) or next(fallback, "?")

    bucket_len = total / width
    rows = {}
    for r in ranks:
        # Dominant phase per bucket: accumulate covered time per phase.
        cover = [dict() for _ in range(width)]
        for span in result.spans_for(r):
            if span.duration <= 0:
                continue
            lo = min(width - 1, int(span.start / total * width))
            hi = min(width - 1, int(max(span.start, span.end - 1e-18)
                                     / total * width))
            for cell in range(lo, hi + 1):
                c0, c1 = cell * bucket_len, (cell + 1) * bucket_len
                overlap = min(span.end, c1) - max(span.start, c0)
                if overlap > 0:
                    acc = cover[cell]
                    acc[span.name] = acc.get(span.name, 0.0) + overlap
        row = []
        for acc in cover:
            if not acc:
                row.append(GLYPH_IDLE)
            else:
                name = max(acc, key=lambda n: (acc[n], n))
                row.append(glyphs[name])
        rows[r] = row

    label_w = max(len(f"rank {r}") for r in ranks)
    lines = [
        f"{'':>{label_w}} 0{'':{width - 2}}{total:.3g}s",
        f"{'':>{label_w}} {'-' * width}",
    ]
    for r in ranks:
        lines.append(f"{f'rank {r}':>{label_w}} {''.join(rows[r])}")
    legend = " ".join(f"{g}={name}" for name, g in glyphs.items())
    lines.append(f"{'':>{label_w}} {legend} {GLYPH_IDLE}=outside spans")
    return "\n".join(lines)
