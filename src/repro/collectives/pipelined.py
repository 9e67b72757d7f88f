"""Pipelined / hyper-systolic broadcast family.

Three segmented algorithms join the plain pipelined chain of
:mod:`repro.collectives.bcast`; all chop the message into ``S``
segments so later stages stream while earlier stages are forwarded
(and, in the overlap runners, while DGEMM runs):

``segmented``
    Pipelined *balanced binary tree*: relative rank ``vr`` has children
    ``2vr+1``/``2vr+2``; every non-root pre-posts all ``S`` segment
    receives, then forwards each segment to both children with blocking
    sends.  An inner node needs two sends per segment, so the steady
    cadence is ``2T`` per segment with ``T = alpha + (m/S)*beta``;
    the fill phase costs ``fill(p)`` slots (the deepest leaf's arrival
    slot of segment 0, :func:`repro.costs.registry.segmented_fill_slots`):

        ``t = (fill(p) + 2(S-1)) * T``   (``p >= 3``; ``S*T`` at p=2)

    Logarithmic fill like the binomial tree, pipelined drain like the
    chain — the tree analogue of the related repo's
    ``summa_manual_multicasting_pipelined``.

``fourcolor``
    Conflict-free *bidirectional ring* multicast, the 1-D projection of
    the related repo's ``summa_4color_pipelined`` torus schedule.  The
    message splits into ``2S`` segments; ``S`` flow clockwise
    (``0 -> 1 -> ... -> p-1``), ``S`` counter-clockwise
    (``0 -> p-1 -> ... -> 1``).  Each transfer carries a color
    ``2*direction + slot%2``; :func:`fourcolor_schedule` materialises
    the slot/link schedule and :func:`validate_link_coloring` proves no
    directed link is used twice in a slot (both ring directions of one
    link pair count as distinct full-duplex channels).  Every byte
    crosses each link once:

        ``t = (p - 2 + S) * (alpha + (m/(2S))*beta)``   (``p >= 3``)

``hypersystolic``
    Galli's generalized hyper-systolic ring (PAPERS.md): a coarse
    pipelined chain over anchor ranks ``0, K, 2K, ...`` with local
    pipelined chains inside each ``K``-group, stride ``K ~ sqrt(p)``
    chosen by :func:`repro.costs.registry.hypersystolic_stride`.
    Segment ``k`` reaches depth-``d`` ranks at slot ``d + k``; the
    deepest rank sits at depth ``D = max_a(a + g_a - 1)`` over group
    sizes ``g_a`` (:func:`repro.costs.registry.hypersystolic_depth`):

        ``t = (D + S - 1) * (alpha + (m/S)*beta)``

    Same bandwidth as the chain at roughly ``2*sqrt(p)`` fill latency.

Pacing discipline (all three): the engine's default rendezvous
semantics make a *blocking* send (or wait-on-isend) complete at
wire-clear, so senders pace one segment per slot by blocking on the
transfer(s) of the current segment.  Where a rank legitimately drives
two distinct full-duplex channels in the same slot (the root and
forwarders of ``fourcolor``; hyper-systolic anchors feeding the coarse
and local chains), it posts both isends and — at the root — waits for
both before the next segment.  Non-root fire-and-forget forwards are
collected and waited at the end: that costs zero virtual time (their
completions precede the makespan) but keeps the :mod:`repro.verify`
match graph free of never-waited sends.
"""

from __future__ import annotations

from typing import Any, Generator, NamedTuple

from repro.costs.registry import hypersystolic_stride
from repro.errors import ConfigurationError, SimulationError
from repro.payloads import join_payload, split_payload

Gen = Generator[Any, Any, Any]

#: Reserved tags, distinct residues mod 10 from the TAG_* families in
#: :mod:`repro.collectives.bcast` (-1..-4) and the IBcast family (-70-).
TAG_SEGMENTED = -5
TAG_FOURCOLOR_CW = -6    # clockwise stream (0 -> 1 -> ...)
TAG_FOURCOLOR_CCW = -7   # counter-clockwise stream (0 -> p-1 -> ...)
TAG_HS_COARSE = -8       # hyper-systolic anchor-to-anchor chain
TAG_HS_LOCAL = -9        # hyper-systolic within-group chain


def _rel(rank: int, root: int, size: int) -> int:
    return (rank - root) % size


def _abs(vrank: int, root: int, size: int) -> int:
    return (vrank + root) % size


def _nseg(segments: int | None, size: int) -> int:
    """Resolve the segment count (same size-oblivious default as the
    pipelined chain); reject nonsense eagerly."""
    if segments is None:
        return max(4, (size - 1).bit_length())
    if segments < 1:
        raise ConfigurationError(f"segments must be >= 1, got {segments}")
    return segments


# ---------------------------------------------------------------------------
# (a) segmented: pipelined balanced binary tree
# ---------------------------------------------------------------------------

def bcast_segmented(
    comm: Any, obj: Any, root: int, *, segments: int | None = None
) -> Gen:
    """Pipelined balanced binary tree (see module docstring)."""
    size = comm.size
    if size == 1:
        return obj
    vr = _rel(comm.rank, root, size)
    nseg = _nseg(segments, size)
    children = [_abs(c, root, size) for c in (2 * vr + 1, 2 * vr + 2)
                if c < size]

    if vr == 0:
        parts = split_payload(obj, nseg)
        for k, part in enumerate(parts):
            for child in children:
                yield from comm.send(part, child, tag=TAG_SEGMENTED - 10 * k)
        return obj

    # Pre-post every receive so the parent's stream is never throttled
    # by our forwarding sends.
    parent = _abs((vr - 1) // 2, root, size)
    handles = []
    for k in range(nseg):
        h = yield from comm.irecv(parent, tag=TAG_SEGMENTED - 10 * k)
        handles.append(h)
    parts = []
    for k in range(nseg):
        part = yield from comm.wait(handles[k])
        parts.append(part)
        for child in children:
            yield from comm.send(part, child, tag=TAG_SEGMENTED - 10 * k)
    return join_payload(parts)


# ---------------------------------------------------------------------------
# (b) fourcolor: conflict-free bidirectional ring multicast
# ---------------------------------------------------------------------------

class LinkStep(NamedTuple):
    """One wire transfer of the 4-color schedule."""

    slot: int    # discrete time slot (cadence T)
    src: int     # relative source rank
    dst: int     # relative destination rank
    color: int   # 2*direction + slot parity, in {0, 1, 2, 3}
    seg: int     # segment index within the stream


def fourcolor_schedule(
    p: int, segments: int, root: int = 0
) -> list[LinkStep]:
    """The slot-by-slot link schedule :func:`bcast_fourcolor` realises
    (relative ranks; ``root`` only shifts the absolute labels, so it is
    accepted and ignored beyond validation).

    Color classes: clockwise transfers get ``0``/``1`` by slot parity,
    counter-clockwise ``2``/``3`` — the 1-D shadow of the related
    repo's 4-color torus schedule, where same-colored transfers never
    share a directed link.
    """
    if p < 2:
        raise ConfigurationError(f"fourcolor schedule needs p >= 2, got {p}")
    if segments < 1:
        raise ConfigurationError(f"segments must be >= 1, got {segments}")
    if not 0 <= root < p:
        raise ConfigurationError(f"root {root} out of range for p={p}")
    if p == 2:
        return [LinkStep(slot=0, src=0, dst=1, color=0, seg=0)]
    steps = []
    for k in range(segments):
        # Clockwise: segment k leaves the root in slot k, crosses link
        # vr -> vr+1 in slot vr + k.
        for vr in range(p - 1):
            slot = vr + k
            steps.append(LinkStep(slot, vr, vr + 1, 2 * 0 + slot % 2, k))
        # Counter-clockwise: crosses vr+1 -> vr (mod p) in slot p-1-vr+k-1
        # ... i.e. link (vr+1) -> vr for vr in p-1..1; the root->p-1 hop
        # is slot k.
        for hop in range(p - 1):
            src = (p - hop) % p     # hop 0: root (0) -> p-1
            dst = p - 1 - hop      # stops at rank 1; the root holds all
            slot = hop + k
            steps.append(LinkStep(slot, src, dst, 2 * 1 + slot % 2, k))
    steps.sort()
    return steps


def validate_link_coloring(steps: list[LinkStep]) -> None:
    """Structural check: no directed link carries two transfers in the
    same slot, and every transfer's color matches its direction/parity
    class.  Raises :class:`~repro.errors.SimulationError` on the
    first conflict — the mutation tests seed one to prove the check
    bites."""
    seen: dict[tuple[int, int, int], LinkStep] = {}
    for st in steps:
        key = (st.slot, st.src, st.dst)
        other = seen.get(key)
        if other is not None:
            raise SimulationError(
                f"link-coloring conflict: link {st.src}->{st.dst} carries "
                f"segment {other.seg} and segment {st.seg} in slot {st.slot}"
            )
        seen[key] = st
        direction = 0 if st.dst == st.src + 1 else 1
        expected = 2 * direction + st.slot % 2
        if st.color != expected:
            raise SimulationError(
                f"link-coloring conflict: transfer {st.src}->{st.dst} in "
                f"slot {st.slot} has color {st.color}, expected {expected}"
            )


def bcast_fourcolor(
    comm: Any, obj: Any, root: int, *, segments: int | None = None
) -> Gen:
    """Conflict-free bidirectional ring multicast (see module docstring)."""
    size = comm.size
    if size == 1:
        return obj
    vr = _rel(comm.rank, root, size)
    nseg = _nseg(segments, size)

    if size == 2:
        # One link pair: a split gains nothing, send the message whole.
        if vr == 0:
            yield from comm.send(obj, _abs(1, root, size), tag=TAG_FOURCOLOR_CW)
            return obj
        return (yield from comm.recv(root, tag=TAG_FOURCOLOR_CW))

    right = _abs(vr + 1, root, size)
    left = _abs(vr - 1, root, size)

    if vr == 0:
        parts = split_payload(obj, 2 * nseg)
        for k in range(nseg):
            # Two distinct full-duplex channels (root->1, root->p-1):
            # post both, wait both — next segment pair leaves one slot
            # later.
            h_cw = yield from comm.isend(
                parts[k], right, tag=TAG_FOURCOLOR_CW - 10 * k)
            h_ccw = yield from comm.isend(
                parts[nseg + k], left, tag=TAG_FOURCOLOR_CCW - 10 * k)
            yield from comm.wait(h_cw)
            yield from comm.wait(h_ccw)
        return obj

    # Non-root: the clockwise stream arrives from vr-1 (forward to vr+1
    # unless we are the far end), the counter-clockwise stream from vr+1
    # (forward to vr-1 unless that is the root).
    cw_handles = []
    for k in range(nseg):
        h = yield from comm.irecv(left, tag=TAG_FOURCOLOR_CW - 10 * k)
        cw_handles.append(h)
    ccw_handles = []
    for k in range(nseg):
        h = yield from comm.irecv(right, tag=TAG_FOURCOLOR_CCW - 10 * k)
        ccw_handles.append(h)

    # Service segments in arrival-slot order (clockwise segment k lands
    # in slot vr+k, counter-clockwise in slot (p-vr)+k) so a near
    # stream's forward never waits behind a far stream's arrival.
    events = sorted(
        [(vr + k, 0, k) for k in range(nseg)]
        + [(size - vr + k, 1, k) for k in range(nseg)]
    )
    parts: list[Any] = [None] * (2 * nseg)
    forwards = []
    for _slot, stream, k in events:
        if stream == 0:
            part = yield from comm.wait(cw_handles[k])
            parts[k] = part
            if vr + 1 < size:
                h = yield from comm.isend(
                    part, right, tag=TAG_FOURCOLOR_CW - 10 * k)
                forwards.append(h)
        else:
            part = yield from comm.wait(ccw_handles[k])
            parts[nseg + k] = part
            if vr > 1:
                h = yield from comm.isend(
                    part, left, tag=TAG_FOURCOLOR_CCW - 10 * k)
                forwards.append(h)
    for h in forwards:
        yield from comm.wait(h)
    return join_payload(parts)


# ---------------------------------------------------------------------------
# (c) hypersystolic: Galli's generalized ring offsets
# ---------------------------------------------------------------------------

def bcast_hypersystolic(
    comm: Any, obj: Any, root: int, *, segments: int | None = None
) -> Gen:
    """Hyper-systolic segmented broadcast (see module docstring)."""
    size = comm.size
    if size == 1:
        return obj
    vr = _rel(comm.rank, root, size)
    nseg = _nseg(segments, size)
    stride = hypersystolic_stride(size)
    group, offset = divmod(vr, stride)
    group_end = min((group + 1) * stride, size)  # exclusive, relative

    if vr == 0:
        coarse_next = _abs(stride, root, size) if stride < size else None
        local_next = _abs(1, root, size) if group_end > 1 else None
        parts = split_payload(obj, nseg)
        for k, part in enumerate(parts):
            # Coarse and local successors sit on distinct channels;
            # post both, wait both, one segment per slot.
            pending = []
            if coarse_next is not None:
                pending.append((yield from comm.isend(
                    part, coarse_next, tag=TAG_HS_COARSE - 10 * k)))
            if local_next is not None:
                pending.append((yield from comm.isend(
                    part, local_next, tag=TAG_HS_LOCAL - 10 * k)))
            for h in pending:
                yield from comm.wait(h)
        return obj

    if offset == 0:
        source = _abs((group - 1) * stride, root, size)
        tag0 = TAG_HS_COARSE
    else:
        source = _abs(vr - 1, root, size)
        tag0 = TAG_HS_LOCAL
    handles = []
    for k in range(nseg):
        h = yield from comm.irecv(source, tag=tag0 - 10 * k)
        handles.append(h)

    coarse_next = None
    if offset == 0 and (group + 1) * stride < size:
        coarse_next = _abs((group + 1) * stride, root, size)
    local_next = _abs(vr + 1, root, size) if vr + 1 < group_end else None

    parts = []
    forwards = []
    for k in range(nseg):
        part = yield from comm.wait(handles[k])
        parts.append(part)
        if coarse_next is not None:
            forwards.append((yield from comm.isend(
                part, coarse_next, tag=TAG_HS_COARSE - 10 * k)))
        if local_next is not None:
            forwards.append((yield from comm.isend(
                part, local_next, tag=TAG_HS_LOCAL - 10 * k)))
    for h in forwards:
        yield from comm.wait(h)
    return join_payload(parts)
