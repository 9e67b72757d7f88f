"""Symmetry-collapsed execution of the macro backend.

An SPMD run of a SUMMA-family algorithm on a homogeneous network has
only O(grid-dimension) *distinct* rank behaviours: rank ``(i, j)``'s
entire timeline — which collectives it announces, the guards it takes,
the sizes it ships, the virtual times it observes — is a function of
its structural role (inner coordinates modulo the group grid), not of
``(i, j)`` itself.  The per-rank macro backend nevertheless steps all
``s*t`` generators; at p=16384 that is tens of millions of generator
resumes pricing collectives whose answers repeat ``O(s)``-fold.

This module collapses that redundancy without giving up exactness:

* A runner *declares* its symmetry as a :class:`GridSymmetry` — which
  rows/columns of the grid form a covering **probe set**, and how a
  communicator's context id maps to an **equivalence class** of comms
  with bit-identical (start, finish) behaviour.  Non-2D layouts (the
  DNS 3-D mesh, the 2.5D layer stack) fill in the same declaration
  (:func:`dns3d_symmetry` / :func:`summa25d_symmetry`).
* :class:`CollapsedMacroEngine` steps only the probed ranks' generators
  through the inherited macro machinery (structure-of-arrays state for
  everyone else).  A collective whose participants are all probed fires
  normally and records a *memo* for its class; a collective with only
  some participants probed is satisfied from the memo — after checking
  the arrival clock, signature and payload size match it exactly.
  Classes in ``rotated`` match memos up to a root rotation (Fox's
  rotating pivot, the DNS axis broadcasts).
* A coster priced by placement (``TopologyCoster`` on the BG/P torus)
  is as good as a participant-invariant one once every class sits on
  one ``network.placement_key``: SUMMA, HSUMMA and cyclic enumerate
  their communicators (``GridSymmetry.communicators``),
  :meth:`GridSymmetry.placed` proves the single key per class before
  anything is stepped, and the engine checks each communicator it
  observes against the declared members.
* Point-to-point traffic on tags listed in ``p2p_tags`` collapses by
  the same congruence: every probed rank's n-th send/recv on a tag to
  a partner *class* must post at the same clock with the same size as
  every other member of its own class (verified en route), so the wire
  times — computed with the exact float operations of the fused DES
  path — depend only on (my class, partner class, occurrence).
* Any observation the congruence argument cannot cover — undeclared
  tags, timed receives, nonblocking handles, spans, unknown
  communicators, a clock past the memoed start, concrete (non-phantom)
  payloads, leftover parked ranks — raises :class:`SymmetryBroken`, and
  :meth:`~repro.simulator.backends.MacroBackend.run_with_factory` falls
  back to the per-rank path with fresh generators.
* At the end, the unprobed ranks' stats and return values are
  replicated from their probed *twin* (the symmetry's ``twin_indices``
  map; ``(i mod probe_rows, j mod probe_cols)`` for plain grids) via
  numpy gathers.  By the congruence argument (docs/cost_model.md,
  "Rank equivalence classes") the twin's floats are bit-identical to
  what the per-rank run would have produced, so the assembled
  :class:`~repro.simulator.tracing.SimResult` — including the
  max-over-ranks times — is exact, not approximate.

The collapse is *attempted*, never assumed: every run either proves its
own symmetry en route or falls back, and the property suite pins
bit-identity against the per-rank implementation.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Hashable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import DeadlockError, SimulationError
from repro.mpi.cart import level_splits
from repro.network.model import Network
from repro.payloads import PhantomArray
from repro.simulator.backends import MacroBackend
from repro.simulator.engine import RankProgram, _PARKED, _RankState
from repro.simulator.requests import (
    CollectiveReply,
    CollectiveRequest,
    RecvRequest,
    SendRecvRequest,
    SendRequest,
)
from repro.simulator.tracing import RankStats, SimResult


class SymmetryBroken(Exception):
    """The run made an observation the declared symmetry cannot cover.

    Internal control flow: callers
    (:meth:`~repro.simulator.backends.MacroBackend.run_with_factory`)
    catch it and rerun per-rank.  Never escapes to user code.
    """


def _const(color: Any) -> int:
    """Class-key callable: all communicators of this child sequence
    behave identically (one class)."""
    return 0


@dataclasses.dataclass(frozen=True)
class GridSymmetry:
    """A runner's declaration of its rank-equivalence structure — the
    one type every layout fills in (the factory functions at the bottom
    of this module: plain and torus-shift 2-D grids, the DNS 3-D mesh,
    the 2.5D layer stack).

    Parameters
    ----------
    nranks:
        World size of the declared run.
    probe:
        World ranks in the probe set, ascending.  It must be chosen so
        that every equivalence class of communicators contains at least
        one comm whose participants are *all* probed (the class
        primary), and so that ``twin_indices`` maps every rank onto a
        behavioural twin inside the probe set.
    twin_indices:
        Probed behavioural twin per world rank (vectorised over a
        numpy array of ranks).  Ranks sharing a twin also form one
        point-to-point class: they post their sends/receives in
        lockstep.
    class_keys:
        Maps a communicator's world child sequence number (``cid[0]``
        for depth-1 communicators) to a callable turning its split
        color (``cid[1]``) into a class subkey.  Comms with equal
        ``(child_seq, subkey)`` must announce in lockstep: same
        per-comm collective sequence numbering, same (start, finish),
        same signature, same per-member payload sizes.  An announcement
        on any other communicator breaks the symmetry.
    rotated:
        Child sequence numbers whose comms match their class memo up to
        a rotation of the root (Fox's ``(i + k) % q`` pivot, the DNS
        axis broadcasts rooted at the layer index): signature and
        per-member sizes are compared after rotating the root to
        position 0, and a joining member reads the memo at its
        root-relative position.  Sound only for costers that never read
        the root (a collapse precondition: participant- and
        placement-invariant costers alike).
    p2p_tags:
        Base tags whose point-to-point traffic collapses by class
        congruence (see :class:`CollapsedMacroEngine`).  Any traffic on
        other tags, or any nonblocking/timed primitive, breaks the
        symmetry.
    communicators:
        Enumerates every communicator of the families in
        ``class_keys`` as ``(class key, members in split order)``.  A
        coster priced by placement (``placement_invariant``) answers a
        class alike only if all its communicators share one
        ``network.placement_key``; :meth:`placed` proves that before
        anything is stepped.  ``None`` declares nothing, and such
        costers then run per rank.
    placements:
        Set by :meth:`placed`, never by hand: class key ->
        ``(placement key, set of member tuples)``.
    """

    nranks: int
    probe: tuple[int, ...]
    twin_indices: Callable[[np.ndarray], np.ndarray]
    class_keys: Mapping[int, Callable[[Any], Any]]
    rotated: frozenset = frozenset()
    p2p_tags: frozenset = frozenset()
    communicators: Callable[[], Iterator[tuple[Any, tuple]]] | None = None
    placements: Mapping[Any, tuple[Hashable, set]] | None = None

    def __post_init__(self) -> None:
        if self.nranks <= 0 or not self.probe:
            raise SimulationError(
                f"a symmetry needs ranks and a probe set: {self.nranks} "
                f"ranks, {len(self.probe)} probed")
        seen: set[int] = set()
        for rank in self.probe:
            if not 0 <= rank < self.nranks:
                raise SimulationError(
                    f"probe rank {rank} is outside the {self.nranks}-rank "
                    f"world")
            if rank in seen:
                raise SimulationError(f"probe rank {rank} is listed twice")
            seen.add(rank)

    @property
    def covers_grid(self) -> bool:
        """True when the probe set is the whole grid (no collapse win)."""
        return len(self.probe) == self.nranks

    def placed(self, network: Network) -> GridSymmetry | None:
        """This declaration with every class bound to its one placement
        key on ``network``, or None when some class spans several.
        One ``placement_key`` per declared communicator; nothing is
        stepped."""
        placements: dict[Any, tuple[Hashable, set]] = {}
        for ckey, members in self.communicators():
            pkey = network.placement_key(members)
            hit = placements.get(ckey)
            if hit is None:
                placements[ckey] = (pkey, {members})
            elif hit[0] != pkey:
                return None
            else:
                hit[1].add(members)
        return dataclasses.replace(self, placements=placements)

    def class_key(self, cid: tuple) -> tuple:
        """Equivalence class of the communicator with context id ``cid``."""
        if len(cid) != 2:
            raise SymmetryBroken(
                f"collective on unexpected communicator depth: cid={cid!r}")
        child_seq, color = cid
        fn = self.class_keys.get(child_seq)
        if fn is None:
            raise SymmetryBroken(
                f"collective on undeclared communicator family "
                f"(child seq {child_seq})")
        return (child_seq, fn(color))


@dataclasses.dataclass(slots=True)
class _Memo:
    """What one class primary observed for one collective sequence."""

    op: str
    algorithm: str | None
    root: int | None
    segments: int | None
    p: int
    start: float
    finish: float
    nbytes_by_me: list
    results: list


def _phantom_ok(value: Any) -> bool:
    """True when ``value`` carries no concrete data a partial comm's
    unobserved members could have influenced."""
    if value is None or isinstance(value, PhantomArray):
        return True
    if isinstance(value, (list, tuple)):
        return all(_phantom_ok(v) for v in value)
    return False


def _rotate(values: Sequence, root: int) -> list:
    """``values`` re-based so the root sits at position 0."""
    if not root:
        return list(values)
    return list(values[root:]) + list(values[:root])


class CollapsedMacroEngine(MacroBackend):
    """Macro backend stepping only the probe set of a symmetric grid.

    Constructed internally by
    :meth:`~repro.simulator.backends.MacroBackend.run_with_factory`;
    raises :class:`SymmetryBroken` the moment the run strays outside
    the declared symmetry (the caller then falls back per-rank).

    Point-to-point collapse: for tags in ``symmetry.p2p_tags``, the
    posts of one class to one partner class on one wire tag form a
    *stream* — ``(post clock, nbytes, payload)`` indexed by occurrence
    — and every member's n-th post is checked against the stream's
    n-th entry (same post clock, same size, phantom payloads only).  A
    probed rank reaches its streams through a *lane* per ``(leg, wire
    tag, peer)``, resolved on first use (:meth:`_lane`).  A send
    completes against the partner *class's* receive stream at the same
    occurrence and vice versa, reproducing the DES sendrecv's float
    operations — ``finish = max(post, partner_post) + wire`` per leg,
    the receive leg's comm charge first, then the send tail — exactly.
    Sends charge ``messages_sent``/``bytes_sent`` to the sender as in
    the DES, and the counters replicate to twins at assembly.
    """

    _RUN_TABLES = MacroBackend._RUN_TABLES + (
        "_memos", "_parked", "_posts", "_waiters", "_occ")

    def __init__(
        self,
        network: Network,
        *,
        symmetry: GridSymmetry,
        coster: Any = None,
        max_events: int = 200_000_000,
    ) -> None:
        super().__init__(network, coster=coster, max_events=max_events)
        self.symmetry = symmetry

    # -- run loop: Engine.run for a sparse rank subset ---------------------

    def run(self, programs: Sequence[RankProgram]) -> SimResult:
        """Step ``symmetry.probe`` of ``programs`` — a sized sequence
        indexable by rank, of which only the probed ranks are ever
        asked for (the sequence :func:`repro.core.launch.rank_programs`
        returns builds nothing else; their twins stand in for the
        rest)."""
        nranks = len(programs)
        sym = self.symmetry
        if nranks != sym.nranks:
            raise SimulationError(
                f"{nranks} programs but symmetry declares "
                f"{sym.nranks} ranks")
        if nranks > self.network.nranks:
            raise SimulationError(
                f"{nranks} programs but network only models "
                f"{self.network.nranks} ranks")

        if sym.p2p_tags:
            # The p2p collapse replicates wire times measured between
            # *probe* ranks onto their twins; only a uniform network
            # makes those times pair-independent.
            from repro.network.homogeneous import HomogeneousNetwork

            if not isinstance(self.network, HomogeneousNetwork):
                raise SymmetryBroken(
                    "point-to-point collapse requires a uniform network")

        self._setup(nranks)
        try:
            return self._run_probe(programs, nranks)
        finally:
            self._release()

    def _setup(self, nranks: int) -> None:
        super()._setup(nranks)
        #: (class key, seq) -> _Memo recorded by the class primary.
        self._memos: dict[tuple, _Memo] = {}
        #: (class key, seq) -> [(state, request)] waiting for a primary.
        self._parked: dict[tuple, list] = {}
        #: cid -> (all members probed?, class key, price key, rotated?).
        self._comms: dict[tuple, tuple] = {}
        #: p2p class-post streams: (kind, class, wire tag, partner
        #: class) -> (posts [(post clock, nbytes, payload)] indexed by
        #: occurrence, {member rank: [its next occurrence]}).
        self._posts: dict[tuple, tuple] = {}
        #: (id of a stream's post list, occurrence) -> [op spec] parked
        #: until that post exists.
        self._waiters: dict[tuple, list] = {}
        #: p2p lanes (see _lane): wire tag -> {rank << 33 | peer << 1
        #: | leg: lane}.
        self._occ: dict[tuple, dict] = {}
        self._twin_of: dict[int, int] = {}

    def _setup_matching(self) -> None:
        """None: point-to-point is collapsed per class (_post_p2p)."""

    def _run_probe(self, programs: Sequence[RankProgram],
                   nranks: int) -> SimResult:
        probe = self.symmetry.probe
        probed = bytearray(nranks)
        for r in probe:
            probed[r] = 1
        self._probed = probed
        self._ranks.extend(_RankState(r, programs[r]) for r in probe)

        for state in self._ranks:
            self._resume(state, None, state.stats.clock)
        try:
            self._drain("collapsed run")
        except DeadlockError as stuck:
            # Either an equivalence class never produced a fully-probed
            # primary (the declaration is too coarse for this run) or a
            # genuine deadlock; the per-rank fallback distinguishes them.
            raise SymmetryBroken(str(stuck)) from None
        if self._parked or self._pending or self._waiters:
            raise SymmetryBroken(
                "collectives or point-to-point ops left waiting at end "
                "of run")
        return self._assemble(nranks)

    # -- collective hook ---------------------------------------------------

    def _collective(
        self, state: _RankState, request: CollectiveRequest, now: float
    ) -> bool:
        if len(request.participants) <= 1:
            return False  # free no-op; expand for the exact result
        comm = self._comms.get(request.cid)
        if comm is None:
            comm = self._observe(request)
        if comm[0]:
            self._park(state, request, now)
            return True
        state.blocked_on = request
        state.block_start = now
        mkey = (comm[1], request.seq)
        memo = self._memos.get(mkey)
        if memo is not None:
            self._join(state, request, memo, comm[3])
        else:
            self._parked.setdefault(mkey, []).append((state, request))
        return True

    def _observe(self, request: CollectiveRequest) -> tuple:
        """Record a communicator on first sight: whether all its members
        are probed, its class key, the key it is priced by — its size
        under a participant-invariant coster, else its class's one
        placement key, once its members are checked to be declared
        ones — and whether its family matches memos up to a root
        rotation."""
        members = request.participants
        ckey = self.symmetry.class_key(request.cid)
        placements = self.symmetry.placements
        if placements is None:
            price = len(members)
        else:
            placed = placements.get(ckey)
            if placed is None or members not in placed[1]:
                raise SymmetryBroken(
                    f"communicator {request.cid!r} is not one the "
                    f"symmetry declares for class {ckey!r}")
            price = placed[0]
        probed = self._probed
        comm = self._comms[request.cid] = (
            all(probed[r] for r in members), ckey, price,
            request.cid[0] in self.symmetry.rotated)
        return comm

    def _filled(self, entry: list) -> None:
        """Fire a fully-probed collective; record or verify its memo."""
        req0 = entry[0][1]
        _, ckey, _, rotated = self._comms[req0.cid]
        mkey = (ckey, req0.seq)
        p = len(req0.participants)
        start, finish, nbytes_by_me, results = self._price(entry)
        root = req0.root or 0
        memo = self._memos.get(mkey)
        if memo is None:
            self._memos[mkey] = memo = _Memo(
                req0.op, req0.algorithm, req0.root, req0.segments, p,
                start, finish, nbytes_by_me, results,
            )
            waiting = self._parked.pop(mkey, None)
            if waiting:
                for st, req in waiting:
                    self._join(st, req, memo, rotated)
        elif (memo.start != start or memo.finish != finish
              or memo.op != req0.op or memo.algorithm != req0.algorithm
              or memo.segments != req0.segments or memo.p != p
              or (memo.root != req0.root if not rotated
                  else _rotate(memo.nbytes_by_me, memo.root or 0)
                  != _rotate(nbytes_by_me, root))
              or (not rotated and memo.nbytes_by_me != nbytes_by_me)):
            # Two primaries of one class disagreed: the class key is
            # too coarse for this run.
            raise SymmetryBroken(
                f"class {mkey[0]!r} primaries diverged at seq {mkey[1]}")
        self._events.push(
            finish, self._collective_done, (entry, results, finish)
        )

    def _duration_key(self, req0: CollectiveRequest, root: int,
                      nbytes: int) -> tuple:
        # A collapse prices a communicator by its size or, under a
        # placement-invariant coster, by its class's placement key (see
        # _observe), so the duration memo can drop the participant
        # tuple — same float, one coster call per class.
        return (req0.op, req0.algorithm, self._comms[req0.cid][2], root,
                nbytes, req0.segments)

    def _join(self, state: _RankState, request: CollectiveRequest,
              memo: _Memo, rotated: bool) -> None:
        """Satisfy a partially-probed member from its class memo."""
        if (request.op != memo.op
                or request.algorithm != memo.algorithm
                or (not rotated and request.root != memo.root)
                or request.segments != memo.segments
                or len(request.participants) != memo.p):
            raise SymmetryBroken(
                f"rank {state.stats.rank} announced "
                f"{request.op}/{request.algorithm} diverging from its "
                f"class memo")
        if rotated:
            # Read the memo at the root-relative position: the class
            # matches up to a rotation of the (participant-invariant)
            # root, so position `me` under root `r` corresponds to
            # position `me - r + memo.root` under the memoed root.
            me = (request.me - (request.root or 0)
                  + (memo.root or 0)) % memo.p
        else:
            me = request.me
        if request.nbytes != memo.nbytes_by_me[me]:
            raise SymmetryBroken(
                f"rank {state.stats.rank} announced {request.nbytes} "
                f"bytes, diverging from its class memo")
        if state.stats.clock > memo.start:
            raise SymmetryBroken(
                f"rank {state.stats.rank} arrived at "
                f"{state.stats.clock!r}, after its class started at "
                f"{memo.start!r}")
        value = memo.results[me]
        if not _phantom_ok(value):
            raise SymmetryBroken(
                "collective carries concrete data; unobserved members "
                "could contribute different values")
        self._events.push(memo.finish, self._joined,
                          (state, value, memo.finish))

    def _joined(self, state: _RankState, value: Any, finish: float) -> None:
        # MacroBackend._collective_done for one member: comm_time +=
        # finish - block_start, then resume with a CollectiveReply —
        # the same float operations the rank's own communicator would
        # have produced, since by congruence its start/duration equal
        # the memoed ones.
        state.stats.comm_time += finish - state.block_start
        self._resume(state, CollectiveReply(value), finish)

    # -- point-to-point collapse -------------------------------------------

    def _class_of_rank(self, rank: int) -> int:
        """A rank's point-to-point class: its probed twin."""
        cls = self._twin_of.get(rank)
        if cls is None:
            cls = self._twin_of[rank] = int(self.symmetry.twin_indices(rank))
        return cls

    def _lane(self, me: int, leg: int, tag: tuple, peer: int) -> list:
        """Resolve rank ``me``'s ``leg`` (0 send, 1 receive) to ``peer``
        on wire ``tag``, once per run: ``[own posts, partner posts,
        occurrence counter, wire memo, src, dst]``.

        The own posts are the stream of ``me``'s class to the peer's
        class; the partner posts, the peer class's opposite stream
        back.  My n-th send to the peer class pairs (FIFO channel
        order) with the peer class's n-th receive from my class, so
        ``me`` counts occurrences per partner *class*: every lane of
        ``me`` into one stream shares one counter.  The wire memo is
        the ``tt`` of the run's route from ``src`` to ``dst``."""
        if tag[1] not in self.symmetry.p2p_tags:
            raise SymmetryBroken(
                f"rank {me} used undeclared p2p tag {tag[1]!r}")
        cls_me = self._class_of_rank(me)
        cls_peer = self._class_of_rank(peer)
        kind, other = ("s", "r") if leg == 0 else ("r", "s")
        posts = self._posts
        mine, counters = posts.setdefault((kind, cls_me, tag, cls_peer),
                                          ([], {}))
        theirs, _ = posts.setdefault((other, cls_peer, tag, cls_me),
                                     ([], {}))
        src, dst = (me, peer) if leg == 0 else (peer, me)
        lane = [mine, theirs, counters.setdefault(me, [0]),
                self._route(src, dst).tt, src, dst]
        self._occ.setdefault(tag, {})[me << 33 | peer << 1 | leg] = lane
        return lane

    def _post(self, lane: list, leg: int, tag: tuple, now: float,
              nbytes: int | None, payload: Any) -> int:
        """Post the lane's next occurrence to its own stream and return
        the occurrence: the class's first post there is recorded (and
        releases the ops parked on it), every later one must match it."""
        posts = lane[0]
        counter = lane[2]
        occ = counter[0]
        counter[0] = occ + 1
        if len(posts) > occ:
            first = posts[occ]
            if first[0] != now or first[1] != nbytes:
                raise SymmetryBroken(
                    f"p2p class members diverged on {'sr'[leg]!r} post "
                    f"{occ} of tag {tag[1]!r}")
        else:
            posts.append((now, nbytes, payload))
            waiting = self._waiters.pop((id(posts), occ), None)
            if waiting:
                for spec in waiting:
                    self._try_p2p(spec)
        return occ

    def _try_p2p(self, spec: tuple) -> None:
        """Fire a posted p2p op once its partner-class posts exist, or
        park it on the first missing one."""
        state, now, nbytes, send, s_occ, recv, r_occ = spec
        if send is not None and len(send[1]) <= s_occ:
            self._waiters.setdefault((id(send[1]), s_occ), []).append(spec)
            return
        if recv is not None and len(recv[1]) <= r_occ:
            self._waiters.setdefault((id(recv[1]), r_occ), []).append(spec)
            return
        # A blocking send or receive is a sendrecv with one leg missing:
        # the missing leg finishes at the post time, so it charges
        # exactly 0.0 below.
        finish_s = finish_r = now
        payload = None
        if send is not None:
            d_time = send[1][s_occ][0]
            wire = send[3].get(nbytes)
            if wire is None:
                wire = send[3][nbytes] = self.network.transfer_time(
                    send[4], send[5], nbytes)
            finish_s = (now if now >= d_time else d_time) + wire
        if recv is not None:
            s_time, s_nbytes, payload = recv[1][r_occ]
            wire = recv[3].get(s_nbytes)
            if wire is None:
                wire = recv[3][s_nbytes] = self.network.transfer_time(
                    recv[4], recv[5], s_nbytes)
            finish_r = (now if now >= s_time else s_time) + wire
        done = finish_s if finish_s > finish_r else finish_r
        self._events.push(
            done, self._p2p_done,
            (state, nbytes, payload, finish_r, finish_s))

    def _p2p_done(self, state: _RankState, nbytes: int | None,
                  payload: Any, finish_r: float, finish_s: float) -> None:
        # Mirrors Engine._complete_handle on the receive leg, then
        # _pair_continue (or the _PAIR_FINAL completion) on the send
        # leg, for both event orderings: the receive leg's charge
        # lands first (from the shared block_start), then the send
        # tail extends the clock to finish_s exactly when it completes
        # later.  ``nbytes`` is None for a bare receive, which sends
        # nothing.
        stats = state.stats
        if nbytes is not None:
            stats.messages_sent += 1
            stats.bytes_sent += nbytes
        stats.comm_time += finish_r - state.block_start
        if finish_r > stats.clock:
            stats.clock = finish_r
        if finish_s > finish_r:
            stats.comm_time += finish_s - finish_r
            stats.clock = finish_s
        self._resume(state, payload, stats.clock)

    def _post_p2p(self, state: _RankState, request: Any, now: float,
                  dst: int | None, sendtag: tuple | None,
                  src: int | None, recvtag: tuple | None) -> Any:
        """Post one blocking p2p op on its lanes (``dst``/``src`` is
        ``None`` for a missing leg) and park it until the partner
        classes' posts exist."""
        me = state.stats.rank
        lanes = self._occ
        send = recv = nbytes = None
        s_occ = r_occ = 0
        if dst is not None:
            table = lanes.get(sendtag)
            send = None if table is None else table.get(me << 33 | dst << 1)
            if send is None:
                send = self._lane(me, 0, sendtag, dst)
            nbytes = request.nbytes
            if not _phantom_ok(request.payload):
                raise SymmetryBroken(f"rank {me} sent concrete data")
            s_occ = self._post(send, 0, sendtag, now, nbytes,
                               request.payload)
        if src is not None:
            table = lanes.get(recvtag)
            recv = None if table is None else table.get(
                me << 33 | src << 1 | 1)
            if recv is None:
                recv = self._lane(me, 1, recvtag, src)
            r_occ = self._post(recv, 1, recvtag, now, None, None)
        state.blocked_on = request
        state.block_start = now
        self._try_p2p((state, now, nbytes, send, s_occ, recv, r_occ))
        return _PARKED

    def _handle_sendrecv(self, state: _RankState,
                         request: SendRecvRequest, now: float) -> Any:
        return self._post_p2p(state, request, now, request.dst,
                              request.sendtag, request.src, request.recvtag)

    def _handle_send(self, state: _RankState, request: SendRequest,
                     now: float) -> Any:
        return self._post_p2p(state, request, now, request.dst,
                              request.tag, None, None)

    def _handle_recv(self, state: _RankState, request: RecvRequest,
                     now: float) -> Any:
        if request.timeout is not None:
            raise SymmetryBroken(
                f"rank {state.stats.rank} posted a timed receive")
        return self._post_p2p(state, request, now, None, None,
                              request.src, request.tag)

    # -- everything the congruence argument cannot cover -------------------

    def _refuse(self, state: _RankState, request: Any, now: float) -> Any:
        raise SymmetryBroken(
            f"rank {state.stats.rank} issued {request!r}; only "
            "collectives, compute and declared blocking p2p are "
            "collapsible")

    _handle_isend = _refuse
    _handle_irecv = _refuse
    _handle_wait = _refuse
    _handle_wait_handle = _refuse
    _handle_tuple = _refuse
    _handle_span_open = _refuse
    _handle_span_close = _refuse
    _handle_counter = _refuse

    # -- result assembly ---------------------------------------------------

    def _assemble(self, nranks: int) -> SimResult:
        """Replicate probed stats/results onto their twins."""
        sym = self.symmetry
        states = self._ranks
        p2p = bool(sym.p2p_tags)
        for st in states:
            s = st.stats
            if s.retries or s.timeouts or s.recoveries or s.fault_delay:
                raise SymmetryBroken(
                    f"rank {s.rank} has fault activity")
            if not p2p and (s.messages_sent or s.bytes_sent):
                raise SymmetryBroken(
                    f"rank {s.rank} has undeclared point-to-point "
                    f"activity")
            if not _phantom_ok(st.retval):
                raise SymmetryBroken(
                    f"rank {s.rank} returned concrete data")
            self._spans.finish(s.rank, s.clock)

        # Each rank's probe slot: its own for probed ranks, its twin's
        # (through the symmetry's vectorised twin map) for the rest.
        slot = np.full(nranks, -1, dtype=np.intp)
        for idx, st in enumerate(states):
            slot[st.stats.rank] = idx
        ranks = np.arange(nranks)
        on_probe = slot >= 0
        twin = np.where(on_probe, ranks, sym.twin_indices(ranks))
        tslot = slot[twin]
        if np.any(tslot < 0):  # pragma: no cover - probe-set invariant
            raise SymmetryBroken("twin map left the probe set")
        tslot = tslot.tolist()

        stats: list[RankStats] = []
        for r, (own, idx) in enumerate(zip(on_probe.tolist(), tslot)):
            ts = states[idx].stats
            if own:
                stats.append(ts)
            else:
                rs = RankStats(rank=r)
                rs.clock = ts.clock
                rs.comm_time = ts.comm_time
                rs.compute_time = ts.compute_time
                rs.messages_sent = ts.messages_sent
                rs.bytes_sent = ts.bytes_sent
                stats.append(rs)
        return_values = [states[idx].retval for idx in tslot]
        return SimResult(
            stats=stats,
            return_values=return_values,
            trace=self._trace,
            spans=self._spans.roots,
        )


# ---------------------------------------------------------------------------
# Symmetry declarations for the in-repo algorithms
# ---------------------------------------------------------------------------
#
# The class-key maps below are coupled, by design, to the communicator
# creation order of the rank programs (CartComm row = world child 0,
# col = 1; below one level, level q's row/column comms at 2+2q / 3+2q
# — at two levels, outer row/outer col/inner row/inner col = 2..5).
# docs/cost_model.md derives each map from the program's per-step
# clock evolution.  The SUMMA and cyclic declarations also enumerate
# their communicators' members, from the split functions of
# repro.mpi.cart that CartComm creates them by.


def _grid(
    s: int, t: int, probe_rows: int, probe_cols: int,
    class_keys: Mapping[int, Callable[[Any], Any]], *,
    full_rows: int | None = None,
    splits: Mapping[int, tuple] | None = None,
    clamp: bool = False,
    rotated: frozenset = frozenset(),
    p2p_tags: frozenset = frozenset(),
) -> GridSymmetry:
    """The declaration of an ``s x t`` grid (world rank ``r`` sits at
    ``divmod(r, t)``) probed on grid rows ``0..full_rows-1`` (default
    ``probe_rows``) plus grid columns ``0..probe_cols-1``.  Flat
    SUMMA/cyclic: 1x1 (a cross).  HSUMMA with an ``I x J`` group grid:
    ``(s/I) x (t/J)``, of which only row 0 is probed whole when
    ``I, J > 1``.

    Rank ``(i, j)`` twins with — and shares the point-to-point class
    of — ``(i mod probe_rows, j mod probe_cols)``, which sits in the
    probe columns.  ``clamp`` is the
    torus-shift variant (Cannon): shift patterns distinguish the
    *boundary* rows/columns (where the skew guards ``i > 0`` /
    ``j > 0`` differ and wraparound partners sit) from the interior,
    which is one big class — so ranks collapse by *clamping* to the
    probe border rather than wrapping modulo it: rank ``(i, j)`` twins
    with ``(min(i, probe_rows-1), min(j, probe_cols-1))``.

    ``splits`` (``child -> (color_of, key_of)``, as
    :func:`repro.mpi.cart.level_splits` returns them) declares the
    members of every communicator of the families in ``class_keys``
    (:attr:`GridSymmetry.communicators`).
    """
    if s <= 0 or t <= 0:
        raise SimulationError(f"grid dims must be positive: {s}x{t}")
    if probe_rows <= 0 or probe_cols <= 0:
        raise SimulationError(
            f"probe dims must be positive: {probe_rows}x{probe_cols}")
    pr = min(probe_rows if full_rows is None else full_rows, s)
    pc = min(probe_cols, t)
    probe = [*range(pr * t),
             *(i * t + j for i in range(pr, s) for j in range(pc))]
    if clamp:
        def fold(x: Any, m: int) -> Any:
            return np.minimum(x, m - 1)
    else:
        def fold(x: Any, m: int) -> Any:
            return x % m

    def twin_indices(ranks: Any) -> Any:
        return fold(ranks // t, probe_rows) * t + fold(ranks % t, probe_cols)

    communicators = None
    if splits is not None:
        def communicators() -> Iterator[tuple[Any, tuple]]:
            for child, color, members in _split_members(
                    s * t, splits, class_keys):
                yield (child, class_keys[child](color)), members

    return GridSymmetry(
        nranks=s * t, probe=tuple(probe),
        twin_indices=twin_indices,
        class_keys=class_keys, rotated=rotated, p2p_tags=p2p_tags,
        communicators=communicators,
    )


def _split_members(
    nranks: int, splits: Mapping[int, tuple], children: Sequence[int],
) -> Iterator[tuple[int, int, tuple]]:
    """``(child, color, members)`` of every communicator the world's
    ``split_by`` cuts for each of ``children``, members ordered by
    ``(key, rank)`` as :meth:`repro.mpi.comm.Comm.split_by` orders
    them."""
    ranks = np.arange(nranks)
    for child in children:
        color_of, key_of = splits[child]
        colors = color_of(ranks)
        order = np.lexsort((ranks, key_of(ranks), colors))
        cuts = np.flatnonzero(np.diff(colors[order])) + 1
        for members in np.split(order, cuts):
            yield child, int(colors[members[0]]), tuple(members.tolist())


def summa_symmetry(s: int, t: int, rows: Sequence[int] | None = None,
                   cols: Sequence[int] | None = None) -> GridSymmetry:
    """SUMMA over nested levels (:func:`repro.core.summa.summa_program`):
    ``rows``/``cols`` are per-level factors of ``s``/``t``, outermost
    first.  One level (the default) is flat SUMMA, and flat block-cyclic
    SUMMA; HSUMMA with an ``I x J`` group grid is ``(I, s/I)``,
    ``(J, t/J)``.

    Within a step, level ``q``'s broadcasts run only on ranks whose
    digits below ``q`` match the step owner's, so ranks desynchronise
    by those digits; the innermost column broadcast runs everywhere
    and re-synchronises them.  Digits no guard reads are unobservable:
    ranks twin modulo the grid extent below the first level whose
    factor exceeds 1 (HSUMMA: one group; SUMMA: a cross).

    A level-``q`` row communicator's class is its column digits below
    ``q`` (which steps it joins) and, once a column broadcast above
    ``q`` is non-trivial, its row's digits from ``q`` down (whether its
    members waited for one); a column communicator's is its row digits
    below ``q`` and, once a row broadcast down to ``q`` is non-trivial,
    its column's digits below ``q``.  The probe is grid row 0 plus the
    twin columns; the first non-trivial row communicator spans beyond
    those, so when its class reads row digits every row they tell
    apart is probed whole (HSUMMA at ``J = 1``).  Levels with factor 1
    above the innermost run free one-member broadcasts and declare
    nothing.  ``docs/cost_model.md`` section 4 derives the keys.
    """
    rows = tuple(rows or (s,))
    cols = tuple(cols or (t,))
    h = len(rows)
    r_below = [math.prod(rows[q + 1:]) for q in range(h)]
    c_below = [math.prod(cols[q + 1:]) for q in range(h)]
    r_hold = [s, *r_below[:-1]]
    c_first = next((q for q in range(h) if cols[q] > 1), h - 1)
    r_first = next((q for q in range(h) if rows[q] > 1), h - 1)
    first = 0 if h == 1 else 2
    keys: dict[int, Callable[[Any], Any]] = {}
    for q in range(h):
        if cols[q] > 1 or q == h - 1:
            keys[first + 2 * q] = _level_key(
                t // cols[q], r_hold[q] if r_first < q else 1, c_below[q])
        if rows[q] > 1 or q == h - 1:
            keys[first + 2 * q + 1] = _level_key(
                s // rows[q], c_below[q] if c_first <= q else 1, r_below[q])
    return _grid(s, t, r_below[r_first], c_below[c_first], keys,
                 full_rows=r_hold[c_first] if r_first < c_first else 1,
                 splits=level_splits(s, t, rows, cols))


def _level_key(width: int, fixed: int, own: int) -> Callable[[Any], tuple]:
    """Class key of a level communicator whose color is its fixed grid
    row (column) times ``width`` plus its other digits
    (:func:`repro.mpi.cart.level_splits`): the fixed coordinate modulo
    ``fixed``, the other digits modulo ``own``."""
    return lambda color: (color // width % fixed, color % own)


def cyclic_symmetry(s: int, t: int, I: int = 1, J: int = 1) -> GridSymmetry:
    """Block-cyclic SUMMA; the hierarchical variant interleaves the
    phases (outer-row, inner-row, outer-col, inner-col), which makes
    both inner families start uniformly — the outer families still
    need their guard coordinate for sequence alignment, because a
    guarded comm only announces in the steps its ``jj``/``ii`` matches
    the rotating owner.  With ``I, J > 1`` the probe is HSUMMA's: grid
    row 0 plus the first ``t/J`` columns."""
    if I * J <= 1:
        return summa_symmetry(s, t)
    si, tj = s // I, t // J
    splits = level_splits(s, t, (I, si), (J, tj))
    if I == 1:
        return _grid(s, t, 1, tj, {
            2: lambda color: color % tj,
            4: _const,
            5: _const,
        }, splits=splits)
    if J == 1:
        # Unlike HSUMMA's J=1 case, the inner-row phase here runs
        # *before* the guarded outer-col phase, so it starts uniformly.
        return _grid(s, t, si, 1, {
            3: lambda color: color % si,
            4: _const,
            5: _const,
        }, splits=splits)
    return _grid(s, t, si, tj, {
        2: lambda color: color % tj,   # color = i*tj + jj
        3: lambda color: color % si,   # color = j*si + ii
        4: _const,
        5: _const,
    }, full_rows=1, splits=splits)


def cannon_symmetry(q: int) -> GridSymmetry:
    """Cannon on a ``q x q`` torus: four sendrecv families (skew A/B
    guarded by ``i > 0`` / ``j > 0``, then the per-step A/B ring
    shifts) on tags 1-4 and no collectives.

    Roles depend only on whether a rank sits on the guard boundary
    (row 0 / column 0) or adjacent to it, so the probe is the first
    two full rows plus the first two full columns with *clamped*
    twins (see :func:`_grid`): every interior rank twins with (1, 1).
    Breakage conditions (→ per-rank fallback): concrete tiles in the
    shifts, faults, ``q <= 2`` (the probe covers the grid, reported by
    the blocker as no-win).
    """
    return _grid(
        q, q, min(2, q), min(2, q), {}, clamp=True,
        p2p_tags=frozenset({1, 2, 3, 4}),
    )


def fox_symmetry(q: int) -> GridSymmetry:
    """Fox on a ``q x q`` grid: per step a row broadcast from the
    rotating pivot column ``(i + k) % q`` (world child 0) plus a
    column ring roll of B on tag 5.

    Every rank does identical work each step — one class, a 1x1 probe
    cross — but the row comms root at different columns, so the row
    family matches its memo up to root *rotation*.  Breakage
    conditions: concrete tiles (roll payloads or broadcast pivots),
    faults, traffic outside tag 5.
    """
    return _grid(
        q, q, 1, 1, {0: _const},
        rotated=frozenset({0}),
        p2p_tags=frozenset({5}),
    )


def dns3d_symmetry(q: int) -> GridSymmetry:
    """Rank-equivalence declaration for the DNS 3-D algorithm on a
    ``q x q x q`` mesh (rank ``r = (i*q + j)*q + k``).

    A rank's behaviour is a function of five structural flags —
    ``(k==0, j==0, j==k, i==0, i==k)`` — which decide the A/B routing
    roles (tags 10/11), broadcast rootness on the j/i axes, and the
    final reduction to the ``k==0`` face.  The probe is the minimal
    covering set — the ``{0,1,2}^3`` cube plus five full axis lines —
    O(q) of the O(q^3) mesh (the cube alone is the whole mesh once
    ``q <= 3``):

    * the cube realises every flag combination (all twins land in it)
      and both sides of every p2p (sender class, receiver class,
      occurrence) record the tag-10/11 routes can produce;
    * full j-lines ``(i=0, k=0)`` and ``(i=0, k=1)`` give both j-axis
      communicator classes (``k==0`` face vs ``k>=1``) a fully-probed
      primary, full i-lines ``(j=0, k=0)`` / ``(j=0, k=1)`` do the
      same for the i-axis, and the k-line ``(i=0, j=0)`` anchors the
      single (lockstep) reduction class.

    Every other probed rank sits in a partially-probed communicator
    and joins its class memo (root differences on the rotated j/i
    axes are handled by the memo's index rotation).

    Breakage conditions (→ per-rank fallback): non-cubic rank counts
    never reach here (the runner raises first); concrete payloads,
    faults, or traffic outside tags 10/11 break en route.
    """
    if q <= 0:
        raise SimulationError(f"mesh dim must be positive: {q}")

    def coords(ranks: Any) -> tuple[Any, Any, Any]:
        return ranks // (q * q), (ranks // q) % q, ranks % q

    i, j, k = coords(np.arange(q ** 3))
    cube = (i <= 2) & (j <= 2) & (k <= 2)
    j_lines = (i == 0) & (k <= 1)
    i_lines = (j == 0) & (k <= 1)
    k_line = (i == 0) & (j == 0)

    def twin_indices(ranks: np.ndarray) -> np.ndarray:
        i, j, k = coords(ranks)
        # Flag-preserving representative with all coordinates in
        # {0, 1, 2}: clamp the k=0 face; elsewhere k -> 1 and each of
        # i/j keeps its (==0, ==k, other) role as (0, 1, 2).
        ti = np.where(k == 0, np.minimum(i, 1),
                      np.where(i == 0, 0, np.where(i == k, 1, 2)))
        tj = np.where(k == 0, np.minimum(j, 1),
                      np.where(j == 0, 0, np.where(j == k, 1, 2)))
        tk = np.minimum(k, 1)
        return (ti * q + tj) * q + tk

    def axis_key(color: int) -> int:
        # j-axis (color = i*q + k) and i-axis (color = j*q + k) comms:
        # the k=0 face routes/roots differently from k>=1.
        return min(color % q, 1)

    return GridSymmetry(
        nranks=q ** 3,
        probe=tuple(np.flatnonzero(
            cube | j_lines | i_lines | k_line).tolist()),
        twin_indices=twin_indices,
        # Child 2 is the k-axis reduction: globally lockstep.
        class_keys={0: axis_key, 1: axis_key, 2: _const},
        rotated=frozenset({0, 1}),
        p2p_tags=frozenset({10, 11}),
    )


def summa25d_symmetry(q: int, c: int) -> GridSymmetry:
    """Rank-equivalence declaration for the 2.5D algorithm on a
    ``q x q x c`` layer stack (rank ``r = (i*q + j)*c + layer``).

    Every phase is an unguarded collective (layer replication, per-step
    row/col pivot broadcasts, layer reduction), so the run is fully
    lockstep; the only observable coordinate is the *layer* (it selects
    the pivot range ``k = layer*steps + idx``), making the row/col comm
    classes ``layer``-keyed and the probe a single grid cross
    (``i == 0`` or ``j == 0``) through all layers — O(q·c) of O(q²·c).

    Breakage conditions (→ per-rank fallback): concrete payloads (the
    layer reduction combines real partials), faults, heterogeneous
    costers — all refused en route or by the blocker.
    """
    if q <= 0 or c <= 0:
        raise SimulationError(f"bad 2.5D layout: q={q}, c={c}")

    def layer_key(color: int) -> int:
        # row (color = i*c + layer) / col (color = j*c + layer) comms:
        # the layer picks the rotating pivot root.
        return color % c

    return GridSymmetry(
        nranks=q * q * c,
        # Grid row i == 0 whole, then column j == 0 of every other row.
        probe=(*range(c * q),
               *(r for i in range(1, q)
                 for r in range(i * c * q, i * c * q + c))),
        # (i, j, layer) -> (0, j, layer): same layer (keeps the retval
        # face and pivot range), same column rootness on the row comms.
        twin_indices=lambda ranks: ranks % (c * q),
        # Child 0 is the layer axis: one lockstep class.
        class_keys={0: _const, 1: layer_key, 2: layer_key},
    )
