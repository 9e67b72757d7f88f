"""Execution backends: one rank-program path from p=4 to p=2^20.

Every algorithm in this repository is written once, as a set of SPMD
rank generators.  A *backend* decides how much machinery executes them:

* :class:`~repro.simulator.engine.Engine` (``backend="des"``) — the
  full discrete-event engine.  Collectives expand into their exact
  per-message point-to-point schedules; every transfer is an event.
  The reference semantics everything else is validated against.
* :class:`MacroBackend` — the same generators, but each
  :class:`~repro.simulator.requests.CollectiveRequest` is satisfied
  directly from a :class:`~repro.simulator.costers.CollectiveCoster`
  oracle instead of being expanded: all participants synchronise at the
  latest arrival, the oracle prices the collective once, and every
  participant resumes at ``start + T``.  Point-to-point traffic and
  compute still run through the inherited event machinery, so
  algorithms mixing collectives with sends (block-cyclic, Cannon
  shifts, overlap variants' split-phase broadcasts) remain faithful.
  When the runner declares a :class:`~repro.simulator.collapse.
  GridSymmetry` and the run is eligible (a participant-invariant
  coster, or a placement-invariant one with every communicator class on
  one placement; no faults/contention/tracing),
  :meth:`MacroBackend.run_with_factory`
  steps only a covering *probe set* of ranks and replicates the rest
  from their behavioural twins — bit-identical to the per-rank path,
  ``O(s + t)`` generators instead of ``s * t`` (see
  :mod:`repro.simulator.collapse` and ``docs/cost_model.md``).
* ``backend="predictor"`` (:mod:`repro.simulator.predictor`) — no
  stepping at all and no engine: the runners compose the coster's
  closed forms phase by phase, and :func:`resolve_backend` refuses the
  name.  Exact for total/compute time versus the
  macro backend on homogeneous networks; see ``docs/cost_model.md``
  for the documented tolerance on ``comm_time``.

On homogeneous networks the macro path reproduces the DES makespan
*exactly* for the SUMMA family (see ``tests/properties``): the bcast
root is always the latest participant, and the binomial/Van de Geijn
schedules on power-of-two communicators finish all ranks
simultaneously with every rank continuously blocked — so the
barrier-per-collective abstraction loses nothing.  What the macro
backend trades away is per-message detail *within* a collective:
``messages_sent``/``bytes_sent`` do not count macro-satisfied
collectives, per-transfer traces inside them are absent, and on
heterogeneous topologies desynchronisation inside a collective is
approximated by the coster.

Why it scales: a p=16384 HSUMMA step is ~3 events instead of ~10^5.
"""

from __future__ import annotations

from typing import Any

from repro.collectives import COLLECTIVES
from repro.errors import ConfigurationError
from repro.network.model import Network
from repro.simulator.costers import default_coster
from repro.simulator.engine import Engine, _RankState
from repro.simulator.requests import CollectiveReply, CollectiveRequest
from repro.simulator.tracing import SimResult

#: Sentinel for "no previous payload" in the reply-reuse loop; never a
#: value a collective can produce.
_NOTHING = object()


class MacroBackend(Engine):
    """Step-synchronous execution: collectives priced by a cost oracle.

    Parameters
    ----------
    network:
        Network model; used for any point-to-point traffic the programs
        issue and as the source of the default coster's parameters.
    coster:
        A :class:`~repro.simulator.costers.CollectiveCoster`.
        Defaults to the analytic closed forms on a plain homogeneous
        network and to the micro-DES oracle (exact per-collective
        simulation, memoised) on anything with topology.
    contention, collect_trace, max_events, eager_threshold:
        As on :class:`~repro.simulator.engine.Engine`; they govern the
        point-to-point machinery, which is inherited unchanged.
    symmetry:
        Optional :class:`~repro.simulator.collapse.GridSymmetry`
        declaring the run's rank-equivalence structure.  Only
        :meth:`run_with_factory` uses it (to attempt the collapsed
        fast path); :meth:`run` always executes per rank.
    """

    _inline_compute = True
    _RUN_TABLES = Engine._RUN_TABLES + ("_durations",)

    def __init__(
        self,
        network: Network,
        *,
        coster: Any = None,
        contention: bool = False,
        collect_trace: bool = False,
        max_events: int = 200_000_000,
        eager_threshold: int = 0,
        faults: Any = None,
        symmetry: Any = None,
    ) -> None:
        if faults is not None and not getattr(faults, "empty", False):
            # The coster oracle prices whole collectives analytically;
            # it has no notion of per-message drops, degraded windows or
            # escalation, so silently accepting a schedule would report
            # healthy timings for a faulty run.
            raise ConfigurationError(
                "the macro backend does not support fault injection; "
                "use backend='des' for faulted runs"
            )
        super().__init__(
            network,
            contention=contention,
            collect_trace=collect_trace,
            max_events=max_events,
            eager_threshold=eager_threshold,
        )
        if coster is None:
            coster = default_coster(network, contention=contention)
        self.coster = coster
        self.symmetry = symmetry
        #: How the last :meth:`run_with_factory` call executed:
        #: ``{"mode": "collapsed", "probed": k}`` or
        #: ``{"mode": "per-rank", "reason": ...}``.  Diagnostics only.
        self.collapse_report: dict[str, Any] = {
            "mode": "per-rank", "reason": "run_with_factory not used"}

    def run_with_factory(self, make_programs) -> SimResult:
        """Run ``make_programs()``, collapsing symmetric ranks when safe.

        When a :class:`~repro.simulator.collapse.GridSymmetry` was
        declared and the configuration is eligible, only a covering
        probe set of rank generators is stepped and the rest are
        replicated from their twins — bit-identical to :meth:`run` by
        the congruence argument in ``docs/cost_model.md``, and verified
        en route: any observation outside the declared symmetry makes
        the attempt raise internally, after which this method falls
        back to :meth:`run` with *fresh* generators from
        ``make_programs``.  ``self.collapse_report`` records which path
        executed and why.
        """
        reason, symmetry = self._collapse_blocker()
        if reason is None:
            from repro.simulator.collapse import (
                CollapsedMacroEngine,
                SymmetryBroken,
            )

            engine = CollapsedMacroEngine(
                self.network,
                symmetry=symmetry,
                coster=self.coster,
                max_events=self.max_events,
            )
            try:
                sim = engine.run(make_programs())
            except SymmetryBroken as broken:
                reason = str(broken)
            else:
                self.collapse_report = {
                    "mode": "collapsed",
                    "probed": len(symmetry.probe),
                    "ranks": symmetry.nranks,
                }
                return sim
        self.collapse_report = {"mode": "per-rank", "reason": reason}
        return self.run(make_programs())

    def _collapse_blocker(self) -> tuple[str | None, Any]:
        """``(reason, None)`` when the collapsed path cannot be
        attempted, else ``(None, the symmetry to step under)``.

        A participant-invariant coster prices every class alike.  A
        placement-invariant one (its price reads
        ``coster.network.placement_key(participants)``, never the root)
        does so only if each declared class sits on one
        placement, which is checked here, last, over every declared
        communicator — before any program is built."""
        symmetry = self.symmetry
        if symmetry is None:
            return "no grid symmetry declared", None
        placed = not getattr(self.coster, "participant_invariant", False)
        if placed and not (getattr(self.coster, "placement_invariant", False)
                           and symmetry.communicators is not None):
            return "coster depends on participant identity", None
        if self.contention:
            return "contention modelling enabled", None
        if self.collect_trace:
            return "transfer tracing enabled", None
        if self.eager_threshold:
            return "eager protocol changes p2p completion semantics", None
        if symmetry.covers_grid:
            return "probe set covers the whole grid", None
        if placed:
            symmetry = symmetry.placed(self.coster.network)
            if symmetry is None:
                return "a communicator class spans several placements", None
        return None, symmetry

    def _setup(self, nranks: int) -> None:
        super()._setup(nranks)
        # Every collective is priced by the coster: none expands, so
        # there is nothing to replay and no report of it.
        self._expanding = "priced by the coster"
        self._report = None
        #: coster result cache; costers are deterministic in the full
        #: argument set, and bulk-synchronous algorithms repeat the
        #: same (op, size, bytes) shape thousands of times.
        self._durations: dict[tuple, float] = {}

    # -- the collective hook -------------------------------------------------

    def _collective(
        self, state: _RankState, request: CollectiveRequest, now: float
    ) -> bool:
        if len(request.participants) <= 1:
            # Single-rank collectives are free no-ops; expanding them
            # costs nothing and reuses the exact result semantics.
            return False
        self._park(state, request, now)
        return True

    def _filled(
        self, entry: list[tuple[_RankState, CollectiveRequest]]
    ) -> None:
        _start, finish, _sizes, results = self._price(entry)
        self._events.push(
            finish, self._collective_done, (entry, results, finish)
        )

    def _price(
        self, entry: list[tuple[_RankState, CollectiveRequest]]
    ) -> tuple[float, float, list[int], list[Any]]:
        """``(start, finish, sizes, results)`` of a collective whose
        participants have all arrived: it starts at the latest arrival
        clock, runs for the coster's (memoised) duration and hands each
        member its per-participant result; ``sizes`` are the members'
        payload sizes."""
        req0 = entry[0][1]
        row = COLLECTIVES[req0.op]
        p = len(req0.participants)
        payloads: list[Any] = [None] * p
        sizes = [0] * p
        start = 0.0
        for st, req in entry:
            payloads[req.me] = req.payload
            sizes[req.me] = req.nbytes
            clock = st.stats.clock
            if clock > start:
                start = clock
        nbytes = row.message_size(req0.root, sizes)
        root = req0.root if req0.root is not None else 0
        key = self._duration_key(req0, root, nbytes)
        duration = self._durations.get(key)
        if duration is None:
            duration = self._durations[key] = self.coster.collective_time(
                req0.op,
                req0.algorithm,
                req0.participants,
                root,
                nbytes,
                segments=req0.segments,
            )
        return (start, start + duration, sizes,
                row.results(req0.root, payloads))

    def _duration_key(self, req0: CollectiveRequest, root: int,
                      nbytes: int) -> tuple:
        return (req0.op, req0.algorithm, req0.participants, root, nbytes,
                req0.segments)

    def _collective_done(
        self,
        entry: list[tuple[_RankState, CollectiveRequest]],
        results: list[Any],
        finish: float,
    ) -> None:
        resume = self._resume
        reply = None
        prev = _NOTHING
        for st, req in entry:
            st.stats.comm_time += finish - st.block_start
            value = results[req.me]
            if reply is None or value is not prev:
                # bcast/allgather/allreduce/barrier hand every rank
                # the same object; one reply wrapper serves them all.
                reply = CollectiveReply(value)
                prev = value
            resume(st, reply, finish)


def resolve_backend(
    backend: Any,
    network: Network,
    *,
    contention: bool = False,
    collect_trace: bool = False,
    eager_threshold: int = 0,
    faults: Any = None,
    symmetry: Any = None,
) -> Engine:
    """Turn a backend spec into a ready engine.

    ``backend`` may be None or ``"des"`` (full discrete-event),
    ``"macro"`` (coster-satisfied collectives), or an
    already-built :class:`~repro.simulator.engine.Engine` (a
    :class:`MacroBackend` included), which is returned as-is (its own
    network/options win).  ``"predictor"`` has no engine (the runners
    price it before any program is built), so it raises: the
    fault-injection refusal first, else directions to a runner.

    ``faults`` is a :class:`repro.faults.FaultSchedule`; only the
    discrete-event path can honour one (the macro backend raises, and a
    prebuilt engine must have been constructed with the schedule).
    ``symmetry`` is a :class:`~repro.simulator.collapse.GridSymmetry`
    enabling the macro backend's collapsed fast path; the other
    backends ignore it.
    """
    active = faults is not None and not getattr(faults, "empty", False)
    if isinstance(backend, Engine):
        if active and getattr(backend, "_faults", None) is not faults:
            raise ConfigurationError(
                "a prebuilt engine cannot adopt a fault schedule; pass "
                "faults= to the engine constructor instead"
            )
        return backend
    if backend is None or backend == "des":
        return Engine(
            network,
            contention=contention,
            collect_trace=collect_trace,
            eager_threshold=eager_threshold,
            faults=faults,
        )
    if backend == "macro":
        return MacroBackend(
            network,
            contention=contention,
            collect_trace=collect_trace,
            eager_threshold=eager_threshold,
            faults=faults,
            symmetry=symmetry,
        )
    if backend == "predictor":
        if active:
            raise ConfigurationError(
                "backend='predictor' cannot run: feature 'fault "
                "injection' requires execution — closed forms price "
                "healthy runs only; fallback: use backend='des' for "
                "faulted runs"
            )
        from repro.core.launch import FAMILIES, family

        chained = "/".join(name for name in FAMILIES
                           if family(name).predict is not None)
        raise ConfigurationError(
            "the predictor backend composes closed forms and cannot "
            "execute rank programs; call it through the runner of a "
            f"family with a predictor chain ({chained}, with "
            "backend='predictor') or the CLI"
        )
    raise ConfigurationError(
        f"unknown backend {backend!r} (expected 'des', 'macro', "
        "'predictor', or an Engine instance)"
    )
