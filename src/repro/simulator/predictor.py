"""Closed-form performance prediction: the zero-stepping backend.

The macro backend executes rank generators and satisfies every
collective from a :class:`~repro.experiments.stepmodel.CollectiveCoster`
oracle.  On a homogeneous fault-free network the resulting virtual
times follow a *fixed critical chain* per algorithm step — e.g. one
SUMMA step is exactly ``clock += T_row; clock += T_col; clock += g`` —
so the whole run can be priced without ever building generators,
communicators or an event queue.  This module composes those chains
directly from the coster's analytic forms (see ``docs/cost_model.md``
for the derivations and the congruence argument).

Fidelity contract versus ``backend="macro"`` on the same network:

* ``total_time`` and ``compute_time`` are **bit-identical** — the
  predictor performs the same float additions in the same order as the
  critical rank's clock in the macro engine.
* ``comm_time`` is bit-identical for the flat variants (SUMMA, cyclic
  SUMMA) and agrees within a few ULPs (documented as 1e-9 relative)
  for the hierarchical variants, where macro ranks accumulate the same
  per-step phase times under different groupings.

The contract holds for every broadcast algorithm, the segmented family
(``segmented``/``fourcolor``/``hypersystolic`` at any depth ``s``)
included: macro prices each such broadcast as one oracle collective
from the same closed form the chain adds.  It does *not* extend to DES
for that family (stage overlap), which is why the user-facing
``backend="predictor"`` refuses it — see :func:`refuse_pipelined`.

The prediction carries **one representative rank** in
``SimResult.stats`` (a p=2^20 grid would otherwise materialise a
million ``RankStats``) and empty ``return_values``;
:func:`repro.core.launch.launch` builds the phantom ``C`` itself.  Use
``backend="predictor"`` through the runner of any family whose
:data:`repro.core.launch.FAMILIES` row carries a chain (SUMMA, HSUMMA,
block-cyclic, Cannon, Fox, DNS 3-D, 2.5D) or the CLI; families without
one refuse by name.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.network.model import Network
from repro.simulator.backends import Backend
from repro.simulator.tracing import RankStats, SimResult


class PredictorBackend(Backend):
    """Marker backend returned by ``resolve_backend("predictor")``.

    The predictor never steps rank programs, so :meth:`run` cannot
    exist in a meaningful form — :func:`repro.core.launch.launch`
    detects ``backend="predictor"`` *before* building programs and
    calls the family's ``predict_*`` function below instead.  Resolving
    the name still
    succeeds (so generic plumbing can validate backend specs), but
    executing it raises with directions.
    """

    def __init__(self, network: Network, *, faults: Any = None) -> None:
        if faults is not None and not getattr(faults, "empty", False):
            raise ConfigurationError(
                "backend='predictor' cannot run: feature 'fault "
                "injection' requires execution — closed forms price "
                "healthy runs only; fallback: use backend='des' for "
                "faulted runs"
            )
        self.network = network

    def run(self, programs: Any) -> SimResult:
        from repro.core.launch import FAMILIES, family

        chained = "/".join(name for name in FAMILIES
                           if family(name).predict is not None)
        raise ConfigurationError(
            "the predictor backend composes closed forms and cannot "
            "execute rank programs; call it through the runner of a "
            f"family with a predictor chain ({chained}, with "
            "backend='predictor') or the CLI"
        )


def _refuse(name: str, feature: str, detail: str, fallback: str) -> None:
    """Raise the predictor's structured refusal.

    Every refusal names the offending *feature* and the cheapest
    backend that supports it, so a caller (or the planner) can react
    programmatically instead of parsing prose.
    """
    raise ConfigurationError(
        f"backend='predictor' cannot price {name}: feature "
        f"{feature!r} requires execution — {detail}; "
        f"fallback: use {fallback}"
    )


def _require_predictable(
    name: str,
    *,
    phantom: bool,
    faults: Any,
    verify: Any,
    contention: bool,
    trace: bool = False,
) -> None:
    """Validate a runner's arguments for ``backend="predictor"``.

    The predictor produces timings only; anything that needs actual
    execution — concrete data, fault injection, the verifier's
    recorder, contention modelling, transfer tracing — has no closed
    form and must use a simulating backend.  Each refusal names the
    offending feature and suggests the fallback backend.
    """
    from repro.verify.session import coerce_verify

    if not phantom:
        _refuse(
            name, "concrete data",
            "the predictor composes closed forms and never computes a "
            "concrete C; pass PhantomArray inputs (scale mode)",
            "backend='des' or backend='macro' for real data",
        )
    if faults is not None and not getattr(faults, "empty", False):
        _refuse(
            name, "fault injection",
            "closed forms price healthy runs only (retransmission "
            "schedules depend on event interleaving)",
            "backend='des' for faulted runs",
        )
    if coerce_verify(verify) is not None:
        _refuse(
            name, "verify",
            "the predictor runs no rank programs, so there is nothing "
            "for the verifier's recorder to observe",
            "backend='des' or backend='macro' with verify=",
        )
    if contention:
        _refuse(
            name, "contention",
            "the closed forms assume an uncontended network",
            "backend='des' with contention=True",
        )
    if trace:
        _refuse(
            name, "trace",
            "the predictor produces no transfers or spans to record",
            "backend='des' or backend='macro' with trace=True",
        )


def refuse_pipelined(spec: Any, cfg: Any, options: Any) -> None:
    """The user-facing policy on the segmented broadcast family: refuse
    ``backend="predictor"`` for a run of ``spec`` that resolves any
    broadcast to ``segmented``/``fourcolor``/``hypersystolic`` (the
    plain ``pipelined`` chain predates the policy and is
    grandfathered).

    The chains below price that family exactly as the macro oracle
    does — one bulk-synchronous collective per broadcast, from the same
    closed form — so this is not a limit of the arithmetic but of what
    the number would claim: in a DES run the family's pre-posted stage
    receives overlap the neighbouring gemm and the next step's
    broadcast, and a serial phase chain offered as *the prediction of
    that run* would silently overstate it.  Decided where every other
    predictor refusal is (:func:`repro.core.launch.launch` and the
    figure sweeps' ``predictor`` kind); callers that want the macro
    oracle's float with zero stepping — the planner's refinement — call
    ``spec.predict`` directly.
    """
    for algorithm in spec.predict.bcasts(cfg, options):
        if algorithm in ("segmented", "fourcolor", "hypersystolic"):
            _refuse(
                spec.display, f"pipelined broadcast {algorithm}",
                "the phase chain prices collectives bulk-synchronously "
                "and has no model for the stage overlap the segmented "
                "schedule exists for",
                "backend='macro' (oracle pricing, same closed forms) or "
                "backend='des'",
            )


def _resolve_coster(network: Network, coster: Any) -> Any:
    from repro.simulator.backends import _default_coster

    if coster is None:
        coster = _default_coster(network, contention=False)
    if not getattr(coster, "participant_invariant", False):
        raise ConfigurationError(
            "backend='predictor' cannot price this run: feature "
            "'participant-dependent costs' requires stepping — this "
            "network/coster prices collectives per participant set "
            "(heterogeneous links or a topology-positional coster), "
            "not per participant count; fallback: use backend='macro' "
            "(per-rank stepping with the same coster) or backend='des'"
        )
    return coster


class _Chain:
    """The critical rank's clock chain, mirroring the macro engine's
    float operations exactly.

    A macro collective finishes at ``start + T`` with ``start`` the
    latest participant clock and charges ``finish - block_start`` of
    comm time; on the critical chain ``start == block_start == clock``,
    so each phase is ``finish = clock + T; comm += finish - clock;
    clock = finish`` — reproduced verbatim here.  Compute requests add
    ``seconds`` to both the compute counter and the clock, as in
    :meth:`repro.simulator.engine.Engine._handle_compute`.

    Besides the clock the chain carries what every ``predict_*`` walk
    reads off its arguments: the resolved broadcast algorithm(s)
    ``bcasts``, the reduce algorithm, the pipeline depth, ``gamma`` and
    the operand item sizes.
    """

    __slots__ = ("clock", "comm", "compute", "_coster", "_network",
                 "_memo", "bcasts", "reduce_alg", "segments", "gamma",
                 "a_itemsize", "b_itemsize")

    def __init__(self, coster: Any, network: Network,
                 bcasts: tuple[str, ...], options: Any, gamma: float,
                 a_itemsize: int, b_itemsize: int) -> None:
        self.clock = 0.0
        self.comm = 0.0
        self.compute = 0.0
        self._coster = coster
        self._network = network
        self._memo: dict[tuple, float] = {}
        self.bcasts = bcasts
        self.reduce_alg = (options or _default_options()).reduce
        self.segments = options.bcast_segments if options is not None \
            else None
        self.gamma = gamma
        self.a_itemsize = a_itemsize
        self.b_itemsize = b_itemsize

    def collective(self, op: str, algorithm: str | None, p: int,
                   nbytes: int, *, segments: Any = None,
                   cid0: int = 0) -> None:
        if p <= 1:
            # The engine expands single-rank collectives as free no-ops.
            return
        key = (op, algorithm, p, nbytes, segments, cid0)
        duration = self._memo.get(key)
        if duration is None:
            duration = self._memo[key] = self._coster.collective_time(
                op, algorithm, tuple(range(p)), 0, nbytes,
                segments=segments, cid=(cid0, 0),
            )
        finish = self.clock + duration
        self.comm += finish - self.clock
        self.clock = finish

    def bcast(self, p: int, nbytes: int, cid0: int, *,
              algorithm: str | None = None) -> None:
        """One broadcast among ``p`` ranks at the run's pipeline depth
        (``algorithm`` defaults to the first resolved one)."""
        self.collective("bcast", algorithm or self.bcasts[0], p, nbytes,
                        segments=self.segments, cid0=cid0)

    def reduce(self, p: int, nbytes: int, cid0: int) -> None:
        self.collective("reduce", self.reduce_alg, p, nbytes, cid0=cid0)

    def p2p(self, nbytes: int) -> None:
        """One blocking point-to-point hop on the critical chain.

        On the chains below the partner always posted at or before the
        critical rank's clock, so the engine's
        ``finish = max(now, partner_post) + wire`` collapses to
        ``finish = clock + wire`` — the same float addition, with the
        wire time taken from the (uniform) network.
        """
        key = ("p2p", nbytes)
        duration = self._memo.get(key)
        if duration is None:
            duration = self._memo[key] = self._network.transfer_time(
                0, 1, nbytes)
        finish = self.clock + duration
        self.comm += finish - self.clock
        self.clock = finish

    def compute_seconds(self, seconds: float) -> None:
        self.compute += seconds
        self.clock = self.clock + seconds

    def gemm_seconds(self, m: int, k: int, n: int) -> float:
        from repro.blocks.ops import gemm_flops

        return gemm_flops(m, k, n) * self.gamma

    def result(self) -> SimResult:
        rep = RankStats(rank=0, clock=self.clock, comm_time=self.comm,
                        compute_time=self.compute)
        return SimResult(stats=[rep], return_values=[])


def _default_options() -> Any:
    from repro.mpi.comm import CollectiveOptions

    return CollectiveOptions()


def _no_override(cfg: Any) -> tuple[None]:
    return (None,)


def chain_walk(
    overrides: Callable[[Any], tuple] = _no_override,
) -> Callable[[Callable[[_Chain, Any], None]], Callable[..., SimResult]]:
    """Turn ``walk(chain, cfg)`` into a ``predict_*`` function.

    Every prediction shares one signature and one preamble, written
    here once: resolve the coster, resolve each broadcast algorithm
    (``overrides(cfg)``'s config-level override, else
    ``options.bcast``, else the library default) and hand ``walk`` a
    fresh :class:`_Chain`; the prediction is the walked chain's
    :meth:`~_Chain.result` — the macro oracle's floats for that
    config, whatever the broadcast algorithm.  The resolution is also
    the function's ``bcasts(cfg, options)`` attribute, which is what
    :func:`refuse_pipelined` reads: *policy* on which runs the
    user-facing predictor backend accepts is not decided here.
    """

    def decorate(walk: Callable[[_Chain, Any], None]):
        def bcasts(cfg: Any, options: Any) -> tuple[str, ...]:
            default = (options or _default_options()).bcast
            return tuple(alg if alg is not None else default
                         for alg in overrides(cfg))

        @functools.wraps(walk)
        def predict(
            cfg: Any,
            *,
            network: Network,
            options: Any = None,
            gamma: float = 0.0,
            coster: Any = None,
            a_itemsize: int = 8,
            b_itemsize: int = 8,
        ) -> SimResult:
            coster = _resolve_coster(network, coster)
            chain = _Chain(coster, network, bcasts(cfg, options), options,
                           gamma, a_itemsize, b_itemsize)
            walk(chain, cfg)
            return chain.result()

        predict.bcasts = bcasts
        return predict

    return decorate


@chain_walk(lambda cfg: (cfg.bcast,))
def predict_summa(chain: _Chain, cfg: Any) -> None:
    """Closed-form prediction of a SUMMA run (``cfg`` as
    :class:`repro.core.summa.SummaConfig`); see the module docstring
    for the fidelity contract."""
    mloc, nloc = cfg.m // cfg.s, cfg.n // cfg.t
    a_bytes = mloc * cfg.block * chain.a_itemsize
    b_bytes = cfg.block * nloc * chain.b_itemsize
    gemm = chain.gemm_seconds(mloc, cfg.block, nloc)
    for _ in range(cfg.nsteps):
        chain.bcast(cfg.t, a_bytes, 0)
        chain.bcast(cfg.s, b_bytes, 1)
        chain.compute_seconds(gemm)


@chain_walk(lambda cfg: (cfg.outer_bcast, cfg.inner_bcast))
def predict_hsumma(chain: _Chain, cfg: Any) -> None:
    """Closed-form prediction of an HSUMMA run (``cfg`` as
    :class:`repro.core.hsumma.HSummaConfig`).

    Per outer step the critical chain is outer-row, outer-col, then
    ``inner_steps`` repetitions of inner-row, inner-col, gemm — the
    order every macro rank's clock converges to (the guarded outer
    phases desynchronise ranks within a step; the first unguarded
    inner collective re-synchronises them at the latest arrival).
    """
    outer_alg, inner_alg = chain.bcasts
    mloc, nloc = cfg.m // cfg.s, cfg.n // cfg.t
    si, tj = cfg.inner_s, cfg.inner_t
    a_outer = mloc * cfg.outer_block * chain.a_itemsize
    b_outer = cfg.outer_block * nloc * chain.b_itemsize
    a_inner = mloc * cfg.inner_block * chain.a_itemsize
    b_inner = cfg.inner_block * nloc * chain.b_itemsize
    gemm = chain.gemm_seconds(mloc, cfg.inner_block, nloc)
    for _ in range(cfg.outer_steps):
        chain.bcast(cfg.J, a_outer, 2, algorithm=outer_alg)
        chain.bcast(cfg.I, b_outer, 3, algorithm=outer_alg)
        for _ in range(cfg.inner_steps):
            chain.bcast(tj, a_inner, 4, algorithm=inner_alg)
            chain.bcast(si, b_inner, 5, algorithm=inner_alg)
            chain.compute_seconds(gemm)


@chain_walk()
def predict_cyclic(chain: _Chain, cfg: Any) -> None:
    """Closed-form prediction of a block-cyclic (H)SUMMA run (``cfg``
    as :class:`repro.core.cyclic.CyclicConfig`, blocking schedule).

    The flat variant is two broadcasts and a gemm per rotating pivot;
    the hierarchical variant follows :func:`repro.core.cyclic.
    cyclic_summa_program`'s ``hier_blocking`` order (outer-row,
    inner-row, outer-col, inner-col).  The overlap schedule posts
    split-phase broadcasts through the point-to-point machinery and
    has no closed form here.
    """
    mloc, nloc = cfg.m // cfg.s, cfg.n // cfg.t
    a_bytes = mloc * cfg.nb * chain.a_itemsize
    b_bytes = cfg.nb * nloc * chain.b_itemsize
    gemm = chain.gemm_seconds(mloc, cfg.nb, nloc)
    if not cfg.hierarchical:
        for _ in range(cfg.nsteps):
            chain.bcast(cfg.t, a_bytes, 0)
            chain.bcast(cfg.s, b_bytes, 1)
            chain.compute_seconds(gemm)
        return
    si, tj = cfg.s // cfg.I, cfg.t // cfg.J
    for _ in range(cfg.nsteps):
        chain.bcast(cfg.J, a_bytes, 2)
        chain.bcast(tj, a_bytes, 4)
        chain.bcast(cfg.I, b_bytes, 3)
        chain.bcast(si, b_bytes, 5)
        chain.compute_seconds(gemm)


@dataclasses.dataclass(frozen=True)
class SquareGridConfig:
    """Shape of a run on a square ``q x q`` tile grid, ``c`` ranks
    deep: Cannon and Fox (``c = 1``), 2.5D (replication ``c | q``, each
    layer taking ``q / c`` pivot steps) and the 3-D DNS mesh
    (``c = q``).  Validated here so a planner-built config fails fast
    instead of at replay time."""

    m: int
    l: int
    n: int
    q: int
    c: int = 1

    def __post_init__(self) -> None:
        if self.c < 1:
            raise ConfigurationError(
                f"replication c must be >= 1, got {self.c}")
        if self.q < 1:
            raise ConfigurationError(f"grid dim must be >= 1, got {self.q}")
        if self.q % self.c:
            raise ConfigurationError(
                f"2.5D step split needs c | q (q={self.q}, c={self.c})")
        for label, dim in (("m", self.m), ("l", self.l), ("n", self.n)):
            if dim % self.q:
                raise ConfigurationError(
                    f"{label}={dim} not divisible by grid dim {self.q}")

    @property
    def nprocs(self) -> int:
        return self.q * self.q * self.c


def _square_tiles(chain: _Chain, cfg: SquareGridConfig
                  ) -> tuple[int, int, int, int, int]:
    """``(mloc, lloc, nloc, a_bytes, b_bytes)`` of one rank's tiles."""
    mloc, lloc, nloc = cfg.m // cfg.q, cfg.l // cfg.q, cfg.n // cfg.q
    return (mloc, lloc, nloc, mloc * lloc * chain.a_itemsize,
            lloc * nloc * chain.b_itemsize)


@chain_walk()
def predict_cannon(chain: _Chain, cfg: SquareGridConfig) -> None:
    """Closed-form prediction of a Cannon run.

    The chain follows a doubly-interior rank (``i >= 1, j >= 1``):
    skew A, skew B, then ``q`` rounds of gemm and (except after the
    last) the A and B ring shifts.  The round-0 A shift resynchronises
    every rank at the interior rank's clock (its wait for the skewed
    neighbour dominates), so this chain's final clock is the run's
    ``total_time`` bit-for-bit; per-rank ``comm_time`` groups the same
    phase floats differently on the boundary ranks, hence the
    documented 1e-9 relative tolerance on comm.
    """
    q = cfg.q
    mloc, lloc, nloc, a_bytes, b_bytes = _square_tiles(chain, cfg)
    gemm = chain.gemm_seconds(mloc, lloc, nloc)
    if q > 1:
        chain.p2p(a_bytes)  # skew A
        chain.p2p(b_bytes)  # skew B
    for step in range(q):
        chain.compute_seconds(gemm)
        if step == q - 1:
            break
        chain.p2p(a_bytes)  # shift A
        chain.p2p(b_bytes)  # shift B


@chain_walk()
def predict_fox(chain: _Chain, cfg: SquareGridConfig) -> None:
    """Closed-form prediction of a Fox run.

    Fully lockstep: every round is a row broadcast of the pivot A
    tile, a gemm, and (except after the last) the B roll — the same
    floats on every rank, so total, compute *and* comm replay
    bit-identically.
    """
    q = cfg.q
    mloc, lloc, nloc, a_bytes, b_bytes = _square_tiles(chain, cfg)
    gemm = chain.gemm_seconds(mloc, lloc, nloc)
    for k in range(q):
        chain.bcast(q, a_bytes, 0)
        chain.compute_seconds(gemm)
        if k == q - 1:
            break
        chain.p2p(b_bytes)  # roll B


@chain_walk()
def predict_dns3d(chain: _Chain, cfg: SquareGridConfig) -> None:
    """Closed-form prediction of a 3-D (DNS) run.

    The chain follows rank ``(k, k, k)`` (``k >= 1``), which receives
    both routed tiles: route A hop, j-axis broadcast, route B hop,
    i-axis broadcast, one gemm, and the k-axis reduction.  Every axis
    broadcast starts at the routed tile's arrival and every reduction
    starts at the (global) gemm finish, so the final clock is
    ``total_time`` bit-for-bit.
    """
    q = cfg.q
    mloc, lloc, nloc, a_bytes, b_bytes = _square_tiles(chain, cfg)
    if q > 1:
        chain.p2p(a_bytes)  # route A (i,j,0) -> (i,j,j)
    chain.bcast(q, a_bytes, 0)
    if q > 1:
        chain.p2p(b_bytes)  # route B (i,j,0) -> (i,j,i)
    chain.bcast(q, b_bytes, 1)
    chain.compute_seconds(chain.gemm_seconds(mloc, lloc, nloc))
    chain.reduce(q, mloc * nloc * 8, 2)


@chain_walk()
def predict_summa25d(chain: _Chain, cfg: SquareGridConfig) -> None:
    """Closed-form prediction of a 2.5D run.

    Fully lockstep: two layer-axis replication broadcasts, then each
    layer's ``q/c`` pivot steps (row broadcast, column broadcast,
    gemm), then the layer-axis reduction of the partial C — every rank
    performs the same floats, so total, compute and comm replay
    bit-identically against the macro backend.
    """
    q, c = cfg.q, cfg.c
    mloc, lloc, nloc, a_bytes, b_bytes = _square_tiles(chain, cfg)
    gemm = chain.gemm_seconds(mloc, lloc, nloc)
    chain.bcast(c, a_bytes, 0)
    chain.bcast(c, b_bytes, 0)
    for _ in range(q // c):
        chain.bcast(q, a_bytes, 1)
        chain.bcast(q, b_bytes, 2)
        chain.compute_seconds(gemm)
    chain.reduce(c, mloc * nloc * 8, 0)
