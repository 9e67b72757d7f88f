"""Closed-form performance prediction: the zero-stepping backend.

The macro backend executes rank generators and satisfies every
collective from a :class:`~repro.simulator.costers.CollectiveCoster`
oracle.  On a homogeneous fault-free network the resulting virtual
times follow a *fixed critical chain* per algorithm step — e.g. one
SUMMA step is exactly ``clock += T_row; clock += T_col; clock += g`` —
so the whole run can be priced without ever building generators,
communicators or an event queue.  Each family *declares* its chain (a
nested list of the leaves below and ``repeat`` nodes) and one evaluator
composes it from the coster's analytic forms (see ``docs/cost_model.md``
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
block-cyclic, Cannon, Fox, DNS 3-D, 2.5D), the multi-level hierarchy
or the CLI; families without one refuse by name.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable

import numpy as np

from repro.collectives import COLLECTIVES
from repro.errors import ConfigurationError
from repro.network.model import Network
from repro.simulator.costers import default_coster
from repro.simulator.tracing import RankStats, SimResult


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
    if coster is None:
        coster = default_coster(network, contention=False)
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


def bcast(p: int, nbytes: int, algorithm: str | None = None) -> tuple:
    """Leaf (a plain tuple, equal to any other of the same priced
    phase): one broadcast among ``p`` ranks at the run's pipeline depth
    (``algorithm`` defaults to the run's first resolved one)."""
    return ("bcast", p, nbytes, algorithm)


def reduce(p: int, nbytes: int) -> tuple:
    """One reduction among ``p`` ranks, by the reduce row's algorithm."""
    return ("reduce", p, nbytes, None)


def p2p(nbytes: int) -> tuple:
    """One blocking point-to-point hop on the critical chain.

    On the declared chains the partner always posted at or before the
    critical rank's clock, so the engine's ``finish = max(now,
    partner_post) + wire`` collapses to ``finish = clock + wire`` — the
    same float addition, with the wire time taken from the (uniform)
    network."""
    return ("p2p", nbytes)


def compute(seconds: float) -> tuple:
    return ("compute", seconds)


def repeat(count: int, body: list) -> tuple:
    """``body`` (leaves and nested repeats) ``count`` times over."""
    return ("repeat", count, body)


@dataclasses.dataclass(frozen=True, slots=True)
class _Run:
    """What a declaration reads off the run's arguments (``bcasts``,
    the resolved broadcast algorithms; ``gamma``; the operand item
    sizes) and what prices its leaves."""

    coster: Any
    network: Network
    bcasts: tuple[str, ...]
    segments: int | None
    gamma: float
    a_itemsize: int
    b_itemsize: int

    def gemm_seconds(self, m: int, k: int, n: int) -> float:
        from repro.blocks.ops import gemm_flops

        return gemm_flops(m, k, n) * self.gamma

    def duration(self, leaf: tuple) -> float:
        """Seconds one leaf adds to the critical rank's clock."""
        kind = leaf[0]
        if kind == "compute":
            return leaf[1]
        if kind == "p2p":
            return self.network.transfer_time(0, 1, leaf[1])
        _, p, nbytes, algorithm = leaf
        if kind == "bcast":
            algorithm, segments = algorithm or self.bcasts[0], self.segments
        else:
            (algorithm,), segments = COLLECTIVES[kind].algorithms, None
        return self.coster.collective_time(
            kind, algorithm, tuple(range(p)), 0, nbytes, segments=segments)


def _flatten(nodes: list, numbers: dict[tuple, int]) -> np.ndarray:
    """The leaves under ``nodes`` in execution order, as their numbers
    in ``numbers`` (distinct leaf -> first-seen position, filled in
    here): a ``repeat`` is its body tiled ``count`` times, a collective
    among ``<= 1`` ranks (the engine's free no-op) has no entry."""
    parts = []
    for node in nodes:
        if node[0] == "repeat":
            if node[1]:  # a loop that never runs numbers, so prices, nothing
                parts.append(np.tile(_flatten(node[2], numbers), node[1]))
        elif node[0] in ("compute", "p2p") or node[1] > 1:
            parts.append([numbers.setdefault(node, len(numbers))])
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)


def _running_sum(terms: np.ndarray) -> np.ndarray:
    """``0.0, t0, t0 + t1, ...``: every partial sum, left to right."""
    return np.add.accumulate(np.concatenate(([0.0], terms)))


def _evaluate(declaration: list, run: _Run) -> SimResult:
    """The critical rank's clock over a declared chain, in the macro
    engine's own float operations.

    A macro collective finishes at ``start + T`` with ``start`` the
    latest participant clock and charges ``finish - block_start`` of
    comm time; on the critical chain ``start == block_start == clock``,
    so a communication leaf is ``finish = clock + T; comm += finish -
    clock; clock = finish`` and a compute leaf adds its seconds to the
    compute counter and the clock.  Each distinct leaf is priced once,
    then every counter is **one strictly sequential running sum** over
    the flattened leaves (``np.add.accumulate`` adds left to right, as
    the loop this replaces did) — never ``np.sum``, ``math.fsum`` or
    ``count * duration``, which round differently and would break the
    bit-identity with macro (``docs/cost_model.md``, section 2).
    """
    numbers: dict[tuple, int] = {}
    order = _flatten(declaration, numbers)
    steps = np.array([run.duration(leaf) for leaf in numbers],
                     dtype=float)[order]
    is_comm = np.array([leaf[0] != "compute" for leaf in numbers],
                       dtype=bool)[order]
    clock = _running_sum(steps)
    waits = clock[1:] - clock[:-1]  # finish - clock, leaf by leaf
    rep = RankStats(
        rank=0, clock=float(clock[-1]),
        comm_time=float(_running_sum(waits[is_comm])[-1]),
        compute_time=float(_running_sum(steps[~is_comm])[-1]))
    return SimResult(stats=[rep], return_values=[])


def _default_options() -> Any:
    from repro.mpi.comm import CollectiveOptions

    return CollectiveOptions()


def _no_override(cfg: Any) -> tuple[None]:
    return (None,)


def chain_walk(
    overrides: Callable[[Any], tuple] = _no_override,
) -> Callable[[Callable[[_Run, Any], list]], Callable[..., SimResult]]:
    """Turn ``declare(run, cfg) -> nested list`` into a ``predict_*``
    function.

    Every prediction shares one signature and one preamble, written
    here once: resolve the coster, resolve each broadcast algorithm
    (``overrides(cfg)``'s config-level override, else
    ``options.bcast``, else the library default), hand ``declare`` the
    :class:`_Run` it reads sizes and ``gamma`` from, and price what it
    returns — :func:`bcast`/:func:`reduce`/:func:`p2p`/:func:`compute`
    leaves, loops as :func:`repeat` — with :func:`_evaluate`: the macro
    oracle's floats for that config, whatever the broadcast algorithm.
    A family writes no arithmetic.  The resolution is also the
    function's ``bcasts(cfg, options)`` attribute, which is what
    :func:`refuse_pipelined` reads: *policy* on which runs the
    user-facing predictor backend accepts is not decided here.
    """

    def decorate(declare: Callable[[_Run, Any], list]):
        def bcasts(cfg: Any, options: Any) -> tuple[str, ...]:
            default = (options or _default_options()).bcast
            return tuple(alg if alg is not None else default
                         for alg in overrides(cfg))

        @functools.wraps(declare)
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
            opts = options or _default_options()
            run = _Run(_resolve_coster(network, coster), network,
                       bcasts(cfg, options), opts.bcast_segments, gamma,
                       a_itemsize, b_itemsize)
            return _evaluate(declare(run, cfg), run)

        predict.bcasts = bcasts
        return predict

    return decorate


@chain_walk(lambda cfg: cfg.schedule.bcasts)
def predict_summa(run: _Run, cfg: Any) -> list:
    """Closed-form prediction of a SUMMA run over ``cfg.schedule``
    (:class:`repro.core.summa.Levels`): one level is SUMMA, two are
    HSUMMA, more the multi-level hierarchy.

    One nested ``repeat`` per level: each level's row and column
    broadcasts, then the next level's loop over its blocks — at the
    innermost level, the gemm.  That is the order every macro rank's
    clock converges to: guarded broadcasts desynchronise ranks within
    a step, and the first unguarded collective below them
    re-synchronises them at the latest arrival (``docs/cost_model.md``
    derives it).  See the module docstring for the fidelity contract.
    """
    rows, cols, blocks, _ = cfg.schedule
    mloc, nloc = cfg.m // cfg.s, cfg.n // cfg.t
    a_row, b_row = mloc * run.a_itemsize, nloc * run.b_itemsize
    chain = [compute(run.gemm_seconds(mloc, blocks[-1], nloc))]
    for q in reversed(range(len(blocks))):
        chain = [repeat((blocks[q - 1] if q else cfg.l) // blocks[q], [
            bcast(cols[q], a_row * blocks[q], run.bcasts[q]),
            bcast(rows[q], blocks[q] * b_row, run.bcasts[q]),
            *chain,
        ])]
    return chain


#: HSUMMA is SUMMA over a two-level schedule.
predict_hsumma = predict_summa


@chain_walk()
def predict_cyclic(run: _Run, cfg: Any) -> list:
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
    a_bytes = mloc * cfg.nb * run.a_itemsize
    b_bytes = cfg.nb * nloc * run.b_itemsize
    if not cfg.hierarchical:
        pivots = [bcast(cfg.t, a_bytes), bcast(cfg.s, b_bytes)]
    else:
        pivots = [bcast(cfg.J, a_bytes), bcast(cfg.t // cfg.J, a_bytes),
                  bcast(cfg.I, b_bytes), bcast(cfg.s // cfg.I, b_bytes)]
    return [repeat(cfg.nsteps, pivots + [
        compute(run.gemm_seconds(mloc, cfg.nb, nloc))])]


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


def _square_tiles(run: _Run, cfg: SquareGridConfig
                  ) -> tuple[int, int, int, int, int]:
    """``(mloc, lloc, nloc, a_bytes, b_bytes)`` of one rank's tiles."""
    mloc, lloc, nloc = cfg.m // cfg.q, cfg.l // cfg.q, cfg.n // cfg.q
    return (mloc, lloc, nloc, mloc * lloc * run.a_itemsize,
            lloc * nloc * run.b_itemsize)


@chain_walk()
def predict_cannon(run: _Run, cfg: SquareGridConfig) -> list:
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
    mloc, lloc, nloc, a_bytes, b_bytes = _square_tiles(run, cfg)
    gemm = compute(run.gemm_seconds(mloc, lloc, nloc))
    shift = [p2p(a_bytes), p2p(b_bytes)]  # the skews are the same hops
    return (shift if q > 1 else []) + [repeat(q - 1, [gemm] + shift), gemm]


@chain_walk()
def predict_fox(run: _Run, cfg: SquareGridConfig) -> list:
    """Closed-form prediction of a Fox run.

    Fully lockstep: every round is a row broadcast of the pivot A
    tile, a gemm, and (except after the last) the B roll — the same
    floats on every rank, so total, compute *and* comm replay
    bit-identically.
    """
    q = cfg.q
    mloc, lloc, nloc, a_bytes, b_bytes = _square_tiles(run, cfg)
    step = [bcast(q, a_bytes), compute(run.gemm_seconds(mloc, lloc, nloc))]
    return [repeat(q - 1, step + [p2p(b_bytes)])] + step


@chain_walk()
def predict_dns3d(run: _Run, cfg: SquareGridConfig) -> list:
    """Closed-form prediction of a 3-D (DNS) run.

    The chain follows rank ``(k, k, k)`` (``k >= 1``), which receives
    both routed tiles: route A hop, j-axis broadcast, route B hop,
    i-axis broadcast, one gemm, and the k-axis reduction.  Every axis
    broadcast starts at the routed tile's arrival and every reduction
    starts at the (global) gemm finish, so the final clock is
    ``total_time`` bit-for-bit.
    """
    q = cfg.q
    mloc, lloc, nloc, a_bytes, b_bytes = _square_tiles(run, cfg)
    route_a = [p2p(a_bytes)] if q > 1 else []  # (i,j,0) -> (i,j,j)
    route_b = [p2p(b_bytes)] if q > 1 else []  # (i,j,0) -> (i,j,i)
    return route_a + [bcast(q, a_bytes)] + route_b + [
        bcast(q, b_bytes),
        compute(run.gemm_seconds(mloc, lloc, nloc)),
        reduce(q, mloc * nloc * 8)]


@chain_walk()
def predict_summa25d(run: _Run, cfg: SquareGridConfig) -> list:
    """Closed-form prediction of a 2.5D run.

    Fully lockstep: two layer-axis replication broadcasts, then each
    layer's ``q/c`` pivot steps (row broadcast, column broadcast,
    gemm), then the layer-axis reduction of the partial C — every rank
    performs the same floats, so total, compute and comm replay
    bit-identically against the macro backend.
    """
    q, c = cfg.q, cfg.c
    mloc, lloc, nloc, a_bytes, b_bytes = _square_tiles(run, cfg)
    return [bcast(c, a_bytes), bcast(c, b_bytes),
            repeat(q // c, [bcast(q, a_bytes), bcast(q, b_bytes),
                            compute(run.gemm_seconds(mloc, lloc, nloc))]),
            reduce(c, mloc * nloc * 8)]
