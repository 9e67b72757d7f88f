"""The single source of truth for per-collective closed-form costs.

Historically three layers each carried their own copy of the Hockney
closed forms: the analytic models (the paper's smooth ``L(p)/W(p)``
factor functions the optimiser differentiates through), a collectives
front-end (the discrete critical-path factors the DES engine
realises), and the predictor/macro costers built on top.
This registry collapses them into one table:

* :data:`BCAST_ENTRIES` — one :class:`BcastEntry` per broadcast
  algorithm, holding **both** flavours of each factor function:

  - ``L``/``W`` — *discrete* (integer ``p``, ``ceil``/``floor`` tree
    depths) — exactly what the executable collectives in
    :mod:`repro.collectives` realise on the wire, pinned by the
    DES cross-validation tests;
  - ``L_smooth``/``W_smooth`` — *smooth* (real ``p``) — the paper's
    analytic forms, differentiable through non-integer ``sqrt(p)``,
    consumed by :mod:`repro.costs.closed_forms` (eqs. 2-12) and the
    group-count optimiser.

  The two flavours agree exactly at powers of two (pinned by
  ``tests/costs/test_drift.py``).

* :func:`estimate` — the one query interface: a :class:`CostQuery`
  (op, algorithm, participant count, message bytes, network
  parameters) in, a :class:`CostEstimate` (seconds plus its
  latency/bandwidth decomposition) out.  Every non-broadcast
  collective's critical-path cost lives here too.

``nbytes`` follows the op's size convention: the ``size`` field of its
row in :data:`repro.collectives.COLLECTIVES`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from typing import Callable

from repro.errors import ModelError
from repro.network.model import HockneyParams


# ---------------------------------------------------------------------------
# Broadcast factor functions, discrete and smooth
# ---------------------------------------------------------------------------

def _log2ceil(p: int) -> int:
    """Discrete binomial-tree depth: ``ceil(log2 p)``."""
    if p < 1:
        raise ModelError(f"p must be >= 1, got {p}")
    return (p - 1).bit_length()


def _binary_depth(p: int) -> int:
    """Depth of the balanced binary tree over ``p`` nodes (root depth 0)."""
    return max(0, int(math.floor(math.log2(p))))


def _log2_smooth(p: float) -> float:
    return math.log2(p) if p > 1 else 0.0


@dataclasses.dataclass(frozen=True)
class BroadcastModel:
    """Latency/bandwidth factor functions of a broadcast algorithm.

    ``L`` and ``W`` take the participant count ``p`` (a positive float —
    the optimizer differentiates through non-integer ``p``) and return
    the factor multiplying ``alpha`` / ``m * beta``.
    """

    name: str
    L: Callable[[float], float]
    W: Callable[[float], float]

    def time(self, m_elements: float, p: float, alpha: float, beta: float) -> float:
        """``L(p)*alpha + m*W(p)*beta`` (zero at ``p == 1``)."""
        if p <= 1:
            return 0.0
        return self.L(p) * alpha + m_elements * self.W(p) * beta


@dataclasses.dataclass(frozen=True)
class BcastEntry:
    """One broadcast algorithm's registry row: both factor flavours.

    ``L``/``W`` take an integer ``p >= 2`` and return the discrete
    critical-path factor; ``L_smooth``/``W_smooth`` take a real
    ``p > 1``.  (Callers guard ``p == 1``, where every factor is zero.)
    """

    name: str
    L: Callable[[int], float]
    W: Callable[[int], float]
    L_smooth: Callable[[float], float]
    W_smooth: Callable[[float], float]


BCAST_ENTRIES: dict[str, BcastEntry] = {
    e.name: e
    for e in (
        BcastEntry(
            name="flat",
            L=lambda p: float(p - 1),
            W=lambda p: float(p - 1),
            L_smooth=lambda p: p - 1.0 if p > 1 else 0.0,
            W_smooth=lambda p: p - 1.0 if p > 1 else 0.0,
        ),
        BcastEntry(
            name="chain",
            L=lambda p: float(p - 1),
            W=lambda p: float(p - 1),
            L_smooth=lambda p: p - 1.0 if p > 1 else 0.0,
            W_smooth=lambda p: p - 1.0 if p > 1 else 0.0,
        ),
        BcastEntry(
            name="binomial",
            L=lambda p: float(_log2ceil(p)),
            W=lambda p: float(_log2ceil(p)),
            L_smooth=_log2_smooth,
            W_smooth=_log2_smooth,
        ),
        BcastEntry(
            # Inner nodes forward to two children sequentially: about
            # two sends per level on the critical path.
            name="binary",
            L=lambda p: float(2 * _binary_depth(p)),
            W=lambda p: float(2 * _binary_depth(p)),
            L_smooth=lambda p: 2.0 * _log2_smooth(p),
            W_smooth=lambda p: 2.0 * _log2_smooth(p),
        ),
        BcastEntry(
            # Scatter-allgather: (log2 p + p - 1) alpha + 2(p-1)/p m beta.
            name="vandegeijn",
            L=lambda p: float(_log2ceil(p) + (p - 1)),
            W=lambda p: 2.0 * (p - 1) / p,
            L_smooth=lambda p: _log2_smooth(p) + (p - 1.0) if p > 1 else 0.0,
            W_smooth=lambda p: 2.0 * (p - 1.0) / p if p > 1 else 0.0,
        ),
    )
}

#: The paper's eq.-1 models built on the registry's smooth factors —
#: the analytic layer reads these very objects, so it and this registry
#: cannot drift.
SMOOTH_MODELS: dict[str, BroadcastModel] = {
    name: BroadcastModel(name=name, L=entry.L_smooth, W=entry.W_smooth)
    for name, entry in BCAST_ENTRIES.items()
}

#: Binomial tree: ``log2(p) * (alpha + m*beta)`` (paper Section IV).
BINOMIAL_MODEL = SMOOTH_MODELS["binomial"]

#: Van de Geijn scatter-allgather:
#: ``(log2(p) + p - 1)*alpha + 2*(p-1)/p * m*beta`` (paper Section IV).
VANDEGEIJN_MODEL = SMOOTH_MODELS["vandegeijn"]


def bcast_entry(algorithm: str) -> BcastEntry:
    """The registry row for ``algorithm``; :class:`ModelError` if the
    algorithm has no linear ``L/W`` form (e.g. the pipelined chain)."""
    entry = BCAST_ENTRIES.get(algorithm)
    if entry is None:
        raise ModelError(
            f"no closed-form L/W entry for broadcast algorithm "
            f"{algorithm!r} (the pipelined chain is priced directly by "
            "estimate/bcast_time)"
        )
    return entry


def bcast_latency_factor(algorithm: str, p: int) -> float:
    """``L(p)``: the number of ``alpha`` terms on the critical path
    (discrete flavour — what the executable collective realises)."""
    if p < 1:
        raise ModelError(f"p must be >= 1, got {p}")
    if p == 1:
        return 0.0
    return bcast_entry(algorithm).L(p)


def bcast_bandwidth_factor(algorithm: str, p: int) -> float:
    """``W(p)``: the multiplier on ``m * beta`` on the critical path
    (discrete flavour)."""
    if p < 1:
        raise ModelError(f"p must be >= 1, got {p}")
    if p == 1:
        return 0.0
    return bcast_entry(algorithm).W(p)


#: The segmented broadcast family: every algorithm whose completion
#: time is ``(base + rate*S) * (alpha + m*beta/(chunks*S))`` for some
#: pipeline depth ``S`` — priced directly by :func:`estimate` (no
#: linear ``L/W`` row) and enumerated over ``S`` by the planner.
PIPELINED_BCASTS = frozenset(
    {"pipelined", "segmented", "fourcolor", "hypersystolic"}
)


@functools.lru_cache(maxsize=None)
def segmented_fill_slots(p: int) -> int:
    """Fill latency of the pipelined balanced binary tree: the slot in
    which segment 0 reaches the *last* rank.

    Node ``v`` (heap order, root 0) receives segment 0 after its parent
    chain has forwarded it, two blocking sends per inner node (child
    ``2v+1`` first, then ``2v+2``), which works out to
    ``bit_length(v+1) + popcount(v+1) - 2`` slots — depth plus one
    extra slot per right-edge on the path.  The maximum over
    ``w = v+1 in [1, p]`` is either the deepest all-ones ``w`` (a pure
    right spine) or the max-popcount ``w`` of full bit-length, found by
    the classic clear-one-bit-set-all-lower scan.  Exhaustively checked
    against the ``O(p)`` scan in the conformance tests.
    """
    if p < 2:
        return 0
    L = p.bit_length()
    best = 2 * (L - 1) if L > 1 else 2  # w = 2^(L-1)-1: all-ones, shorter
    ones_above = 0
    max_pc = 0
    for i in range(L - 1, -1, -1):
        if (p >> i) & 1:
            if i < L - 1:
                # Clear bit i of p, set every lower bit: the largest
                # popcount among length-L values <= p branching here.
                max_pc = max(max_pc, ones_above + i)
            ones_above += 1
    max_pc = max(max_pc, ones_above)  # w = p itself
    return max(best, L + max_pc) - 2


def _hypersystolic_depth_at(p: int, k: int) -> int:
    """Deepest rank's segment-0 arrival slot at stride ``k``: group
    ``a``'s member ``j`` sits at depth ``a + j``."""
    ngroups = -(-p // k)
    return max(a + min(k, p - a * k) - 1 for a in range(ngroups))


@functools.lru_cache(maxsize=None)
def hypersystolic_stride(p: int) -> int:
    """The anchor stride ``K`` the hyper-systolic broadcast uses:
    minimiser of the exact fill depth (ties to the smaller ``K``),
    scanned over ``K <= 2*sqrt(p)+2`` — beyond that the first group's
    own chain (``K-1`` slots) already exceeds the ``~2*sqrt(p)``
    optimum."""
    if p < 2:
        return 1
    best_k, best_d = 1, _hypersystolic_depth_at(p, 1)
    for k in range(2, min(p, 2 * math.isqrt(p) + 2) + 1):
        d = _hypersystolic_depth_at(p, k)
        if d < best_d:
            best_k, best_d = k, d
    return best_k


@functools.lru_cache(maxsize=None)
def hypersystolic_depth(p: int) -> int:
    """Fill depth ``D`` at the chosen stride: segment ``k`` reaches the
    deepest rank in slot ``D + k``."""
    if p < 2:
        return 0
    return _hypersystolic_depth_at(p, hypersystolic_stride(p))


#: ``(base, rate, chunks)`` per pipelined algorithm: completion time is
#: ``(base + rate*S) * (alpha + m*beta/(chunks*S))`` (functions of p).
def _pipeline_shape(algorithm: str, p: int) -> tuple[int, int, int]:
    if algorithm == "pipelined":
        return p - 2, 1, 1
    if algorithm == "segmented":
        if p == 2:
            return 0, 1, 1
        return segmented_fill_slots(p) - 2, 2, 1
    if algorithm == "fourcolor":
        return p - 2, 1, 2
    if algorithm == "hypersystolic":
        return hypersystolic_depth(p) - 1, 1, 1
    raise ModelError(f"not a pipelined broadcast algorithm: {algorithm!r}")


class PipelineDepthWarning(RuntimeWarning):
    """The analytic optimum ``S*`` exceeds the route's segment capacity.

    The closed form assumes every segment can be in flight at once
    (infinitely many NIC slots); a real route only holds about one
    segment per pipeline stage, so depths beyond
    :func:`max_pipeline_segments` buy no additional overlap.  See
    ``docs/cost_model.md``.
    """


def max_pipeline_segments(p: int, algorithm: str = "pipelined") -> int:
    """Per-route segment capacity of a pipelined broadcast.

    The family's completion shape ``(base + rate*S)`` means the route
    drains one segment per ``rate`` slots after a ``base``-slot fill:
    at most ``base + rate`` segments are ever simultaneously in flight,
    which is the depth beyond which the infinite-NIC closed form stops
    describing the modelled machine.
    """
    if p <= 2:
        return 1
    base, rate, _chunks = _pipeline_shape(algorithm, p)
    return max(1, base + rate)


def optimal_pipeline_segments(
    m_bytes: float, p: int, alpha: float, beta: float,
    algorithm: str = "pipelined",
) -> int:
    """Segment count minimising a pipelined broadcast's completion time
    ``(base + rate*S)(alpha + m*beta/(chunks*S))``:
    ``S* = sqrt(base*m*beta/(chunks*rate*alpha))``.

    For the default pipelined chain this is the classic
    ``sqrt(m*beta*(p-2)/alpha)``; the other family members substitute
    their own fill latency (``segmented``: tree fill minus 2, at rate
    2 slots/segment; ``fourcolor``: ``p-2`` over ``2S`` chunks;
    ``hypersystolic``: ``D-1``).

    When ``S*`` exceeds :func:`max_pipeline_segments` — the infinite-NIC
    artifact documented in ``docs/cost_model.md`` — a
    :class:`PipelineDepthWarning` is emitted and the raw optimum is
    returned: the closed-form value the pinned predictor artifacts rely
    on.
    """
    if p <= 2 or m_bytes <= 0 or alpha <= 0:
        return 1
    base, rate, chunks = _pipeline_shape(algorithm, p)
    if base <= 0:
        return 1
    s = math.sqrt(m_bytes * beta * base / (chunks * rate * alpha))
    depth = max(1, round(s))
    cap = max(1, base + rate)
    if depth > cap:
        warnings.warn(
            f"optimal pipeline depth {depth} exceeds the {algorithm} "
            f"route's segment capacity {cap} at p={p}; the closed form "
            "assumes infinite NIC slots (docs/cost_model.md)",
            PipelineDepthWarning, stacklevel=2,
        )
    return depth


# ---------------------------------------------------------------------------
# The query interface
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CostQuery:
    """One collective to price: what, among how many, over which wire.

    ``alpha``/``beta`` are the Hockney parameters of the (homogeneous)
    network the collective runs over, per **byte**; ``nbytes`` follows
    the module-level size convention.  ``algorithm=None`` asks for the
    op's default algorithm where one exists.
    """

    op: str
    algorithm: str | None
    p: int
    nbytes: float
    alpha: float
    beta: float
    segments: int | None = None

    @classmethod
    def from_params(
        cls,
        op: str,
        algorithm: str | None,
        p: int,
        nbytes: float,
        params: HockneyParams,
        *,
        segments: int | None = None,
    ) -> "CostQuery":
        return cls(op=op, algorithm=algorithm, p=p, nbytes=nbytes,
                   alpha=params.alpha, beta=params.beta, segments=segments)


@dataclasses.dataclass(frozen=True)
class CostEstimate:
    """A priced collective: total seconds plus its decomposition.

    ``seconds`` is the authoritative number (computed with the same
    float-operation order the macro/predictor fidelity contract pins);
    ``alpha_terms`` and ``beta_bytes`` decompose it as
    ``alpha_terms * alpha + beta_bytes * beta`` up to float
    reassociation — useful for latency/bandwidth attribution and the
    lower-bound gap analysis.
    """

    seconds: float
    alpha_terms: float
    beta_bytes: float

    def __add__(self, other: "CostEstimate") -> "CostEstimate":
        return CostEstimate(
            seconds=self.seconds + other.seconds,
            alpha_terms=self.alpha_terms + other.alpha_terms,
            beta_bytes=self.beta_bytes + other.beta_bytes,
        )


_ZERO = CostEstimate(seconds=0.0, alpha_terms=0.0, beta_bytes=0.0)


def pipeline_slots(algorithm: str, p: int, m: float, alpha: float,
                   beta: float, segments: int | None = None
                   ) -> tuple[int, float]:
    """``(slots, chunk)`` of a :data:`PIPELINED_BCASTS` broadcast of
    ``m`` among ``p >= 2`` ranks at pipeline depth ``segments`` (the
    closed-form optimum when unset): it completes in
    ``slots * (alpha + chunk * beta)``."""
    s = segments or optimal_pipeline_segments(m, p, alpha, beta, algorithm)
    if algorithm == "fourcolor" and p == 2:
        # One link pair: the executable sends the message whole.
        return 1, m
    base, rate, chunks = _pipeline_shape(algorithm, p)
    return base + rate * s, m / (chunks * s)


def _bcast_estimate(q: CostQuery) -> CostEstimate:
    m, p, alpha, beta = q.nbytes, q.p, q.alpha, q.beta
    if q.algorithm in PIPELINED_BCASTS:
        slots, chunk = pipeline_slots(q.algorithm, p, m, alpha, beta,
                                      q.segments)
        return CostEstimate(
            seconds=slots * (alpha + chunk * beta),
            alpha_terms=float(slots),
            beta_bytes=slots * chunk,
        )
    entry = bcast_entry(q.algorithm)
    L, W = entry.L(p), entry.W(p)
    return CostEstimate(
        seconds=L * alpha + m * W * beta,
        alpha_terms=L,
        beta_bytes=m * W,
    )


def estimate(q: CostQuery) -> CostEstimate:
    """Price one collective from the registry's closed forms.

    This is *the* cost function: :func:`collective_time` /
    :func:`bcast_time`, the macro backend's
    :class:`~repro.simulator.costers.AnalyticCoster` /
    :class:`~repro.simulator.costers.TopologyCoster`, and (through
    them) the closed-form predictor all route here.
    """
    if q.nbytes < 0:
        raise ModelError(f"message size must be >= 0, got {q.nbytes}")
    if q.p < 1:
        raise ModelError(f"p must be >= 1, got {q.p}")
    if q.p == 1:
        return _ZERO
    if q.op == "bcast":
        return _bcast_estimate(q)
    m, p, alpha, beta = q.nbytes, q.p, q.alpha, q.beta
    log2p = _log2ceil(p)
    if q.op == "scatter":
        # Binomial range-splitting tree: the payload halves each level.
        return CostEstimate(
            seconds=log2p * alpha + (p - 1) / p * m * beta,
            alpha_terms=float(log2p),
            beta_bytes=(p - 1) / p * m,
        )
    if q.op == "gather":
        # Mirror of scatter with per-rank contributions: level k moves
        # 2^k contributions, summing to (p-1) along the critical path.
        return CostEstimate(
            seconds=log2p * alpha + (p - 1) * m * beta,
            alpha_terms=float(log2p),
            beta_bytes=(p - 1) * m,
        )
    if q.op == "allgather":
        if q.algorithm == "ring" or (q.algorithm == "recursive_doubling"
                                     and p & (p - 1)):
            # Recursive doubling falls back to the ring off powers of two.
            return CostEstimate(
                seconds=(p - 1) * (alpha + m * beta),
                alpha_terms=float(p - 1),
                beta_bytes=(p - 1) * m,
            )
        if q.algorithm in ("recursive_doubling", "bruck"):
            return CostEstimate(
                seconds=log2p * alpha + (p - 1) * m * beta,
                alpha_terms=float(log2p),
                beta_bytes=(p - 1) * m,
            )
    if q.op == "reduce":
        if q.algorithm == "flat":
            return CostEstimate(
                seconds=(p - 1) * (alpha + m * beta),
                alpha_terms=float(p - 1),
                beta_bytes=(p - 1) * m,
            )
        if q.algorithm == "binomial":
            return CostEstimate(
                seconds=log2p * (alpha + m * beta),
                alpha_terms=float(log2p),
                beta_bytes=log2p * m,
            )
    if q.op == "allreduce":
        if q.algorithm == "rabenseifner":
            # A ring reduce-scatter plus a ring allgather of m/p chunks.
            return CostEstimate(
                seconds=2 * (p - 1) * alpha + 2 * (p - 1) / p * m * beta,
                alpha_terms=float(2 * (p - 1)),
                beta_bytes=2 * (p - 1) / p * m,
            )
        if q.algorithm == "recursive_doubling":
            if p & (p - 1) == 0:
                return CostEstimate(
                    seconds=log2p * (alpha + m * beta),
                    alpha_terms=float(log2p),
                    beta_bytes=log2p * m,
                )
            # The implementation falls back to reduce + bcast off
            # powers of two.
            return estimate(
                dataclasses.replace(q, op="reduce", algorithm="binomial")
            ) + estimate(
                dataclasses.replace(q, op="bcast", algorithm="binomial")
            )
    if q.op == "barrier":
        # Dissemination barrier: ceil(log2 p) zero-byte rounds.
        return CostEstimate(
            seconds=log2p * alpha, alpha_terms=float(log2p), beta_bytes=0.0
        )
    raise ModelError(
        f"no closed-form cost for collective {q.op!r} / {q.algorithm!r}")


def collective_time(op: str, algorithm: str, m_bytes: float, p: int,
                    params: HockneyParams, *,
                    segments: int | None = None) -> float:
    """:func:`estimate` in seconds for callers holding Hockney
    parameters (the costers, the figure sweeps); ``m_bytes`` follows
    the op's size convention (see the module docstring)."""
    return estimate(CostQuery(
        op=op, algorithm=algorithm, p=p, nbytes=m_bytes,
        alpha=params.alpha, beta=params.beta, segments=segments,
    )).seconds


def bcast_time(algorithm: str, m_bytes: float, p: int,
               params: HockneyParams, *,
               segments: int | None = None) -> float:
    """Predicted broadcast time of ``m_bytes`` among ``p`` ranks.

    For the pipelined chain, ``segments=None`` uses the analytically
    optimal segment count for these parameters.
    """
    return collective_time("bcast", algorithm, m_bytes, p, params,
                           segments=segments)
