"""Communication lower bounds for parallel matrix multiplication.

Every plan the planner returns is measured against the
memory-independent lower bound of Ballard, Demmel, Holtz, Lipshitz and
Schwartz ("Strong Scaling of Matrix Multiplication Algorithms and
Memory-Independent Communication Lower Bounds", SPAA'12): for the
classical (non-Strassen) algorithm some rank must move

    ``W >= Omega(n^2 / p^(2/3))``   elements,

regardless of how much memory each rank has.  With per-rank memory
``M`` the older memory-dependent bound (Irony-Toledo-Tiskin) applies
too:

    ``W >= n^3 / (p * sqrt(8 * M)) - M``   elements,

and the effective bandwidth floor is the larger of the two.  The
constants here follow the Theta-statements (leading constant 1 for the
memory-independent term), so reported gaps are honest up to the
bounds' own constant factors — the *scaling* with ``n``, ``p`` and
``M`` is exact.  2D algorithms (SUMMA/HSUMMA, ``M = Theta(n^2/p)``)
sit on the memory-dependent branch at ``Theta(n^2/sqrt(p))``; 2.5D/3D
replication walks down toward the memory-independent floor.

The latency floor is ``ceil(log2 p)`` messages: the entries of ``C``
depend on all of ``A`` and ``B``, so information must fan in/out
across all ``p`` ranks, which no schedule does in fewer rounds.
"""

from __future__ import annotations

import dataclasses
import math

from repro.costs.registry import check_rates
from repro.errors import ModelError


def memory_independent_bound_elements(n: float, p: float) -> float:
    """BDHLS memory-independent bandwidth floor, in elements per rank:
    ``n^2 / p^(2/3)`` (zero at ``p == 1`` — everything is local)."""
    if n <= 0 or p < 1:
        raise ModelError(f"need n > 0, p >= 1; got n={n}, p={p}")
    if p == 1:
        return 0.0
    return n * n / p ** (2.0 / 3.0)


def memory_dependent_bound_elements(
    n: float, p: float, memory_elements: float
) -> float:
    """Irony-Toledo-Tiskin bandwidth floor for per-rank memory ``M``
    (elements): ``n^3 / (p * sqrt(8 M)) - M``, clamped at zero."""
    if n <= 0 or p < 1 or memory_elements <= 0:
        raise ModelError(
            f"need n > 0, p >= 1, M > 0; got n={n}, p={p}, M={memory_elements}"
        )
    if p == 1:
        return 0.0
    return max(0.0, n**3 / (p * math.sqrt(8.0 * memory_elements)) - memory_elements)


def bandwidth_lower_bound_elements(
    n: float, p: float, memory_elements: float | None = None
) -> float:
    """Elements some rank must communicate: the max of the applicable
    bounds (memory-independent always; memory-dependent when a per-rank
    memory is given)."""
    w = memory_independent_bound_elements(n, p)
    if memory_elements is not None:
        w = max(w, memory_dependent_bound_elements(n, p, memory_elements))
    return w


def latency_lower_bound_terms(p: float) -> float:
    """Messages on the critical path: ``ceil(log2 p)`` fan-in rounds."""
    if p < 1:
        raise ModelError(f"need p >= 1, got {p}")
    if p <= 1:
        return 0.0
    return float(math.ceil(math.log2(p)))


@dataclasses.dataclass(frozen=True)
class LowerBound:
    """The time floor a plan is measured against.

    ``comm_seconds = latency_terms * alpha + elements * beta`` and
    ``seconds = comm_seconds + compute_seconds`` (perfect overlap of
    communication with computation is *not* assumed — the floor adds
    them, which is itself a valid floor only for the bulk-synchronous
    schedules this repository prices; an overlap schedule is floored by
    ``max`` instead, reported as ``overlap_seconds``).
    """

    elements: float
    latency_terms: float
    comm_seconds: float
    compute_seconds: float

    @property
    def seconds(self) -> float:
        """Bulk-synchronous floor: communication plus computation."""
        return self.comm_seconds + self.compute_seconds

    @property
    def overlap_seconds(self) -> float:
        """Floor under perfect communication/computation overlap."""
        return max(self.comm_seconds, self.compute_seconds)


def lower_bound_time(
    n: float,
    p: float,
    alpha: float,
    beta: float,
    gamma: float = 0.0,
    *,
    memory_elements: float | None = None,
) -> LowerBound:
    """Assemble the full time floor for an ``n x n`` multiply on ``p``
    ranks (``beta`` per **element**, matching the closed forms)."""
    check_rates(alpha=alpha, beta=beta, gamma=gamma)
    elements = bandwidth_lower_bound_elements(n, p, memory_elements)
    latency = latency_lower_bound_terms(p)
    return LowerBound(
        elements=elements,
        latency_terms=latency,
        comm_seconds=latency * alpha + elements * beta,
        compute_seconds=2.0 * n**3 / p * gamma,
    )
