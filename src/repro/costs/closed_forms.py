"""Algorithm-level closed forms — the paper's equations (2)-(12).

Built on the registry's smooth broadcast factors
(:data:`repro.costs.registry.SMOOTH_MODELS`); ``repro.models`` adds
the optimiser, scaling and exascale studies on top.  ``beta`` is per
*element* throughout (multiply a per-byte beta by the word size to
convert), and ``p`` may be non-integer — the extremum analysis
differentiates through ``sqrt(p)``.

Also here: the 2.5D matmul communication cost (Solomonik-Demmel) the
planner uses to price replication.
"""

from __future__ import annotations

import math

from repro.costs.registry import BroadcastModel
from repro.errors import ModelError


# ---------------------------------------------------------------------------
# SUMMA — equation (2) and Tables I/II
# ---------------------------------------------------------------------------

def _check_summa(n: float, p: float, b: float) -> None:
    if n <= 0 or p < 1 or b <= 0:
        raise ModelError(f"need n > 0, p >= 1, b > 0; got n={n}, p={p}, b={b}")
    if b > n:
        raise ModelError(f"block size {b} exceeds matrix size {n}")


def summa_communication_cost(
    n: float,
    p: float,
    b: float,
    alpha: float,
    beta: float,
    model: BroadcastModel,
) -> float:
    """Equation (2): total SUMMA communication time.

    Per step, the pivot column and pivot row (each ``n/sqrt(p) * b``
    elements) are broadcast among ``sqrt(p)`` ranks; there are ``n/b``
    steps:

        ``T_S(n, p) = 2 * ( (n/b) * L(sqrt(p)) * alpha
                            + (n^2/sqrt(p)) * W(sqrt(p)) * beta )``
    """
    _check_summa(n, p, b)
    q = math.sqrt(p)
    steps = n / b
    volume = n * n / q  # elements broadcast per direction in total
    return 2.0 * (steps * model.L(q) * alpha + volume * model.W(q) * beta)


def summa_latency_factor(n: float, p: float, b: float, model: BroadcastModel) -> float:
    """The multiplier on ``alpha`` (Table I/II 'Latency Factor' column)."""
    _check_summa(n, p, b)
    return 2.0 * (n / b) * model.L(math.sqrt(p))


def summa_bandwidth_factor(n: float, p: float, model: BroadcastModel) -> float:
    """The multiplier on ``beta`` (Table I/II 'Bandwidth Factor' column)."""
    if n <= 0 or p < 1:
        raise ModelError(f"need n > 0 and p >= 1; got n={n}, p={p}")
    q = math.sqrt(p)
    return 2.0 * (n * n / q) * model.W(q)


def summa_computation_cost(n: float, p: float, gamma: float) -> float:
    """The ``2 n^3 / p`` flops at ``gamma`` seconds each (Tables I/II)."""
    if n <= 0 or p < 1 or gamma < 0:
        raise ModelError(f"need n > 0, p >= 1, gamma >= 0; got {n}, {p}, {gamma}")
    return 2.0 * n**3 / p * gamma


# ---------------------------------------------------------------------------
# HSUMMA — equations (3)-(5) and the HSUMMA rows of Tables I/II
# ---------------------------------------------------------------------------

def _check_hsumma(n: float, p: float, G: float, b: float, B: float) -> None:
    if n <= 0 or p < 1 or b <= 0 or B <= 0:
        raise ModelError(
            f"need n > 0, p >= 1, b > 0, B > 0; got n={n}, p={p}, b={b}, B={B}"
        )
    if not (1 <= G <= p):
        raise ModelError(f"group count G={G} outside [1, p={p}]")
    if b > B:
        raise ModelError(f"inner block {b} must be <= outer block {B}")


def hsumma_communication_cost(
    n: float,
    p: float,
    G: float,
    b: float,
    alpha: float,
    beta: float,
    model: BroadcastModel,
    *,
    B: float | None = None,
) -> float:
    """Equations (3)-(5) generalised to ``b != B``:

        ``T_HS = 2*(n/B)*L(sqrt(G))*alpha + 2*(n/b)*L(sqrt(p/G))*alpha
               + 2*(n^2/sqrt(p)) * (W(sqrt(G)) + W(sqrt(p/G))) * beta``

    ``G = 1`` and ``G = p`` recover SUMMA exactly (asserted by tests).
    """
    B = b if B is None else B
    _check_hsumma(n, p, G, b, B)
    qG = math.sqrt(G)
    qI = math.sqrt(p / G)
    latency = 2.0 * ((n / B) * model.L(qG) + (n / b) * model.L(qI)) * alpha
    volume = n * n / math.sqrt(p)
    bandwidth = 2.0 * volume * (model.W(qG) + model.W(qI)) * beta
    return latency + bandwidth


def hsumma_latency_factor(
    n: float, p: float, G: float, b: float, model: BroadcastModel, *, B: float | None = None
) -> float:
    """Multiplier on ``alpha`` (HSUMMA rows of Tables I/II, both levels)."""
    B = b if B is None else B
    _check_hsumma(n, p, G, b, B)
    return 2.0 * (
        (n / B) * model.L(math.sqrt(G)) + (n / b) * model.L(math.sqrt(p / G))
    )


def hsumma_bandwidth_factor(
    n: float, p: float, G: float, model: BroadcastModel
) -> float:
    """Multiplier on ``beta`` (HSUMMA rows of Tables I/II, both levels)."""
    if n <= 0 or p < 1 or not (1 <= G <= p):
        raise ModelError(f"bad arguments n={n}, p={p}, G={G}")
    volume = n * n / math.sqrt(p)
    return 2.0 * volume * (
        model.W(math.sqrt(G)) + model.W(math.sqrt(p / G))
    )


def hsumma_optimal_vdg_cost(
    n: float, p: float, b: float, alpha: float, beta: float
) -> float:
    """The paper's equation (12): HSUMMA cost at the optimum
    ``G = sqrt(p)`` with the Van de Geijn broadcast and ``b = B``:

    ``(log2(p) + 4*(p^(1/4) - 1)) * (n/b) * alpha
      + 8*(1 - p^(-1/4)) * (n^2/sqrt(p)) * beta``
    """
    if n <= 0 or p < 1 or b <= 0:
        raise ModelError(f"need n > 0, p >= 1, b > 0; got {n}, {p}, {b}")
    q4 = p ** 0.25
    latency = (math.log2(p) + 4.0 * (q4 - 1.0)) * (n / b) * alpha
    bandwidth = 8.0 * (1.0 - 1.0 / q4) * (n * n / math.sqrt(p)) * beta
    return latency + bandwidth


# ---------------------------------------------------------------------------
# Extremum analysis — equations (6)-(11)
# ---------------------------------------------------------------------------

def _check_rates(alpha: float, beta: float) -> None:
    """Refuse a NaN, infinite, zero or negative ``alpha`` or ``beta`` by
    name: a comparison with NaN is false, so the thresholds below would
    answer without one."""
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not 0 < value < math.inf:
            raise ModelError(
                f"{name} must be positive and finite, got {value!r}")


def critical_ratio(n: float, b: float, p: float) -> float:
    """The paper's threshold ``2*n*b/p`` (eq. 10/11), in elements."""
    if n <= 0 or b <= 0 or p < 1:
        raise ModelError(f"need n > 0, b > 0, p >= 1; got {n}, {b}, {p}")
    return 2.0 * n * b / p


def hsumma_beats_summa(
    n: float, b: float, p: float, alpha: float, beta: float
) -> bool:
    """Equation (10): True when ``alpha/beta > 2nb/p`` so HSUMMA's cost
    has its minimum at ``G = sqrt(p)`` strictly inside ``(1, p)``."""
    _check_rates(alpha, beta)
    return alpha / beta > critical_ratio(n, b, p)


def predicted_extremum_kind(
    n: float, b: float, p: float, alpha: float, beta: float
) -> str:
    """'minimum', 'maximum', or 'flat' at ``G = sqrt(p)`` for the Van de
    Geijn cost function (eqs. 10/11)."""
    _check_rates(alpha, beta)
    r = alpha / beta
    c = critical_ratio(n, b, p)
    if math.isclose(r, c, rel_tol=1e-12):
        return "flat"
    return "minimum" if r > c else "maximum"


def vdg_cost_derivative(
    n: float, p: float, G: float, b: float, alpha: float, beta: float
) -> float:
    """Equation (9): ``dT_HS/dG`` for the Van de Geijn broadcast, b=B:

    ``dT/dG = (G - sqrt(p)) / (G * sqrt(G)) * (n*alpha/b - 2*n^2*beta/p)``
    """
    if not (0 < G <= p):
        raise ModelError(f"G={G} outside (0, p={p}]")
    _check_rates(alpha, beta)
    return (G - math.sqrt(p)) / (G * math.sqrt(G)) * (
        n * alpha / b - 2.0 * n * n * beta / p
    )


def crossover_processor_count(
    n: float, b: float, alpha: float, beta: float
) -> float:
    """The processor count beyond which HSUMMA's interior minimum
    exists: solving eq. (10) ``alpha/beta > 2nb/p`` for ``p`` gives

        ``p* = 2 n b beta / alpha``

    — the crossover of Figure 9.  For the paper's BG/P parameters
    (n=65536, b=256, alpha/beta=3000 elements) this is ~11185, i.e.
    between the measured 8192 and 16384 core counts, matching where the
    model's parity ends."""
    if n <= 0 or b <= 0:
        raise ModelError(f"need n > 0 and b > 0; got n={n}, b={b}")
    _check_rates(alpha, beta)
    return 2.0 * n * b * beta / alpha


# ---------------------------------------------------------------------------
# 2.5D matmul (Solomonik-Demmel) — the planner's replication axis
# ---------------------------------------------------------------------------

def algo25d_communication_cost(
    n: float, p: float, c: float, alpha: float, beta: float
) -> float:
    """Per-rank communication time of 2.5D matmul with replication
    factor ``c`` on a ``sqrt(p/c) x sqrt(p/c) x c`` grid:

        ``T_2.5D ≈ (sqrt(p/c^3) + log2(c)) * alpha
                   + 2 * n^2 / sqrt(c*p) * beta``

    ``c = 1`` is the 2D (Cannon/SUMMA-volume) baseline; ``c = p^(1/3)``
    is the 3D algorithm, meeting the memory-independent lower bound's
    ``n^2/p^(2/3)`` scaling.  ``beta`` per element, like everything in
    this module.  The planner prices the extra ``log2(c)`` allreduce
    latency and the replicated memory footprint elsewhere.
    """
    if n <= 0 or p < 1:
        raise ModelError(f"need n > 0, p >= 1; got n={n}, p={p}")
    if not (1 <= c <= p ** (1.0 / 3.0) * (1 + 1e-9)):
        raise ModelError(
            f"replication c={c} outside [1, p^(1/3)={p ** (1.0 / 3.0):.3g}]"
        )
    latency = (math.sqrt(p / c**3) + math.log2(c)) * alpha
    bandwidth = 2.0 * n * n / math.sqrt(c * p) * beta
    return latency + bandwidth
