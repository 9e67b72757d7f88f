"""Tables I and II plus the model-validation checks of Sections IV-C/V.

The paper's tables are symbolic; these drivers evaluate every cell for
a concrete ``(n, p, b, G)`` so the benchmark can print the comparison
numerically, and additionally verify the two structural identities the
paper proves:

* HSUMMA's factors at ``G = 1`` and ``G = p`` equal SUMMA's;
* at ``G = sqrt(p)`` with the Van de Geijn broadcast the cost matches
  the closed form of equation (12).
"""

from __future__ import annotations

import dataclasses
import math

from repro.costs import (
    BINOMIAL_MODEL,
    VANDEGEIJN_MODEL,
    BroadcastModel,
    critical_ratio,
    hsumma_bandwidth_factor,
    hsumma_beats_summa,
    hsumma_latency_factor,
    hsumma_optimal_vdg_cost,
    predicted_extremum_kind,
    summa_bandwidth_factor,
    summa_latency_factor,
)
from repro.errors import ModelError
from repro.util.tables import format_table


@dataclasses.dataclass(frozen=True)
class CostTableRow:
    """One evaluated row of Table I/II."""

    algorithm: str
    computation: float  # flops (gamma multiplier)
    latency_factor: float  # alpha multiplier
    bandwidth_factor: float  # beta multiplier (elements)


def cost_table(
    n: int,
    p: int,
    b: int,
    model: BroadcastModel,
    groups: list[int] | None = None,
) -> list[CostTableRow]:
    """Evaluate the SUMMA row and HSUMMA rows (per ``G``) of the paper's
    cost tables for broadcast ``model`` (Table I: binomial; Table II:
    Van de Geijn)."""
    if groups is None:
        q = math.isqrt(p)
        groups = sorted({1, q if q * q == p else 1, p})
    comp = 2.0 * n**3 / p
    rows = [
        CostTableRow(
            algorithm="SUMMA",
            computation=comp,
            latency_factor=summa_latency_factor(n, p, b, model),
            bandwidth_factor=summa_bandwidth_factor(n, p, model),
        )
    ]
    for G in groups:
        rows.append(
            CostTableRow(
                algorithm=f"HSUMMA(G={G})",
                computation=comp,
                latency_factor=hsumma_latency_factor(n, p, G, b, model),
                bandwidth_factor=hsumma_bandwidth_factor(n, p, G, model),
            )
        )
    return rows


def render_cost_table(
    n: int, p: int, b: int, model: BroadcastModel, groups: list[int] | None = None
) -> str:
    """Text rendering of :func:`cost_table`."""
    rows = cost_table(n, p, b, model, groups)
    title = (
        f"Cost factors with {model.name} broadcast "
        f"(n={n}, p={p}, b=B={b}); multiply by alpha/beta/gamma"
    )
    return format_table(
        ["algorithm", "computation", "latency factor", "bandwidth factor"],
        [[r.algorithm, r.computation, r.latency_factor, r.bandwidth_factor]
         for r in rows],
        title=title,
    )


def table1(n: int = 65536, p: int = 16384, b: int = 256) -> str:
    """Table I (binomial tree broadcast), evaluated."""
    q = math.isqrt(p)
    groups = sorted({1, q, p}) if q * q == p else [1, p]
    return render_cost_table(n, p, b, BINOMIAL_MODEL, groups)


def table2(n: int = 65536, p: int = 16384, b: int = 256) -> str:
    """Table II (Van de Geijn broadcast), evaluated, including the
    optimal ``G = sqrt(p)`` row of the paper."""
    q = math.isqrt(p)
    groups = sorted({1, q, p}) if q * q == p else [1, p]
    return render_cost_table(n, p, b, VANDEGEIJN_MODEL, groups)


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    """Section IV-C / V-A-1 / V-B-1 style model validation."""

    platform: str
    n: int
    p: int
    b: int
    alpha_over_beta: float
    threshold: float  # 2nb/p
    hsumma_wins: bool
    extremum: str  # "minimum" / "maximum" / "flat" at G = sqrt(p)
    optimal_cost: float  # eq. (12) value when a minimum exists

    def summary(self) -> str:
        verdict = (
            "HSUMMA has an interior minimum at G=sqrt(p)"
            if self.hsumma_wins
            else "HSUMMA degenerates to SUMMA (G=1 or G=p optimal)"
        )
        return (
            f"{self.platform}: alpha/beta={self.alpha_over_beta:.4g} vs "
            f"2nb/p={self.threshold:.4g} -> {verdict}"
        )


def validate_model(
    platform: str, n: int, p: int, b: int, alpha: float, beta: float
) -> ValidationReport:
    """Run the paper's threshold test for a platform parameter set."""
    if alpha <= 0 or beta <= 0:
        raise ModelError(f"need alpha, beta > 0; got {alpha}, {beta}")
    wins = hsumma_beats_summa(n, b, p, alpha, beta)
    return ValidationReport(
        platform=platform,
        n=n,
        p=p,
        b=b,
        alpha_over_beta=alpha / beta,
        threshold=critical_ratio(n, b, p),
        hsumma_wins=wins,
        extremum=predicted_extremum_kind(n, b, p, alpha, beta),
        optimal_cost=hsumma_optimal_vdg_cost(n, p, b, alpha, beta),
    )
