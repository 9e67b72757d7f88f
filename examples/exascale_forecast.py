#!/usr/bin/env python
"""Reproduce the paper's exascale forecast (Figure 10) and explore how
the verdict shifts with the platform's latency/bandwidth balance.

Usage::

    python examples/exascale_forecast.py
"""

import math

from repro.models.exascale import ExascaleScenario, exascale_prediction
from repro.costs import critical_ratio, predicted_extremum_kind
from repro.util.tables import format_table


def ascii_plot(xs, ys, ref, width=56) -> str:
    """Tiny log-x ascii chart: one row per x, '#' bar for y, '|' = SUMMA."""
    top = max(max(ys), ref)
    lines = []
    for x, y in zip(xs, ys):
        bar = int(round(y / top * width))
        refpos = int(round(ref / top * width))
        row = ["."] * (width + 1)
        for i in range(bar):
            row[i] = "#"
        row[refpos] = "|"
        lines.append(f"G=2^{int(math.log2(x)):>2d} " + "".join(row))
    return "\n".join(lines)


def main() -> None:
    sc = ExascaleScenario()
    pred = exascale_prediction(sc)
    print(f"Exascale scenario: p=2^20 ranks, n=2^22, b={sc.b}, "
          f"alpha={sc.alpha * 1e9:.0f} ns, 100 GB/s links\n")
    print("HSUMMA model time per group count ('|' marks SUMMA):\n")
    print(ascii_plot(pred["groups"], pred["hsumma"], pred["summa"]))
    best = min(pred["hsumma"])
    print(f"\nSUMMA {pred['summa']:.1f} s; HSUMMA {best:.1f} s at "
          f"G={pred['optimal_G']} -> {pred['summa'] / best:.2f}x")
    print(f"(compute adds {pred['compute']:.1f} s to both)\n")

    # Sensitivity: sweep the latency while keeping 100 GB/s links.
    rows = []
    for alpha_ns in (50, 150, 500, 1500, 5000):
        s = ExascaleScenario(alpha=alpha_ns * 1e-9)
        p = exascale_prediction(s)
        kind = predicted_extremum_kind(s.n, s.b, s.p, s.alpha, s.beta)
        rows.append([
            alpha_ns,
            s.alpha / s.beta,
            critical_ratio(s.n, s.b, s.p),
            kind,
            p["summa"] / min(p["hsumma"]),
        ])
    print(format_table(
        ["alpha (ns)", "alpha/beta", "2nb/p", "extremum at sqrt(p)",
         "SUMMA/HSUMMA"],
        rows,
        title="Sensitivity: the threshold test decides the verdict",
    ))
    print("\nBelow the threshold the hierarchy stops paying — "
          "exactly the regime boundary of paper eqs. (10)/(11).")


if __name__ == "__main__":
    main()
