"""Experiment reproduction machinery.

* :mod:`repro.experiments.stepmodel` — the fast step-synchronous
  executor: runs SUMMA/HSUMMA on the macro backend, every collective
  priced by a coster (:mod:`repro.simulator.costers`: analytically, by
  micro-simulation, or by a topology-effective approximation), and
  scales to the paper's 16384- and 2^20-rank settings.
* :mod:`repro.experiments.harness` — sweep/series plumbing and table
  output.
* :mod:`repro.experiments.figures` — one driver per paper figure
  (5-10).
* :mod:`repro.experiments.tables` — Tables I and II plus the Section
  IV-C/V model-validation checks.
"""

from repro.experiments.harness import Series

__all__ = ["Series"]
