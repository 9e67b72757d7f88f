"""Step-synchronous fast executor for SUMMA and HSUMMA.

The full discrete-event simulator moves every message; at the paper's
BlueGene/P scale (16384 ranks) and the exascale prediction (2^20) that
is billions of events.  But SUMMA-family algorithms are *bulk
synchronous*: each step is a fixed set of broadcasts followed by a
gemm, and on the paper's no-overlap schedule the makespan is simply the
sum over steps of

    ``max_over_row_comms(T_bcast(A)) + max_over_col_comms(T_bcast(B))
      + T_gemm``

(generalised to outer + inner phases for HSUMMA).  This module now
delegates that computation to the macro backend
(:class:`repro.simulator.backends.MacroBackend`), which runs the *real*
rank programs and satisfies every collective from a pluggable *coster*
(:mod:`repro.simulator.costers`) — so the step model and the
discrete-event simulation share one schedule description by
construction.
"""

from __future__ import annotations

import dataclasses

from repro.core.hsumma import HSUMMA, HSummaConfig
from repro.core.launch import AlgorithmSpec, launch
from repro.core.summa import SUMMA, SummaConfig
from repro.errors import ConfigurationError
from repro.mpi.comm import CollectiveOptions
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import Network
from repro.payloads import PhantomArray
from repro.simulator.backends import MacroBackend
from repro.simulator.costers import (
    AnalyticCoster,
    CollectiveCoster,
    MicroDesCoster,
    TopologyCoster,
)
from repro.simulator.runtime import DEFAULT_PARAMS

# The coster classes are named here too: the repository's performance
# benchmark binds and traces them under this module's name.
__all__ = ["AnalyticCoster", "CollectiveCoster", "MicroDesCoster",
           "StepModelReport", "TopologyCoster", "hsumma_step_model",
           "summa_step_model"]


@dataclasses.dataclass(frozen=True)
class StepModelReport:
    """Timing prediction of one SUMMA/HSUMMA run."""

    total_time: float
    comm_time: float
    compute_time: float
    nsteps: int

    def __post_init__(self) -> None:
        if self.total_time < 0 or self.comm_time < 0 or self.compute_time < 0:
            raise ConfigurationError("negative time in step-model report")


# ---------------------------------------------------------------------------
# Step models: thin compatibility wrappers over the macro backend
# ---------------------------------------------------------------------------
#
# Historically these functions re-implemented the SUMMA/HSUMMA schedules
# as hand-derived per-step maxima — a drift hazard against the rank
# programs.  They now launch the family's spec on a macro backend
# (collectives priced by the coster, everything else inherited from the
# engine) through the same :func:`repro.core.launch.launch` the runners
# use, so there is exactly one description of each schedule in the
# repository.


def _coster_network(coster: CollectiveCoster, nranks: int) -> Network:
    """The network the macro backend should run over for ``coster``."""
    net = getattr(coster, "network", None)
    if net is not None and net.nranks >= nranks:
        return net
    params = getattr(coster, "params", None) or DEFAULT_PARAMS
    return HomogeneousNetwork(nranks, params)


def _run_macro(
    spec: AlgorithmSpec,
    cfg,
    coster: CollectiveCoster,
    gamma: float,
    nsteps: int,
) -> StepModelReport:
    network = _coster_network(coster, cfg.s * cfg.t)
    _, sim = launch(
        spec, cfg, PhantomArray((cfg.m, cfg.l)), PhantomArray((cfg.l, cfg.n)),
        network=network, gamma=gamma,
        options=CollectiveOptions(
            bcast=getattr(coster, "algorithm", "binomial")),
        backend=MacroBackend(network, coster=coster,
                             symmetry=spec.symmetry(cfg)),
    )
    return StepModelReport(
        total_time=sim.total_time,
        comm_time=sim.comm_time,
        compute_time=sim.compute_time,
        nsteps=nsteps,
    )


def summa_step_model(
    cfg: SummaConfig, coster: CollectiveCoster, gamma: float = 0.0
) -> StepModelReport:
    """Predict a SUMMA run's times under the step-synchronous schedule."""
    return _run_macro(SUMMA, cfg, coster, gamma, cfg.nsteps)


def hsumma_step_model(
    cfg: HSummaConfig, coster: CollectiveCoster, gamma: float = 0.0
) -> StepModelReport:
    """Predict an HSUMMA run's times under the step-synchronous schedule.

    Each phase is priced under the broadcast algorithm its requests
    announce (``cfg.outer_bcast`` / ``cfg.inner_bcast``, else the
    coster's).
    """
    return _run_macro(HSUMMA, cfg, coster, gamma,
                      cfg.outer_steps * cfg.inner_steps)
