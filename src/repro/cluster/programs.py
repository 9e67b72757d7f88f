"""From a scheduled launch to fresh rank programs.

A :class:`LaunchSpec` is everything the scheduler decided about *how*
one job runs — the family, the shape it runs at (grid, blocking,
broadcast family), and the runtime estimate its decision was based on.
:func:`build_programs` turns (job, spec) into the list of per-rank
generators one attempt executes; the cluster engine calls it once per
attempt so retries start from pristine state, and the bit-identity test
calls it directly to run the same programs on a standalone engine.

Jobs execute at DES fidelity only.  The macro backend's collapsed fast
path keys its pending-collective table by (collective id, sequence),
which would collide across jobs sharing one event queue — so streams
always step per rank, and plans inform *decisions*, not execution.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any

from repro.cluster.jobs import DEFAULT_ALGORITHM, JobSpec
from repro.core.launch import FAMILIES, family, rank_programs, Shape
from repro.errors import ConfigurationError
from repro.mpi.comm import CollectiveOptions
from repro.payloads import PhantomArray


@dataclasses.dataclass(frozen=True)
class LaunchSpec(Shape):
    """How one job will run, as decided by a scheduler: a
    :data:`repro.core.launch.FAMILIES` row, the
    :class:`~repro.core.launch.Shape` it runs at (handed to the
    family's ``configure``, which validates it) and ``predicted``, the
    scheduler's runtime estimate in virtual seconds (closed-form
    planner estimate or the crude Hockney model); EASY-backfill
    reservations and the planner's shortest-first ordering both consume
    it.  The grid must be set, and ``s * t`` equal the job's ``p``.
    """

    algorithm: str = dataclasses.field(kw_only=True)
    predicted: float = dataclasses.field(kw_only=True)

    def __post_init__(self) -> None:
        if self.algorithm not in FAMILIES:
            raise ConfigurationError(
                f"launch algorithm must be one of {tuple(FAMILIES)}, "
                f"got {self.algorithm!r}"
            )
        if (self.s or 0) < 1 or (self.t or 0) < 1:
            raise ConfigurationError(
                f"launch needs a grid with s, t >= 1; got "
                f"s={self.s}, t={self.t}"
            )


def estimate_run_seconds(
    n: int, p: int, s: int, t: int, block: int,
    alpha: float, beta: float, gamma: float, itemsize: int = 8,
) -> float:
    """Crude closed-form SUMMA estimate: per-step binomial row/column
    broadcasts under Hockney plus the gemm flops.  Used by the FIFO and
    EASY schedulers, which by design plan without the planner."""
    steps = max(1, n // block)
    la = math.ceil(math.log2(t)) if t > 1 else 0
    lb = math.ceil(math.log2(s)) if s > 1 else 0
    a_bytes = (n // s) * block * itemsize
    b_bytes = block * (n // t) * itemsize
    comm = steps * (la * (alpha + a_bytes * beta)
                    + lb * (alpha + b_bytes * beta))
    compute = 2.0 * n * n * n / p * gamma
    return comm + compute


def naive_launch(job: JobSpec, *, alpha: float, beta: float,
                 gamma: float) -> LaunchSpec:
    """The launch FIFO/EASY use: the pinned family (SUMMA when the job
    pins none) at its own defaults for the job's rank count —
    most-square grid, largest valid block, library-default broadcasts
    and, for ``hsumma``, the group count nearest ``sqrt(p)``."""
    name = job.algorithm or DEFAULT_ALGORITHM
    shape, _ = family(name).configure(job.n, job.n, job.n,
                                      Shape(nprocs=job.p))
    predicted = estimate_run_seconds(job.n, job.p, shape.s, shape.t,
                                     shape.block, alpha, beta, gamma)
    return LaunchSpec(**vars(shape), algorithm=name, predicted=predicted)


def launchable(plan: Any) -> bool:
    """Whether the stream simulator can place ``plan``: its slot grid
    holds one rank per grid cell, so replicated layouts (2.5D with
    ``c > 1``) have no placement and fall back to the naive launch."""
    return plan.params.get("replication", 1) == 1


def launch_from_plan(job: JobSpec, plan: Any) -> LaunchSpec:
    """Translate a planner :class:`~repro.planner.query.Plan` into a
    launch of the same family and shape."""
    if not launchable(plan):
        raise ConfigurationError(
            f"job {job.jid}: plan algorithm {plan.algorithm!r} is not "
            "launchable on the stream simulator"
        )
    return LaunchSpec.from_params(plan.params, algorithm=plan.algorithm,
                                  predicted=plan.predicted_time)


def build_programs(job: JobSpec, spec: LaunchSpec, *, gamma: float = 0.0,
                   options: CollectiveOptions | None = None,
                   trace: bool = False, base: int = 0) -> list:
    """Fresh per-rank generators for one attempt of ``job``, from the
    same program factory the standalone runners use, bound at engine
    rank ``base`` (the attempt's first rank in a shared engine).

    Matrices are phantom (scale mode): streams measure time, not
    numerics — the single-run paths already pin numerical correctness.
    """
    if spec.s * spec.t != job.p:
        raise ConfigurationError(
            f"job {job.jid}: launch grid {spec.s}x{spec.t} does not use "
            f"p={job.p} ranks"
        )
    n = job.n
    opts = options or CollectiveOptions()
    if spec.bcast is not None:
        opts = opts.replace(bcast=spec.bcast)
    if spec.segments is not None:
        opts = opts.replace(bcast_segments=spec.segments)
    row = family(spec.algorithm)
    shape, cfg = row.configure(n, n, n, spec)
    algorithm = row.variant(shape)
    layout = algorithm.layout(cfg)
    return rank_programs(
        algorithm, cfg, layout.nranks,
        layout.deal(PhantomArray((n, n)), PhantomArray((n, n))),
        options=opts, gamma=gamma, trace=trace, base=base,
    )
