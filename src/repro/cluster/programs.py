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
from typing import Any

from repro.cluster.jobs import DEFAULT_ALGORITHM, JobSpec
from repro.core.launch import FAMILIES, family, rank_programs, Shape
from repro.errors import ConfigurationError, ModelError
from repro.mpi.comm import CollectiveOptions
from repro.payloads import PhantomArray


@dataclasses.dataclass(frozen=True)
class LaunchSpec(Shape):
    """How one job will run, as decided by a scheduler: a
    :data:`repro.core.launch.FAMILIES` row, the
    :class:`~repro.core.launch.Shape` it runs at (handed to the
    family's ``configure``, which validates it) and ``predicted``, the
    scheduler's runtime estimate in virtual seconds (the plan's
    predicted time, or :func:`naive_launch`'s closed form); EASY-backfill
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


def _run_options(spec: Shape,
                 options: CollectiveOptions | None) -> CollectiveOptions:
    """The collective options one attempt of a launch at ``spec`` runs
    under: the stream's ``options`` with the launch's own broadcast
    and pipeline depth, where set, on top."""
    opts = options or CollectiveOptions()
    return opts.replace(bcast=spec.bcast or opts.bcast,
                        bcast_segments=spec.segments or opts.bcast_segments)


def naive_launch(job: JobSpec, *, alpha: float, beta: float, gamma: float,
                 options: CollectiveOptions | None = None) -> LaunchSpec:
    """The launch FIFO/EASY use: the pinned family (SUMMA when the job
    pins none) at its own defaults for the job's rank count —
    most-square grid, largest valid block, the stream's broadcasts
    and, for ``hsumma``, the group count nearest ``sqrt(p)``.

    ``predicted`` is the planner's ranking form
    (:func:`repro.planner.space.closed_form_cost`) of the broadcasts
    the attempt runs: the shape's unset broadcasts and pipeline depth
    are read from the stream's ``options``, as :func:`build_programs`
    reads them.  The launch itself keeps them unset."""
    from repro.planner.query import PlanQuery
    from repro.planner.space import closed_form_cost

    name = job.algorithm or DEFAULT_ALGORITHM
    shape, _ = family(name).configure(job.n, job.n, job.n,
                                      Shape(nprocs=job.p))
    opts = _run_options(shape, options)
    priced = dataclasses.replace(
        shape, bcast=opts.bcast, outer_bcast=shape.outer_bcast or opts.bcast,
        segments=opts.bcast_segments)
    query = PlanQuery(n=job.n, p=job.p, alpha=alpha, beta=beta,
                      gamma=gamma).resolve()
    try:
        predicted = closed_form_cost(query, priced)
    except ModelError:
        # No ranking row (the fault-tolerant tree): price the library
        # default it relaxes, an over-estimate on a healthy machine.
        default = CollectiveOptions().bcast
        predicted = closed_form_cost(query, dataclasses.replace(
            priced, bcast=default, outer_bcast=default))
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
    row = family(spec.algorithm)
    shape, cfg = row.configure(n, n, n, spec)
    algorithm = row.variant(shape)
    layout = algorithm.layout(cfg)
    return rank_programs(
        algorithm, cfg, layout.nranks,
        layout.deal(PhantomArray((n, n)), PhantomArray((n, n))),
        options=_run_options(spec, options), gamma=gamma, trace=trace,
        base=base,
    )
