"""From a scheduled launch to fresh rank programs.

A :class:`LaunchSpec` is everything the scheduler decided about *how*
one job runs — algorithm, grid shape, blocking, broadcast family, and
the runtime estimate its decision was based on.  :func:`build_programs`
turns (job, spec) into the list of per-rank generators one attempt
executes; the cluster engine calls it once per attempt so retries start
from pristine state, and the bit-identity test calls it directly to run
the same programs on a standalone engine.

Jobs execute at DES fidelity only.  The macro backend's collapsed fast
path keys its pending-collective table by (collective id, sequence),
which would collide across jobs sharing one event queue — so streams
always step per rank, and plans inform *decisions*, not execution.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any

from repro.cluster.jobs import JobSpec
from repro.core.launch import FAMILIES, family, rank_programs
from repro.errors import ConfigurationError
from repro.mpi.comm import CollectiveOptions
from repro.payloads import PhantomArray
from repro.util.gridmath import factor_grid


@dataclasses.dataclass(frozen=True)
class LaunchSpec:
    """How one job will run, as decided by a scheduler.

    ``algorithm`` names a :data:`repro.core.launch.FAMILIES` row; the
    shape fields use the planner's vocabulary (``block`` is the SUMMA
    pivot block / HSUMMA outer block ``B``, ``inner_block`` HSUMMA's
    ``b``, 0 meaning ``b = B``) and are handed to the family's
    ``configure``, which validates them.  ``predicted`` is the
    scheduler's runtime estimate in virtual seconds (closed-form
    planner estimate or the crude Hockney model); EASY-backfill
    reservations and the planner's shortest-first ordering both
    consume it.  ``s * t`` must equal the job's ``p``.
    """

    algorithm: str
    s: int
    t: int
    block: int
    predicted: float
    groups: tuple[int, int] | None = None   # HSUMMA (I, J)
    inner_block: int = 0
    bcast: str | None = None
    outer_bcast: str | None = None
    segments: int | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in FAMILIES:
            raise ConfigurationError(
                f"launch algorithm must be one of {tuple(FAMILIES)}, "
                f"got {self.algorithm!r}"
            )
        if self.s < 1 or self.t < 1 or self.block < 1:
            raise ConfigurationError(
                f"launch needs s, t, block >= 1; got "
                f"s={self.s}, t={self.t}, block={self.block}"
            )


def default_block(n: int, s: int, t: int) -> int:
    """Largest pivot block valid for an ``n``-sized SUMMA on ``s x t``:
    ``gcd(n // s, n // t)`` divides both tile extents and hence ``n``."""
    return math.gcd(n // s, n // t)


def default_launch_shape(job: JobSpec) -> tuple[int, int]:
    """Most-square grid for a job's rank count (FIFO/EASY default)."""
    return factor_grid(job.p)


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
    """The launch FIFO/EASY use: most-square grid, largest valid block,
    library-default broadcasts.  Jobs pinned to ``hsumma`` get the
    group count nearest ``sqrt(p)`` (the paper's analytic optimum for
    square grids); everything else runs SUMMA."""
    s, t = default_launch_shape(job)
    if job.n % s or job.n % t:
        raise ConfigurationError(
            f"job {job.jid}: grid {s}x{t} does not tile n={job.n}"
        )
    block = default_block(job.n, s, t)
    predicted = estimate_run_seconds(job.n, job.p, s, t, block,
                                     alpha, beta, gamma)
    if job.algorithm == "hsumma":
        from repro.core.grouping import choose_group_grid, valid_group_counts

        counts = valid_group_counts(s, t)
        target = math.sqrt(job.p)
        G = min(counts, key=lambda g: (abs(g - target), g))
        return LaunchSpec(
            algorithm="hsumma", s=s, t=t, block=block,
            groups=choose_group_grid(s, t, G), predicted=predicted,
        )
    return LaunchSpec(
        algorithm="summa", s=s, t=t, block=block, predicted=predicted,
    )


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
    params = plan.params
    s, t = params["grid"]
    return LaunchSpec(
        algorithm=plan.algorithm, s=s, t=t,
        block=params["block"],
        inner_block=params.get("inner_block", 0),
        groups=tuple(params.get("group_grid") or ()) or None,
        bcast=params.get("bcast"),
        outer_bcast=params.get("outer_bcast"),
        segments=params.get("segments"),
        predicted=plan.predicted_time,
    )


def build_programs(job: JobSpec, spec: LaunchSpec, *, gamma: float = 0.0,
                   options: CollectiveOptions | None = None,
                   trace: bool = False) -> list:
    """Fresh per-rank generators for one attempt of ``job``, from the
    same program factory the standalone runners use.

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
    algorithm = family(spec.algorithm)
    cfg = algorithm.configure(
        n, n, n, s=spec.s, t=spec.t, block=spec.block,
        inner_block=spec.inner_block, groups=spec.groups,
        bcast=spec.bcast, outer_bcast=spec.outer_bcast,
    )
    layout = algorithm.layout(cfg)
    return rank_programs(
        algorithm, cfg, layout.nranks,
        layout.deal(PhantomArray((n, n)), PhantomArray((n, n))),
        options=opts, gamma=gamma, trace=trace,
    )
