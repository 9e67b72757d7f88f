"""1-D heterogeneous SUMMA.

``C = A @ B`` on ``p`` ranks of *different* speeds:

* ``B`` and ``C`` are partitioned by columns with widths proportional
  to the rank speeds — per step, rank ``r`` performs
  ``2 * n * b * w_r`` flops, so speed-proportional widths equalise the
  compute time (the Beaumont-et-al. load-balancing principle in one
  dimension);
* ``A`` is partitioned by columns into ``n/b`` pivot panels round-robin
  over the ranks; each step the owner broadcasts its ``n x b`` panel
  and everyone updates its ``C`` slice.

The broadcast per step is exactly SUMMA's pivot pattern, so the paper's
hierarchical two-phase trick applies unchanged: with ``groups=G`` the
panel goes first to one delegate per group, then within the groups —
demonstrating that HSUMMA's idea composes with heterogeneity.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Generator, Sequence

import numpy as np

from repro.blocks.ops import gemm_flops
from repro.errors import ConfigurationError
from repro.hetero.partition import partition_bounds
from repro.mpi.comm import CollectiveOptions, MpiContext, make_contexts
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import Network
from repro.payloads import PhantomArray
from repro.verify.session import run_verified
from repro.simulator.runtime import DEFAULT_PARAMS
from repro.simulator.tracing import SimResult
from repro.util.validation import (
    require,
    require_divides,
    require_finite,
    require_positive,
)

Gen = Generator[Any, Any, Any]


@dataclasses.dataclass(frozen=True)
class Hetero1dConfig:
    """Parameters of a 1-D heterogeneous run.

    ``C = A @ B`` with ``A (m, l)``, ``B (l, n)``; ``p`` ranks with
    relative ``speeds``; pivot panel width ``block``; optional group
    count ``groups`` for hierarchical broadcasts (must divide ``p``).
    """

    m: int
    l: int
    n: int
    speeds: tuple[float, ...]
    block: int
    groups: int = 1

    def __post_init__(self) -> None:
        require(self.m > 0 and self.l > 0 and self.n > 0,
                f"matrix dims must be positive: {self.m}, {self.l}, {self.n}")
        require(len(self.speeds) >= 1, "need at least one rank")
        _require_speeds(self.speeds, "speeds")
        require_divides(self.block, self.l, "hetero1d: block into inner dim")
        require_divides(self.groups, len(self.speeds),
                        "hetero1d: groups into rank count")
        require(self.n >= len(self.speeds),
                f"need at least one column per rank: n={self.n}, "
                f"p={len(self.speeds)}")

    @property
    def p(self) -> int:
        return len(self.speeds)

    @property
    def nsteps(self) -> int:
        return self.l // self.block

    def col_bounds(self) -> list[tuple[int, int]]:
        """Column ranges of ``B``/``C`` per rank (speed-proportional)."""
        return partition_bounds(self.n, self.speeds)


def _require_speeds(speeds: Sequence[float], name: str) -> None:
    """Refuse a NaN, infinite, zero or negative speed by name."""
    for rank, speed in enumerate(speeds):
        require_positive(speed, f"{name}[{rank}]")


def hetero_summa1d_program(
    ctx: MpiContext,
    a_panels: dict[int, Any],
    b_slice: Any,
    cfg: Hetero1dConfig,
) -> Gen:
    """Per-rank generator.

    ``a_panels`` maps step index to this rank's owned ``(m, block)``
    pivot panels of ``A`` (round-robin ownership); ``b_slice`` is the
    rank's ``(l, w_r)`` column slice of ``B``.  Returns the rank's
    ``(m, w_r)`` slice of ``C``.
    """
    comm = ctx.world
    me = comm.rank
    p = cfg.p
    G = cfg.groups
    per_group = p // G
    group = me // per_group

    if G > 1:
        # Delegate comm: rank 0 of each group (collective construction);
        # group comms for the within-group phase.
        delegates = comm.split_by(lambda r: 0 if r % per_group == 0 else 1 + r,
                                  key_of=lambda r: r)
        group_comm = comm.split_by(lambda r: r // per_group)

    phantom = isinstance(b_slice, PhantomArray)
    w = b_slice.shape[1]
    if phantom:
        c_slice: Any = PhantomArray((cfg.m, w))
    else:
        c_slice = np.zeros((cfg.m, w))

    for k in range(cfg.nsteps):
        owner = k % p
        panel = a_panels.get(k) if me == owner else None
        if G == 1:
            panel = yield from comm.bcast(panel, root=owner)
        else:
            # Two-phase: to the group delegates, then within groups.
            owner_group = owner // per_group
            my_delegate = group * per_group
            if me == owner and me != my_delegate:
                # Hand the panel to the own group's delegate first so
                # the delegate tree has a single root.
                yield from comm.send(panel, my_delegate, tag=7)
                panel = None
            if me == my_delegate:
                if owner == me:
                    pass  # already have it
                elif owner // per_group == group:
                    panel = yield from comm.recv(owner, tag=7)
                panel = yield from delegates.bcast(
                    panel, root=owner_group
                ) if delegates.size > 1 else panel
            if me % per_group == 0:
                # I am a delegate: distribute within my group.
                panel = yield from group_comm.bcast(panel, root=0)
            else:
                panel = yield from group_comm.bcast(None, root=0)

        yield from ctx.compute_flops(gemm_flops(cfg.m, cfg.block, w))
        if not phantom:
            b_rows = b_slice[k * cfg.block : (k + 1) * cfg.block, :]
            c_slice += panel @ b_rows
    return c_slice


def run_hetero_summa1d(
    A: Any,
    B: Any,
    *,
    speeds: Sequence[float],
    block: int,
    groups: int = 1,
    base_gamma: float = 1e-9,
    partition_speeds: Sequence[float] | None = None,
    network: Network | None = None,
    params: Any = None,
    options: CollectiveOptions | None = None,
    backend: Any = None,
    verify: Any = None,
) -> tuple[Any, SimResult]:
    """Multiply ``A @ B`` on ranks of relative ``speeds``.

    Rank ``r`` computes at ``base_gamma / speeds[r]`` seconds per flop
    and owns a ``C`` column slice proportional to
    ``partition_speeds[r]`` (default: the true speeds — the balanced
    distribution; pass uniform values to measure the naive split).
    Returns ``(C, SimResult)``.
    """
    (m, l), (l2, n) = A.shape, B.shape
    if l != l2:
        raise ConfigurationError(f"inner dims differ: {A.shape} @ {B.shape}")
    true_speeds = tuple(speeds)
    _require_speeds(true_speeds, "speeds")
    require_finite(base_gamma, "base_gamma")
    require(base_gamma >= 0, f"base_gamma must be >= 0, got {base_gamma!r}")
    part = true_speeds
    if partition_speeds is not None:
        part = tuple(partition_speeds)
        _require_speeds(part, "partition_speeds")
    if len(part) != len(speeds):
        raise ConfigurationError(
            f"partition_speeds has {len(part)} entries for {len(speeds)} ranks"
        )
    cfg = Hetero1dConfig(m=m, l=l, n=n, speeds=part, block=block,
                         groups=groups)
    p = cfg.p
    bounds = cfg.col_bounds()
    phantom = isinstance(A, PhantomArray) or isinstance(B, PhantomArray)

    if network is None:
        network = HomogeneousNetwork(p, params or DEFAULT_PARAMS)

    def make_programs():
        contexts = make_contexts(p, options=options)
        programs = []
        for rank in range(p):
            a_panels: dict[int, Any] = {}
            for k in range(cfg.nsteps):
                if k % p == rank:
                    if phantom:
                        a_panels[k] = PhantomArray((m, block))
                    else:
                        Ad = np.asarray(A, dtype=float)
                        a_panels[k] = Ad[:, k * block : (k + 1) * block].copy()
            lo, hi = bounds[rank]
            if phantom:
                b_slice: Any = PhantomArray((l, hi - lo))
            else:
                b_slice = np.asarray(B, dtype=float)[:, lo:hi].copy()
            ctx = contexts[rank]
            ctx.gamma = base_gamma / true_speeds[rank]
            programs.append(hetero_summa1d_program(ctx, a_panels, b_slice, cfg))
        return programs

    sim = run_verified(
        make_programs, verify=verify, backend=backend, network=network,
        meta={"program": "hetero-summa1d", "ranks": p},
    )

    if phantom:
        return PhantomArray((m, n)), sim
    C = np.empty((m, n))
    for rank in range(p):
        lo, hi = bounds[rank]
        C[:, lo:hi] = sim.return_values[rank]
    return C, sim
