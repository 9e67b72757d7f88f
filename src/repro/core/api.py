"""One-call public API for simulated parallel matrix multiplication.

:func:`multiply` dispatches to any algorithm in the library (the
paper's SUMMA/HSUMMA plus the baselines), returning a
:class:`MatmulResult` bundling the product with the simulation's time
accounting.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.core.launch import FAMILIES, family, launch
from repro.errors import ConfigurationError
from repro.simulator.tracing import SimResult
from repro.util.gridmath import factor_grid


@dataclasses.dataclass
class MatmulResult:
    """Product plus simulation accounting.

    Attributes
    ----------
    C:
        The global product (numpy array in data mode, phantom husk in
        scale mode).
    sim:
        The raw :class:`~repro.simulator.tracing.SimResult`.
    algorithm:
        Registry name of the algorithm that ran.
    parameters:
        Echo of the run parameters (grid, blocks, groups, ...).
    """

    C: Any
    sim: SimResult
    algorithm: str
    parameters: dict[str, Any]

    @property
    def total_time(self) -> float:
        """Virtual execution time (max over ranks)."""
        return self.sim.total_time

    @property
    def comm_time(self) -> float:
        """Virtual communication time (max over ranks)."""
        return self.sim.comm_time

    @property
    def compute_time(self) -> float:
        """Virtual computation time (max over ranks)."""
        return self.sim.compute_time


#: Algorithms accepted by :func:`multiply`: the family table plus the
#: one-rank reference.
ALGORITHMS = (*FAMILIES, "serial")


def multiply(
    A: Any,
    B: Any,
    *,
    nprocs: int | None = None,
    grid: tuple[int, int] | None = None,
    algorithm: str = "hsumma",
    block: int | None = None,
    groups: int | tuple[int, int] | None = None,
    inner_block: int | None = None,
    replication: int | None = None,
    overlap: bool = False,
    network: Any = None,
    params: Any = None,
    gamma: float = 0.0,
    options: Any = None,
    backend: Any = None,
    faults: Any = None,
    verify: Any = None,
    **kwargs: Any,
) -> MatmulResult:
    """Multiply ``A @ B`` on a simulated distributed-memory platform.

    Parameters
    ----------
    A, B:
        numpy arrays (data mode) or :class:`PhantomArray` (scale mode).
    nprocs:
        Processor count; the grid is factored near-square.  Ignored
        when ``grid`` is given.
    grid:
        Explicit ``(s, t)`` grid.
    algorithm:
        One of :data:`ALGORITHMS`.
    block:
        Pivot block size (SUMMA ``b`` / HSUMMA outer ``B`` / Fox-Cannon
        tile step).  Defaults to the largest valid block.
    groups:
        HSUMMA group count ``G`` or explicit ``(I, J)``; defaults to
        ``sqrt(p)`` rounded to a valid count (the paper's optimum).
    inner_block:
        HSUMMA inner block ``b`` (defaults to ``block``).
    replication:
        2.5D replication factor ``c``.
    overlap:
        Use the one-step-lookahead schedule (summa/hsumma/cyclic only),
        hiding communication behind the gemm.
    network, params, gamma, options, backend, faults, verify, **kwargs:
        The shared run options, documented once on
        :func:`repro.core.launch.launch` (``kwargs`` carries the rest:
        ``bcast_segments``, ``contention``, ``trace`` and any
        family-specific runner parameter such as ``bcast``).  Every
        family accepts all of them; ``backend="predictor"`` prices
        every family in :data:`ALGORITHMS` without overlap (phantom
        inputs only).  ``serial`` uses ``gamma`` alone.

    Returns
    -------
    MatmulResult
    """
    from repro.faults.spec import coerce_faults

    faults = coerce_faults(faults)
    if algorithm == "serial":
        if faults is not None and not faults.empty:
            raise ConfigurationError(
                "the serial algorithm has no network to inject faults into"
            )
        from repro.algorithms.serial import run_serial

        C, sim = run_serial(A, B, gamma=gamma)
        return MatmulResult(C, sim, algorithm, {"gamma": gamma})

    if algorithm in ("3d", "2.5d"):
        if nprocs is None:
            raise ConfigurationError(f"{algorithm} needs nprocs")
    elif grid is None:
        if nprocs is None:
            raise ConfigurationError("pass either nprocs or grid")
        grid = factor_grid(nprocs)
    if grid is not None:
        s, t = grid
    common = dict(network=network, params=params, gamma=gamma, options=options,
                  backend=backend, faults=faults, verify=verify)
    m, l = A.shape
    n = B.shape[1]

    if algorithm == "summa":
        if overlap:
            from repro.core.overlap import run_summa_overlap as runner
        else:
            from repro.core.summa import run_summa as runner

        b = block or _default_block(l, s, t)
        C, sim = runner(A, B, grid=grid, block=b, **common, **kwargs)
        return MatmulResult(
            C, sim, algorithm,
            {"grid": grid, "block": b, "overlap": overlap},
        )

    if algorithm == "hsumma":
        from repro.core.grouping import valid_group_counts

        if overlap:
            from repro.core.overlap import run_hsumma_overlap as runner
        else:
            from repro.core.hsumma import run_hsumma as runner

        b = block or _default_block(l, s, t)
        if groups is None:
            target = int(round((s * t) ** 0.5))
            valid = valid_group_counts(s, t)
            groups = min(valid, key=lambda g: abs(g - target))
        C, sim = runner(
            A, B, grid=grid, groups=groups, outer_block=b,
            inner_block=inner_block, **common, **kwargs,
        )
        return MatmulResult(
            C, sim, algorithm,
            {"grid": grid, "block": b, "groups": groups,
             "inner_block": inner_block or b, "overlap": overlap},
        )

    if algorithm == "cyclic":
        from repro.core.cyclic import run_cyclic

        b = block or _default_block(l, s, t)
        if groups is None:
            group_grid = (1, 1)
        elif isinstance(groups, tuple):
            group_grid = groups
        else:
            from repro.core.grouping import choose_group_grid

            group_grid = choose_group_grid(s, t, groups)
        C, sim = run_cyclic(
            A, B, grid=grid, nb=b, groups=group_grid, overlap=overlap,
            **common, **kwargs,
        )
        return MatmulResult(
            C, sim, algorithm,
            {"grid": grid, "nb": b, "groups": group_grid,
             "overlap": overlap},
        )

    if algorithm == "cannon":
        from repro.algorithms.cannon import run_cannon

        C, sim = run_cannon(A, B, grid=grid, **common, **kwargs)
        return MatmulResult(C, sim, algorithm, {"grid": grid})

    if algorithm == "fox":
        from repro.algorithms.fox import run_fox

        C, sim = run_fox(A, B, grid=grid, **common, **kwargs)
        return MatmulResult(C, sim, algorithm, {"grid": grid})

    if algorithm == "3d":
        from repro.algorithms.dns3d import run_dns3d

        nprocs = nprocs or s * t
        C, sim = run_dns3d(A, B, nprocs=nprocs, **common, **kwargs)
        return MatmulResult(C, sim, algorithm, {"nprocs": nprocs})

    if algorithm == "2.5d":
        from repro.algorithms.algo25d import run_25d

        nprocs = nprocs or s * t
        C, sim = run_25d(
            A, B, nprocs=nprocs, replication=replication or 1, **common, **kwargs
        )
        return MatmulResult(
            C, sim, algorithm,
            {"nprocs": nprocs, "replication": replication or 1},
        )

    # A family with no bespoke defaults above: the table row is enough.
    if algorithm not in FAMILIES:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; choose from "
            f"{(*FAMILIES, 'serial')}"
        )
    spec = family(algorithm)
    b = block or _default_block(l, s, t)
    cfg = spec.configure(
        m, l, n, s=s, t=t, block=b, inner_block=inner_block or 0,
        groups=groups, replication=replication or 1,
        bcast=kwargs.pop("bcast", None),
        outer_bcast=kwargs.pop("outer_bcast", None),
    )
    C, sim = launch(spec, cfg, A, B, **common, **kwargs)
    return MatmulResult(C, sim, algorithm, {"grid": grid, "block": b})


def _default_block(l: int, s: int, t: int) -> int:
    """Largest block dividing both tile dimensions of the inner axis."""
    import math

    return math.gcd(l // s, l // t)
