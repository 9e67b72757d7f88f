"""One-call public API for simulated parallel matrix multiplication.

:func:`multiply` dispatches to any algorithm in the library (the
paper's SUMMA/HSUMMA plus the baselines), returning a
:class:`MatmulResult` bundling the product with the simulation's time
accounting.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.core.launch import FAMILIES, family, launch, product_dims, Shape
from repro.errors import ConfigurationError
from repro.simulator.tracing import SimResult


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
        The run's resolved :class:`~repro.core.launch.Shape` as a dict
        (grid, blocks, groups, ...: what was given plus the family's
        defaults).
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
        Pivot block size (SUMMA ``b`` / HSUMMA outer ``B`` / cyclic
        ``nb``).  Defaults to the largest valid block.
    groups:
        HSUMMA/cyclic group count ``G`` or explicit ``(I, J)``; HSUMMA
        defaults to the valid count nearest ``sqrt(p)`` (the paper's
        optimum), cyclic to the flat ``(1, 1)``.
    inner_block:
        HSUMMA inner block ``b`` (defaults to ``block``).
    replication:
        2.5D replication factor ``c`` (defaults to 1).
    overlap:
        Use the one-step-lookahead schedule (summa/hsumma/cyclic only),
        hiding communication behind the gemm.

    These are the fields of one :class:`~repro.core.launch.Shape`; the
    family's ``configure`` fills in the defaults above and raises a
    :class:`~repro.errors.ConfigurationError` naming any argument the
    family does not take (``block`` for Cannon, ``replication`` for
    SUMMA, ...) instead of dropping it.
    network, params, gamma, options, backend, faults, verify, **kwargs:
        The shared run options, documented once on
        :func:`repro.core.launch.launch` (``kwargs`` carries the rest:
        ``bcast_segments``, ``contention``, ``trace``, and the
        ``bcast``/``outer_bcast`` shape fields).  Every
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

    if algorithm not in FAMILIES:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    row = family(algorithm)
    s, t = grid or (None, None)
    shape, cfg = row.configure(*product_dims(A, B), Shape(
        s=s, t=t, nprocs=nprocs, block=block, inner_block=inner_block,
        groups=groups, bcast=kwargs.pop("bcast", None),
        outer_bcast=kwargs.pop("outer_bcast", None),
        replication=replication, overlap=overlap))
    C, sim = launch(
        row.variant(shape), cfg, A, B, network=network, params=params,
        gamma=gamma, options=options, backend=backend, faults=faults,
        verify=verify, **kwargs)
    return MatmulResult(C, sim, algorithm, shape.params())
