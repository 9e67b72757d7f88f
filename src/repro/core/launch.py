"""One launch path for every algorithm family.

An algorithm family is described once, by an :class:`AlgorithmSpec`:
its rank program, how inputs are dealt to ranks and return values
assembled (a :class:`GridLayout` for the dense families), its symmetry
declaration for the collapsed macro engine, and its predictor chain or
the named reason it has none.  :func:`launch` owns everything the
``run_*`` functions used to re-type — fault coercion, the default
network, the ``bcast_segments`` shorthand, the ``backend="predictor"``
refusals and prediction, the on-demand rank-program factory,
verification and assembly — so a runner is "validate shapes, build the
config, ``return launch(SPEC, cfg, A, B, **run)``".

:data:`FAMILIES` is the table of families other layers look up by name
(:func:`repro.core.api.multiply`, the planner, the cluster simulator,
the predictor's messages); none of them names a family itself.  They
describe a run as a :class:`Shape` — the one run-shape vocabulary — and
the row's ``configure`` turns it into the family's config, owning the
family's defaults and rejections.  Variants nobody enumerates (the
overlap schedules, the multi-level hierarchy, LU/QR) define a spec next
to their program and need no row.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import sys
from collections.abc import Iterator
from typing import Any, Callable, Generator, Mapping

import numpy as np

from repro.blocks.distribution import BlockDistribution
from repro.errors import ConfigurationError
from repro.faults.spec import coerce_faults
from repro.mpi.comm import CollectiveOptions, context_factory
from repro.network.homogeneous import HomogeneousNetwork
from repro.payloads import PhantomArray
from repro.simulator.runtime import DEFAULT_PARAMS
from repro.simulator.tracing import SimResult
from repro.util.gridmath import factor_grid
from repro.util.validation import require_finite
from repro.verify.session import run_verified


class GridLayout:
    """Tiles of ``A`` and ``B`` on an ``s x t`` grid, ``c`` ranks deep.

    World rank ``r`` sits at grid cell ``divmod(r // c, t)`` on layer
    ``r % c``; only layer 0 is dealt input tiles and returns a ``C``
    tile (``c = 1`` is the plain 2-D grid, ``c = q`` the 3-D mesh).
    ``distribution(rows, cols)`` maps a global matrix onto the grid —
    checkerboard blocks unless the family says otherwise.  Both
    distributions in :mod:`repro.blocks.distribution` give every cell
    the same tile shape, so phantom inputs share one husk per matrix
    instead of allocating one per rank.
    """

    def __init__(self, s: int, t: int, c: int = 1, *,
                 distribution: Callable[[int, int], Any] | None = None):
        self.s, self.t, self.c = s, t, c
        self.distribution = distribution or (
            lambda rows, cols: BlockDistribution(rows, cols, s, t))

    @property
    def nranks(self) -> int:
        return self.s * self.t * self.c

    def position(self, rank: int) -> tuple[int, int] | None:
        """Grid cell whose tiles ``rank`` holds, ``None`` off layer 0."""
        cell, layer = divmod(rank, self.c)
        return divmod(cell, self.t) if layer == 0 else None

    def deal(self, A: Any, B: Any) -> Callable[[int], tuple[Any, Any]]:
        a_at, b_at = self._tiles(A), self._tiles(B)
        position = self.position

        def rank_inputs(rank: int) -> tuple[Any, Any]:
            cell = position(rank)
            if cell is None:
                return None, None
            return a_at(*cell), b_at(*cell)

        return rank_inputs

    def _tiles(self, M: Any) -> Callable[[int, int], Any]:
        dist = self.distribution(*M.shape)
        if isinstance(M, PhantomArray):
            husk = PhantomArray(dist.tile_shape(0, 0), M.itemsize)
            return lambda i, j: husk
        data = np.asarray(M, dtype=float)
        return lambda i, j: dist.extract_tile(data, i, j)

    def assemble(self, inputs: tuple, return_values: list) -> Any:
        A, B = inputs
        m, n = A.shape[0], B.shape[1]
        if isinstance(A, PhantomArray) or isinstance(B, PhantomArray):
            return PhantomArray((m, n))
        tiles = {}
        for rank, c_tile in enumerate(return_values):
            cell = self.position(rank)
            if cell is not None:
                tiles[cell] = c_tile
        return self.distribution(m, n).assemble(tiles)


def _flat_grid(cfg: Any) -> GridLayout:
    return GridLayout(cfg.s, cfg.t)


@dataclasses.dataclass(frozen=True)
class Shape:
    """How one run of a family is shaped: the one vocabulary shared by
    :func:`repro.core.api.multiply`'s keywords, planner candidates,
    ``Plan.params`` and cluster launches.

    The grid is ``s x t`` — or left to the family, which derives it
    from the rank count ``nprocs``.  ``block`` is the pivot block
    (SUMMA ``b`` / HSUMMA outer ``B`` / cyclic ``nb``), ``inner_block``
    HSUMMA's ``b``, ``groups`` the group grid ``(I, J)`` or a count
    ``G`` to arrange, ``bcast``/``outer_bcast`` the broadcast algorithm
    within / between groups, ``replication`` 2.5D's ``c``, ``segments``
    the pipeline depth of the segmented broadcast family and
    ``overlap`` the one-step-lookahead schedule.  A field left ``None``
    (``False``) is unset: the family's ``configure`` fills in its
    default or rejects the field by name.
    """

    s: int | None = None
    t: int | None = None
    nprocs: int | None = None
    block: int | None = None
    inner_block: int | None = None
    groups: int | tuple[int, int] | None = None
    bcast: str | None = None
    outer_bcast: str | None = None
    replication: int | None = None
    segments: int | None = None
    overlap: bool = False

    def params(self) -> dict[str, Any]:
        """The set fields as a dict — ``MatmulResult.parameters`` and
        ``Plan.params``: the grid as ``grid``, a group grid as its
        count ``groups`` plus the pair ``group_grid``."""
        out = {} if self.s is None else {"grid": (self.s, self.t)}
        for name in _SHAPE_FIELDS:
            value = getattr(self, name)
            if name not in ("s", "t") and value not in (None, False):
                out[name] = value
        if isinstance(self.groups, tuple):
            out["groups"] = self.groups[0] * self.groups[1]
            out["group_grid"] = self.groups
        return out

    @classmethod
    def from_params(cls, params: Mapping[str, Any], **extra: Any) -> "Shape":
        """The inverse of :meth:`params` (keys that are no shape field,
        such as a plan's ``fault_profile``, are ignored)."""
        fields = {k: v for k, v in params.items() if k in _SHAPE_FIELDS}
        if "grid" in params:
            fields["s"], fields["t"] = params["grid"]
        if params.get("group_grid"):
            fields["groups"] = tuple(params["group_grid"])
        return cls(**fields, **extra)

    def resolve(self, family: str, l: int, *accepts: str,
                grid_of: Callable[[int], tuple[int, int]] = factor_grid,
                ) -> "Shape":
        """This shape with the defaults every family shares filled in,
        for a family's ``configure`` to finish: the grid from the rank
        count (``grid_of(nprocs)``, most-square unless the family says
        otherwise) and, for a family that accepts ``block``, the
        largest block dividing both tile extents of the inner dimension
        ``l``.  A set field outside ``accepts`` is rejected by name."""
        placed = ("s", "t", "nprocs") + accepts
        for name in _SHAPE_FIELDS:
            if name not in placed and getattr(self, name) not in (None, False):
                raise ConfigurationError(
                    f"{family} does not take {name}=; it accepts "
                    f"{', '.join(('grid', 'nprocs') + accepts)}")
        s, t = self.s, self.t
        if s is None:
            if self.nprocs is None:
                raise ConfigurationError(
                    f"{family}: pass either nprocs or grid")
            s, t = grid_of(self.nprocs)
        block = self.block
        if block is None and "block" in accepts:
            block = math.gcd(l // s, l // t)
        return dataclasses.replace(self, s=s, t=t, block=block)


_SHAPE_FIELDS = tuple(f.name for f in dataclasses.fields(Shape))


def square_layout(cfg: Any) -> GridLayout:
    """The ``q x q`` tile grid, ``cfg.c`` ranks deep, of a
    :class:`~repro.simulator.predictor.SquareGridConfig`."""
    return GridLayout(cfg.q, cfg.q, cfg.c)


def square_side(display: str, shape: Shape) -> int:
    """``q`` of the ``q x q`` grid a square-grid family's resolved
    shape must have."""
    if shape.s != shape.t:
        raise ConfigurationError(
            f"{display} requires a square grid, got {shape.s}x{shape.t}")
    return shape.s


@dataclasses.dataclass(frozen=True)
class AlgorithmSpec:
    """Everything :func:`launch` needs to know about one family.

    ``program(ctx, *rank_inputs, cfg)`` is the rank generator;
    ``layout(cfg)`` returns an object with ``nranks``, ``s``/``t``,
    ``deal(*inputs) -> (rank -> rank_inputs)`` and
    ``assemble(inputs, return_values)`` — the config's flat ``s x t``
    :class:`GridLayout` unless the family says otherwise (replicated
    layers, a cyclic distribution, LU/QR dealing tiles themselves).
    ``symmetry(cfg)`` is the family's
    :class:`~repro.simulator.collapse.GridSymmetry` declaration
    (``None``: always step per rank).  Exactly one of
    ``predict`` (a ``predict_*`` chain) and ``refusal`` (``(feature,
    detail, fallback)`` for the predictor's named refusal) is set.
    ``display`` is how refusals name a run of this family.
    ``configure(m, l, n, shape)`` is the single owner of the family's
    defaults and rejections: it returns ``(resolved shape, config)``
    for a :class:`Shape`, raising a :class:`ConfigurationError` that
    names any set field the family does not consume (every
    :data:`FAMILIES` row has one).  ``overlap`` names, as
    ``module:ATTRIBUTE``, the spec of the row's lookahead schedule —
    what :meth:`variant` returns for a shape with ``overlap`` set.
    """

    name: str
    display: str
    program: Callable[..., Generator]
    layout: Callable[[Any], Any] = _flat_grid
    symmetry: Callable[[Any], Any] | None = None
    predict: Callable[..., SimResult] | None = None
    refusal: tuple[str, str, str] | None = None
    configure: Callable[[int, int, int, Shape], tuple[Shape, Any]] | None = None
    overlap: str | None = None

    def variant(self, shape: Shape) -> "AlgorithmSpec":
        """The spec that runs ``shape`` (as resolved by ``configure``,
        which rejects ``overlap`` for a row without the variant)."""
        return _resolve(self.overlap) if shape.overlap else self


#: Family name -> ``module:ATTRIBUTE`` of its spec.  Resolved on lookup,
#: so reading the names imports no algorithm.
FAMILIES: dict[str, str] = {
    "summa": "repro.core.summa:SUMMA",
    "hsumma": "repro.core.hsumma:HSUMMA",
    "cyclic": "repro.core.cyclic:CYCLIC",
    "cannon": "repro.algorithms.cannon:CANNON",
    "fox": "repro.algorithms.fox:FOX",
    "3d": "repro.algorithms.dns3d:DNS3D",
    "2.5d": "repro.algorithms.algo25d:SUMMA25D",
}


def _resolve(path: str) -> AlgorithmSpec:
    module, attr = path.split(":")
    return getattr(importlib.import_module(module), attr)


def family(name: str) -> AlgorithmSpec:
    """The :data:`FAMILIES` row for ``name``."""
    try:
        spec = _resolve(FAMILIES[name])
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm family {name!r}; choose from "
            f"{tuple(FAMILIES)}"
        ) from None
    if spec.configure is None:
        raise ConfigurationError(
            f"family {name!r} has no configure: a table row must own its "
            "defaults and rejections")
    return spec


def collapse() -> Any:
    """:mod:`repro.simulator.collapse`, imported on first use: specs name
    their symmetry factory through this so importing a family does not
    pay for the collapsed engine at start-up."""
    from repro.simulator import collapse

    return collapse


def live(fn: Callable) -> Callable:
    """``fn`` as its defining module binds it *now*.

    Specs hold plain function objects; re-reading the module attribute
    at call time means a wrapper installed on the module afterwards (a
    test's monkeypatch, ``benchmarks/perf/tracing.py``'s counters) sees
    the calls made through the table, not only the direct ones.
    """
    return getattr(sys.modules.get(fn.__module__), fn.__name__, fn)


def product_dims(A: Any, B: Any) -> tuple[int, int, int]:
    """``(m, l, n)`` of ``A (m, l) @ B (l, n)``."""
    (m, l), (l2, n) = A.shape, B.shape
    if l != l2:
        raise ConfigurationError(
            f"inner dims differ: A is {A.shape}, B is {B.shape}")
    return m, l, n


class _RankPrograms:
    """The rank generators of one execution, rank ``r``'s built when
    ``r`` is asked for: ``len()`` is the world size, indexing takes a
    rank in ``0..p-1`` (anything else is an ``IndexError``) and
    iteration yields every rank's generator in rank order — what its
    consumers use, and no more.  Each generator is handed out fresh,
    so ask for a rank once."""

    def __init__(self, nranks: int, build: Callable[[int], Generator]):
        self._nranks = nranks
        self._build = build

    def __len__(self) -> int:
        return self._nranks

    def __getitem__(self, rank: int) -> Generator:
        if not 0 <= rank < self._nranks:
            raise IndexError(
                f"rank {rank} outside world of {self._nranks}")
        return self._build(rank)

    def __iter__(self) -> Iterator[Generator]:
        # Not left to index-until-IndexError, which would take an
        # IndexError raised while building a rank for the end.
        return map(self._build, range(self._nranks))


def rank_programs(
    spec: AlgorithmSpec,
    cfg: Any,
    nranks: int,
    rank_inputs: Callable[[int], tuple],
    *,
    options: CollectiveOptions | None = None,
    gamma: float = 0.0,
    trace: bool = False,
    retry: Any = None,
    base: int = 0,
) -> _RankPrograms:
    """Fresh rank generators for one execution of ``spec`` over inputs
    already dealt by its layout (``rank_inputs = layout.deal(...)``) —
    the one program factory behind :func:`launch`, the step models and
    the cluster simulator.

    The result is a sized, indexable, rank-ordered sequence that builds
    a rank's context and program *on demand*: an engine that steps
    every rank iterates it and sees exactly the ``p`` generators an
    eager list would hold, while the collapsed macro engine indexes its
    probe set and never pays for the other ranks (255 of 16384 contexts
    for a block-cyclic run on a 128 x 128 grid).  ``base`` binds the
    run at that engine rank (:func:`~repro.mpi.comm.context_factory`):
    0 unless the engine hosts other runs beside this one."""
    program = live(spec.program)
    context = context_factory(
        nranks, options=options, gamma=gamma, trace=trace, retry=retry,
        base=base)
    return _RankPrograms(
        nranks,
        lambda rank: program(context(rank), *rank_inputs(rank), cfg))


def launch(
    spec: AlgorithmSpec,
    cfg: Any,
    *inputs: Any,
    network: Any = None,
    params: Any = None,
    gamma: float = 0.0,
    options: CollectiveOptions | None = None,
    bcast_segments: int | None = None,
    contention: bool = False,
    trace: bool = False,
    backend: Any = None,
    faults: Any = None,
    verify: Any = None,
) -> tuple[Any, SimResult]:
    """Run one family on a simulated platform; returns ``(result,
    SimResult)``.  Every ``run_*`` function ends here, and these ten
    keyword options mean the same thing for all of them:

    ``network``
        The :class:`~repro.network.model.Network` cost model; defaults
        to a homogeneous network over the run's ranks.
    ``params``
        Hockney parameters of that default network (ignored when
        ``network`` is given); defaults to
        :data:`~repro.simulator.runtime.DEFAULT_PARAMS`.
    ``gamma``
        Seconds per flop charged for local computation.
    ``options``
        :class:`~repro.mpi.comm.CollectiveOptions` defaults for every
        communicator of the run.
    ``bcast_segments``
        Pipeline depth ``s`` of the segmented broadcast family
        (``pipelined``/``segmented``/``fourcolor``/``hypersystolic``);
        shorthand for ``options.bcast_segments``, ``None`` keeps each
        algorithm's default.
    ``contention``
        Model link contention (discrete-event backend).
    ``trace``
        Record phase spans and the transfer trace on the result (see
        :mod:`repro.metrics`); timings are bit-identical either way.
    ``backend``
        ``None``/``"des"`` (full discrete-event simulation),
        ``"macro"`` (collectives priced by a coster; collapses
        symmetric ranks when the family declares a symmetry and the
        run is eligible — bit-identical, see ``docs/cost_model.md``),
        ``"predictor"`` (no stepping: the family's closed-form chain —
        phantom inputs only, no faults/verify/contention/trace, and
        refused by name for families without a chain and for the
        segmented broadcast family, whose DES runs overlap stages the
        chain prices serially) or a prebuilt engine; see
        :mod:`repro.simulator.backends`.
    ``faults``
        A :class:`repro.faults.FaultSchedule` or spec string —
        discrete-event backend only; see ``docs/robustness.md``.
    ``verify``
        ``True``, a :class:`repro.verify.VerifyOptions` or a dict of
        its fields; the verdict lands on ``SimResult.verdict`` (see
        ``docs/verification.md``).

    Inputs may be numpy arrays (data mode: ``result`` is concrete) or
    :class:`~repro.payloads.PhantomArray` husks (scale mode: only the
    timing is meaningful).
    """
    require_finite(gamma, "gamma")  # every tier: the predictor too
    layout = spec.layout(cfg)
    faults = coerce_faults(faults)
    if network is None:
        network = HomogeneousNetwork(layout.nranks, params or DEFAULT_PARAMS)
    if bcast_segments is not None:
        options = (options or CollectiveOptions()).replace(
            bcast_segments=bcast_segments)

    if backend == "predictor":
        # Refuse by name, or price the chain — before any program is built.
        from repro.simulator.predictor import (
            _refuse,
            _require_predictable,
            refuse_pipelined,
        )

        if spec.predict is None:
            _refuse(spec.display, *spec.refusal)
        _require_predictable(
            spec.display,
            phantom=any(isinstance(M, PhantomArray) for M in inputs),
            faults=faults, verify=verify, contention=contention, trace=trace,
        )
        refuse_pipelined(spec, cfg, options)
        a_itemsize, b_itemsize = (
            M.itemsize if isinstance(M, PhantomArray) else 8 for M in inputs)
        sim = live(spec.predict)(
            cfg, network=network, options=options, gamma=gamma,
            a_itemsize=a_itemsize, b_itemsize=b_itemsize,
        )
        return PhantomArray((inputs[0].shape[0], inputs[-1].shape[1])), sim

    rank_inputs = layout.deal(*inputs)

    def make_programs() -> _RankPrograms:
        return rank_programs(
            spec, cfg, layout.nranks, rank_inputs, options=options,
            gamma=gamma, trace=trace,
            retry=faults.retry if faults is not None else None)

    sim = run_verified(
        make_programs, verify=verify, backend=backend, network=network,
        contention=contention, collect_trace=trace, faults=faults,
        symmetry=spec.symmetry(cfg) if spec.symmetry is not None else None,
        meta={"program": spec.name, "grid": f"{layout.s}x{layout.t}"},
    )
    return layout.assemble(inputs, sim.return_values), sim
