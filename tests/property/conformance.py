"""The tier conformance harness: every execution path, held to the tier
table of ``docs/cost_model.md`` by one registry-driven sweep.

Per :data:`~repro.core.launch.FAMILIES` row (and the multi-level
hierarchy), a draw shapes a run through the row's own ``configure`` (a
rejected shape is discarded, so nothing here names a family; the shape
may ask for the lookahead variant) and picks a broadcast algorithm and
depth, a homogeneous, switched or torus network, phantom or numpy
operands and tracing on or off.  Every path that accepts the run
executes — DES, DES with every message stepped, collapsed and per-rank
macro, the chain, ``backend="predictor"`` — and each ``check_*`` below
asserts one row of the table, or the documented refusal or fallback
reason.  On homogeneous networks no makespan may beat the BDHLS floor.

A row enrols by registration: :func:`conforms` runs the contract on any
row, a toy one registered by a test included.  The sweep itself is
``test_conformance.py``, beside the table of fixed runs each pinned
through one ``check_*``; tests build a fixed run with
:func:`widest_run`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Any

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.hsumma import HSUMMA_MULTILEVEL, MultiLevelConfig
from repro.core.launch import Shape, family, launch, live
from repro.costs import lower_bound_time
from repro.errors import ConfigurationError
from repro.simulator.costers import TopologyCoster
from repro.mpi.comm import CollectiveOptions
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.network.torus import Torus3D
from repro.network.tree import SwitchedCluster
from repro.payloads import PhantomArray
from repro.platforms.bluegene import torus_dims_for
from repro.simulator.backends import MacroBackend
from repro.simulator.engine import ExpandingEngine
from tests.pins import assert_identical, bits

#: Not dyadic: sums grouped differently round differently.
PARAMS = HockneyParams(alpha=1e-5, beta=1e-9)
GAMMA = 1e-10
TOL = 1e-9
SEGMENTED = frozenset({"segmented", "fourcolor", "hypersystolic"})
#: Trees whose members all finish together: the oracle is the DES.
BULK = ("binomial", "vandegeijn")
BCASTS = (*BULK, "binary", "chain", "flat", *sorted(SEGMENTED))
DEPTHS = (None, 1, 2, 3)
#: Drawn with weights: the homogeneous network is where most tiers meet.
NETWORKS = ("homogeneous", "homogeneous", "switched", "torus")
PROCS = (4, 8, 9, 16, 27, 32, 64)
MAX_RANKS = 64
#: A topology prices every message, a trace records every message, a
#: lookahead schedule posts its broadcasts as messages and numpy
#: operands are multiplied tile by tile: such runs stay at this many
#: ranks or fewer.
STEPPED_RANKS = 32
#: ``m`` and ``n`` are the rank count times one of these, the inner
#: extent ``l`` (which sets the step count) twice the rank count.
SCALES = (1, 2, 3, 4, 5)
#: The values a drawn :class:`Shape` field takes, beside unset (drawn
#: three times as often).
FIELDS = {
    "block": (4, 8),
    "inner_block": (2, 4),
    "groups": (1, 2, 4, 8, (2, 1)),
    "bcast": BCASTS,
    "outer_bcast": BCASTS,
    "replication": (2, 4),
    "overlap": (True,),
}
#: Group grids a fixed 32- or 64-rank run takes, strips (``I == 1`` or
#: ``J == 1``: the probe-set special cases) included.
GROUP_GRIDS = (1, 2, 4, 8, 16, (2, 1), (1, 8))
MULTILEVEL = "multilevel"
#: Why a DES broadcast of these programs may expand instead of replaying.
EXPANDED = {"non-blocking schedule", "zero-byte send", "transfer trace",
            "one-rank communicator"}


@dataclasses.dataclass(frozen=True)
class Run:
    """One drawn run: ``spec`` (the variant that executes it) and its
    config, the broadcast algorithms it resolves, and what it runs on."""

    spec: Any
    cfg: Any
    dims: tuple[int, int, int]
    bcasts: frozenset
    overlap: bool
    options: CollectiveOptions | None
    network: str
    phantom: bool
    trace: bool

    @property
    def nranks(self) -> int:
        return self.spec.layout(self.cfg).nranks

    def net(self):
        return make_network(self.network, self.nranks)

    def operands(self):
        m, l, n = self.dims
        if self.phantom:
            return PhantomArray((m, l)), PhantomArray((l, n))
        rng = np.random.default_rng(m * l + n)
        return rng.standard_normal((m, l)), rng.standard_normal((l, n))

    def launch(self, backend, network, trace=False):
        A, B = self.operands()
        return launch(self.spec, self.cfg, A, B, network=network,
                      options=self.options, gamma=GAMMA, trace=trace,
                      backend=backend)


# -- drawing a run ------------------------------------------------------------

@functools.cache
def _takes(spec, field: str) -> bool:
    """Whether ``spec.configure`` consumes ``field``: a row names a
    field it does not take before any other check."""
    try:
        spec.configure(64, 64, 64,
                       Shape(nprocs=16, **{field: FIELDS[field][0]}))
    except ConfigurationError as exc:
        return f"does not take {field}=" not in str(exc)
    return True


@functools.cache
def rank_counts(row, stepped: bool) -> tuple[int, ...]:
    """The rank counts of :data:`PROCS` at which ``row`` (None: the
    multi-level hierarchy) takes its default shape, at most
    :data:`STEPPED_RANKS` for a run that steps every message."""
    return tuple(p for p in PROCS if (p <= STEPPED_RANKS or not stepped)
                 and (row is None
                      or _configure(row, (2 * p,) * 3, Shape(nprocs=p))))


def _configure(row, dims, shape):
    """``(resolved shape, config)`` of a run of ``row`` the sweep can
    afford, or None when the row rejects it."""
    try:
        shape, cfg = row.configure(*dims, shape)
    except ConfigurationError:
        return None
    if row.variant(shape).layout(cfg).nranks > MAX_RANKS:
        return None
    return shape, cfg


def _row_run(row, dims, shape, options, **run) -> Run | None:
    """A run of ``row`` in ``shape``, or None when the row rejects it."""
    configured = _configure(row, dims, shape)
    if configured is None:
        return None
    shape, cfg = configured
    bcasts = (row.predict.bcasts(cfg, options) if row.predict else
              {(options or CollectiveOptions()).bcast, shape.bcast,
               shape.outer_bcast} - {None})
    return Run(row.variant(shape), cfg, dims, frozenset(bcasts),
               shape.overlap, options, **run)


def widest_run(name, options=None, *, stepped=False, network="homogeneous",
               phantom=True, trace=False, scale=(2, 2, 2), **fields) -> Run:
    """The row's default shape with ``fields`` set, at the most ranks it
    takes (at most :data:`STEPPED_RANKS` for a ``stepped`` run; the
    hierarchy: three levels of two), each of ``m, l, n`` the rank count
    times its ``scale``, phantom and untraced on the homogeneous network
    by default: the run whose collapse probes the smallest share of its
    grid."""
    run = dict(network=network, phantom=phantom, trace=trace)
    if name == MULTILEVEL:
        m, l, n = dims = tuple(64 * k for k in scale)
        cfg = MultiLevelConfig(m=m, l=l, n=n, s=8, t=8,
                               row_factors=(2, 2, 2), col_factors=(2, 2, 2),
                               blocks=(16, 8, 4))
        return Run(HSUMMA_MULTILEVEL, cfg, dims,
                   frozenset({(options or CollectiveOptions()).bcast}),
                   False, options, **run)
    row = family(name)
    p = rank_counts(row, stepped)[-1]
    return _row_run(row, tuple(p * k for k in scale),
                    Shape(nprocs=p, **fields), options, **run)


def _factorizations(n: int, levels: int) -> list[tuple[int, ...]]:
    if levels == 1:
        return [(n,)]
    return [(d, *rest) for d in range(1, n + 1) if n % d == 0
            for rest in _factorizations(n // d, levels - 1)]


@st.composite
def _multilevel(draw, p, dims):
    """A multi-level run on the most square grid of ``p``: per-level
    factors of both grid sides and non-increasing blocks, the top one
    dividing both tile extents of the inner dimension."""
    s = math.isqrt(p)
    while p % s:
        s -= 1
    t = p // s
    m, l, n = dims
    tile = math.gcd(l // s, l // t)
    levels = draw(st.sampled_from((2, 3)))
    blocks = [draw(st.sampled_from([b for b in (4, 8, 16) if tile % b == 0]
                                   or [tile]))]
    for _ in range(levels - 1):
        blocks.append(blocks[-1] // draw(st.sampled_from(
            (1, 2) if blocks[-1] % 2 == 0 else (1,))))
    return MultiLevelConfig(
        m=m, l=l, n=n, s=s, t=t,
        row_factors=draw(st.sampled_from(_factorizations(s, levels))),
        col_factors=draw(st.sampled_from(_factorizations(t, levels))),
        blocks=tuple(blocks))


@st.composite
def runs(draw, name):
    """Runs of the row ``name`` (or of the multi-level hierarchy)."""
    row = None if name == MULTILEVEL else family(name)
    fields = {} if row is None else {
        f: draw(st.sampled_from((None, None, None, *values)))
        for f, values in FIELDS.items() if _takes(row, f)}
    fields["overlap"] = bool(fields.get("overlap"))
    network = draw(st.sampled_from(NETWORKS))
    trace = draw(st.sampled_from((False, False, False, True)))
    phantom = draw(st.sampled_from((True, True, True, False)))
    p = draw(st.sampled_from(rank_counts(row, trace or not phantom
                                    or network != "homogeneous"
                                    or fields["overlap"])))
    m, n = (p * draw(st.sampled_from(SCALES)) for _ in range(2))
    dims = (m, 2 * p, n)
    options = CollectiveOptions(bcast=draw(st.sampled_from(BCASTS + BULK)),
                                bcast_segments=draw(st.sampled_from(DEPTHS)))
    if row is None:
        return Run(HSUMMA_MULTILEVEL, draw(_multilevel(p, dims)), dims,
                   frozenset({options.bcast}), False, options, network,
                   phantom, trace)
    run = _row_run(row, dims, Shape(nprocs=p, **fields), options,
                   network=network, phantom=phantom, trace=trace)
    assume(run is not None)
    return run


# -- the contract -------------------------------------------------------------

def make_network(kind: str, p: int):
    if kind == "homogeneous":
        return HomogeneousNetwork(p, PARAMS)
    if kind == "switched":
        # Three nodes a switch: grid rows straddle switches unevenly.
        return SwitchedCluster(p, 3, PARAMS)
    per_node = 4 if p % 4 == 0 else 1
    return Torus3D(torus_dims_for(p // per_node), PARAMS,
                   ranks_per_node=per_node)


def check_replay(run, network):
    """DES replay == DES expansion, numpy operands multiplied; a traced
    run expands and says so."""
    C, des = run.launch("des", network, trace=run.trace)
    C_ref, ref = run.launch(ExpandingEngine(network), network)
    assert_identical(des, ref)
    assert bits(C) == bits(C_ref)
    if not run.phantom:
        A, B = run.operands()
        np.testing.assert_allclose(C, A @ B, rtol=1e-10, atol=1e-12)
    assert set(des.replay["reasons"]) <= EXPANDED
    if run.trace:
        assert des.trace and des.replay["replayed"] == 0
    return des


def expected_collapse(run, network, symmetry, placed):
    """The collapse report the tier table promises: the documented
    reason the run stays per rank, else the collapsed report."""
    if symmetry is None:
        return "no grid symmetry declared"
    if placed and symmetry.communicators is None:
        return "coster depends on participant identity"
    if run.trace:
        return "transfer tracing enabled"
    if symmetry.covers_grid:
        return "probe set covers the whole grid"
    if placed and symmetry.placed(network) is None:
        return "a communicator class spans several placements"
    if not run.phantom:
        return "concrete data"
    return {"mode": "collapsed", "probed": len(symmetry.probe),
            "ranks": symmetry.nranks}


def check_collapse(run, network, coster=None):
    """Collapsed macro (``backend="macro"`` itself under the default
    coster) == per-rank macro, traced against untraced, and the
    collapse report is the one the declaration earns."""
    symmetry = run.spec.symmetry(run.cfg) if run.spec.symmetry else None
    col = coster and MacroBackend(network, coster=coster, symmetry=symmetry,
                                  collect_trace=run.trace)
    _, sim = run.launch(col or "macro", network, trace=run.trace)
    _, ref = run.launch(MacroBackend(network, coster=coster), network)
    assert_identical(sim, ref)
    expected = expected_collapse(run, network, symmetry, coster is not None)
    if isinstance(expected, dict):
        assert sim.collapse == expected
    else:
        assert sim.collapse["mode"] == "per-rank"
        assert expected in sim.collapse["reason"]
    return sim


def exact(run) -> bool:
    """Where the oracle's closed forms are the DES's own schedules:
    power-of-two communicators, and every payload a whole number of
    elements per rank and segment."""
    depth = getattr(run.options, "bcast_segments", None)
    if run.bcasts & SEGMENTED and depth is None:
        return False  # the algorithm's own depth need divide nothing
    unit = run.nranks * (depth if run.bcasts & SEGMENTED else 1)
    return (run.nranks & (run.nranks - 1) == 0
            and all(d % unit == 0 for d in run.dims))


def check_des_against_macro(run, des, macro):
    if not exact(run):
        return
    if not run.bcasts <= set(BULK):
        # DES is faster: ranks near the root leave a pipelined
        # broadcast or a flat, binary or chain tree early.
        assert des.total_time <= macro.total_time * (1 + TOL)
        return
    for field in ("total_time", "comm_time", "compute_time"):
        assert getattr(des, field) == pytest.approx(getattr(macro, field),
                                                    rel=TOL)


def check_lower_bound(run, *sims):
    """No makespan beats the BDHLS floor (a lookahead schedule is
    floored by overlapping its comm and compute)."""
    m, l, n = run.dims
    bound = lower_bound_time((m * l * n) ** (1 / 3), run.nranks,
                             PARAMS.alpha, 8 * PARAMS.beta, GAMMA)
    floor = bound.overlap_seconds if run.overlap else bound.seconds
    for sim in sims:
        assert sim.total_time >= floor


def expected_refusal(run, network) -> str | None:
    """The feature ``backend="predictor"`` names, first refusal first
    as ``launch`` decides, or None when it prices the run."""
    if run.spec.predict is None:
        return run.spec.refusal[0]
    if not run.phantom:
        return "concrete data"
    if run.trace:
        return "trace"
    if run.bcasts & SEGMENTED:
        return "pipelined broadcast"
    if not isinstance(network, HomogeneousNetwork):
        return "participant-dependent costs"
    return None


def check_predictor(run, network, macro):
    """The chain is the macro oracle's float; the user-facing predictor
    is the chain's, or a refusal naming its feature."""
    homogeneous = isinstance(network, HomogeneousNetwork)
    if run.spec.predict is not None and homogeneous:
        chain = live(run.spec.predict)(run.cfg, network=network,
                                       options=run.options, gamma=GAMMA)
        assert chain.total_time == macro.total_time
        assert chain.compute_time == macro.compute_time
        assert chain.comm_time == pytest.approx(macro.comm_time, rel=TOL)
    refusal = expected_refusal(run, network)
    if refusal is None:
        _, predicted = run.launch("predictor", network)
        assert predicted.stats == chain.stats
        return
    with pytest.raises(ConfigurationError,
                       match="backend='predictor' cannot price") as exc:
        run.launch("predictor", network, trace=run.trace)
    assert f"feature '{refusal}" in str(exc.value)


def check(run):
    """Every path that accepts ``run``, against the tier table."""
    network = run.net()
    des = check_replay(run, network)
    if run.network == "homogeneous":
        macro = check_collapse(run, network)
        check_des_against_macro(run, des, macro)
        check_lower_bound(run, des, macro)
    else:
        bcast = (run.options or CollectiveOptions()).bcast
        macro = check_collapse(run, network, TopologyCoster(network, bcast))
    check_predictor(run, network, macro)


def conforms(name):
    """The contract on runs of the row ``name``: its widest run, then
    draws — six plus four per shape field the row takes, so a row with
    more shapes to cover gets more."""
    fields = 1 if name == MULTILEVEL else sum(
        _takes(family(name), field) for field in FIELDS)
    test = example(run=widest_run(name))(given(run=runs(name))(check))
    settings(max_examples=6 + 4 * fields)(test)()
