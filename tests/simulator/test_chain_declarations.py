"""A predictor chain is data, and one evaluator prices it.

The contract the ``predict_*`` declarations rest on: the evaluator's
``clock``, ``comm_time`` and ``compute_time`` equal a scalar
left-to-right walk of the *same declaration* bit for bit — the walk
being the imperative accumulator the declarations replaced, kept here
as the oracle.  Equality is on the packed doubles, not ``approx``: a
numpy release whose ``accumulate`` stopped adding strictly left to
right, or an "optimised" evaluator that multiplied a repeated duration,
fails here loudly before any golden drifts by an ULP.
"""

import itertools
import struct
import sys

import pytest

from repro.core.cyclic import CyclicConfig
from repro.core.hsumma import HSummaConfig
from repro.core.summa import SummaConfig
from repro.simulator.costers import AnalyticCoster
from repro.mpi.comm import CollectiveOptions
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.simulator import predictor
from repro.simulator.predictor import (
    SquareGridConfig,
    bcast,
    chain_walk,
    compute,
    p2p,
    reduce,
    repeat,
)

#: Non-dyadic parameters: every addition rounds, so order is observable.
PLATFORMS = {
    "latency-bound": (HockneyParams(alpha=1e-4, beta=1e-9), 1e-10),
    "exascale": (HockneyParams(alpha=5e-7, beta=1.0 / 3e10), 1.0 / 7e12),
}
BCASTS = ("binomial", "vandegeijn", "flat", "binary", "chain", "pipelined",
          "segmented", "fourcolor", "hypersystolic")
DEPTHS = (None, 1, 3)


def scalar_walk(declaration, run):
    """``(clock, comm, compute)`` of a declaration, one leaf at a time:
    ``finish = clock + T; comm += finish - clock; clock = finish`` for
    communication, ``compute += g; clock = clock + g`` for a gemm."""
    clock = comm = compute_time = 0.0
    memo = {}

    def duration(key, price):
        if key not in memo:
            memo[key] = price()
        return memo[key]

    def walk(nodes):
        nonlocal clock, comm, compute_time
        for node in nodes:
            kind = node[0]
            if kind == "repeat":
                for _ in range(node[1]):
                    walk(node[2])
                continue
            if kind == "compute":
                compute_time += node[1]
                clock = clock + node[1]
                continue
            if kind == "p2p":
                step = duration(node, lambda: run.network.transfer_time(
                    0, 1, node[1]))
            else:
                _, p, nbytes, algorithm = node
                if p <= 1:
                    continue  # the engine's free single-rank no-op
                if kind == "bcast":
                    algorithm, segments = (algorithm or run.bcasts[0],
                                           run.segments)
                else:
                    algorithm, segments = "binomial", None
                step = duration(node, lambda: run.coster.collective_time(
                    kind, algorithm, tuple(range(p)), 0, nbytes,
                    segments=segments))
            finish = clock + step
            comm += finish - clock
            clock = finish

    walk(declaration)
    return clock, comm, compute_time


def bits(*values):
    return struct.pack(f"<{len(values)}d", *values)


def assert_evaluator_equals_walk(predict, cfg, *, nranks, platform,
                                 options=None, a_itemsize=8, b_itemsize=8):
    params, gamma = PLATFORMS[platform]
    network = HomogeneousNetwork(nranks, params)
    opts = options or CollectiveOptions()
    run = predictor._Run(AnalyticCoster(params), network,
                         predict.bcasts(cfg, options), opts.bcast_segments,
                         gamma, a_itemsize, b_itemsize)
    expected = scalar_walk(predict.__wrapped__(run, cfg), run)
    sim = predict(cfg, network=network, options=options, gamma=gamma,
                  a_itemsize=a_itemsize, b_itemsize=b_itemsize)
    [rank] = sim.stats
    assert bits(rank.clock, rank.comm_time, rank.compute_time) \
        == bits(*expected)
    assert (sim.total_time, sim.return_values) == (rank.clock, [])
    return sim


@chain_walk(lambda cfg: (cfg.bcast, None))
def predict_toy(run, cfg):
    """Every leaf kind, nested repeats, zero and one repetitions, a
    leaf shared between two loops, and a trailing partial round."""
    mloc, nloc = cfg.m // cfg.s, cfg.n // cfg.t
    gemm = compute(run.gemm_seconds(mloc, cfg.block, nloc))
    col = bcast(cfg.s, cfg.block * nloc * run.b_itemsize, run.bcasts[1])
    return [
        p2p(mloc * run.a_itemsize),
        repeat(0, [p2p(1), gemm]),
        repeat(cfg.nsteps, [
            col,
            repeat(3, [bcast(cfg.t, mloc * cfg.block * run.a_itemsize),
                       repeat(1, [gemm])]),
            p2p(nloc * run.b_itemsize),
        ]),
        col, gemm,
        reduce(cfg.s, mloc * nloc * 8),
    ]


def _configs():
    """``(id, predict, cfg, nranks)`` over the seven families and the
    toy: square and rectangular grids, ``inner_steps > 1``, a single
    step, ``q == 1`` (no skew, no shift, no route), group and grid
    axes of one rank (skipped collectives).  ``nranks`` sizes the
    network exactly: a one-rank run is priced on a one-rank network,
    where a hop that never executes must not be priced either."""
    n = 48
    out = []
    for s, t, block in ((2, 4, 4), (4, 4, 12), (1, 4, 12), (3, 1, 8),
                        (1, 1, 48)):
        cfg = SummaConfig(m=n, l=n, n=2 * n, s=s, t=t, block=block)
        out.append((f"summa-{s}x{t}-b{block}", predictor.predict_summa, cfg,
                    s * t))
        # The toy hops unconditionally: its network has a second rank.
        out.append((f"toy-{s}x{t}-b{block}", predict_toy, cfg,
                    max(s * t, 2)))
    for s, t, I, J, B, b in ((4, 4, 2, 2, 12, 4), (4, 4, 1, 4, 12, 12),
                             (4, 2, 4, 1, 6, 2), (2, 4, 1, 1, 12, 3),
                             (4, 4, 4, 4, 4, 4)):
        cfg = HSummaConfig(m=n, l=n, n=n, s=s, t=t, I=I, J=J,
                           outer_block=B, inner_block=b)
        out.append((f"hsumma-{s}x{t}-{I}x{J}-B{B}-b{b}",
                    predictor.predict_hsumma, cfg, s * t))
    for s, t, I, J, nb in ((2, 4, 1, 1, 3), (4, 4, 2, 2, 4), (4, 2, 4, 1, 6),
                           (1, 1, 1, 1, 48)):
        cfg = CyclicConfig(m=n, l=n, n=n, s=s, t=t, nb=nb, I=I, J=J)
        out.append((f"cyclic-{s}x{t}-{I}x{J}-nb{nb}",
                    predictor.predict_cyclic, cfg, s * t))
    for q in (1, 2, 3, 4):
        cfg = SquareGridConfig(m=n, l=2 * n, n=n, q=q)
        out.append((f"cannon-q{q}", predictor.predict_cannon, cfg, q * q))
        out.append((f"fox-q{q}", predictor.predict_fox, cfg, q * q))
        cube = SquareGridConfig(m=n, l=2 * n, n=n, q=q, c=q)
        out.append((f"dns3d-q{q}", predictor.predict_dns3d, cube, q ** 3))
    for q, c in ((1, 1), (2, 1), (4, 2), (4, 4)):
        cfg = SquareGridConfig(m=n, l=n, n=2 * n, q=q, c=c)
        out.append((f"2.5d-q{q}-c{c}", predictor.predict_summa25d, cfg,
                    q * q * c))
    return out


CONFIGS = _configs()


def test_the_sweep_covers_every_table_row_with_a_chain():
    from repro.core.launch import FAMILIES, family

    chained = {family(name).predict for name in FAMILIES} - {None}
    assert chained <= {predict for _, predict, _, _ in CONFIGS}


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
@pytest.mark.parametrize("case", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_evaluator_equals_the_scalar_walk_bit_for_bit(case, platform):
    _, predict, cfg, nranks = case
    for algorithm, depth in itertools.product(BCASTS, DEPTHS):
        options = CollectiveOptions(bcast=algorithm, bcast_segments=depth)
        assert_evaluator_equals_walk(predict, cfg, nranks=nranks,
                                     platform=platform, options=options)
    # Library defaults, and operand item sizes the declaration reads.
    assert_evaluator_equals_walk(predict, cfg, nranks=nranks,
                                 platform=platform)
    assert_evaluator_equals_walk(predict, cfg, nranks=nranks,
                                 platform=platform, a_itemsize=4,
                                 b_itemsize=2)


def test_config_level_and_mixed_algorithms_reach_the_leaves():
    cfg = HSummaConfig(m=48, l=48, n=48, s=4, t=4, I=2, J=2, outer_block=12,
                       inner_block=4, outer_bcast="vandegeijn",
                       inner_bcast="segmented")
    mixed = assert_evaluator_equals_walk(
        predictor.predict_hsumma, cfg, nranks=16, platform="latency-bound",
        options=CollectiveOptions(bcast="flat", bcast_segments=3))
    flat = assert_evaluator_equals_walk(
        predictor.predict_hsumma,
        HSummaConfig(m=48, l=48, n=48, s=4, t=4, I=2, J=2, outer_block=12,
                     inner_block=4),
        nranks=16, platform="latency-bound",
        options=CollectiveOptions(bcast="flat", bcast_segments=3))
    assert mixed.comm_time != flat.comm_time
    assert mixed.compute_time == flat.compute_time


def test_a_chain_without_communication_or_computation_is_all_zeros():
    cfg = SquareGridConfig(m=8, l=8, n=8, q=1)
    sim = assert_evaluator_equals_walk(
        predictor.predict_cannon, cfg, nranks=1, platform="exascale")
    assert sim.comm_time == 0.0 and sim.total_time == sim.compute_time > 0

    @chain_walk()
    def predict_nothing(run, cfg):
        return [repeat(5, []), repeat(0, [compute(1.0)]), bcast(1, 64)]

    sim = assert_evaluator_equals_walk(
        predict_nothing, cfg, nranks=1, platform="exascale")
    assert (sim.total_time, sim.comm_time, sim.compute_time) == (0.0,) * 3


def test_a_loop_that_never_runs_is_not_priced():
    """Only executed leaves reach the coster or the network: the hop
    below does not exist on a one-rank network (pricing it raises), and
    the broadcast would be a coster call for a phase no rank performs."""

    @chain_walk()
    def predict_skipped(run, cfg):
        return [repeat(0, [p2p(8), bcast(4, 64),
                           repeat(2, [reduce(4, 64)])]),
                compute(1.5)]

    params, _ = PLATFORMS["exascale"]
    coster = CountingCoster(params)
    sim = predict_skipped(None, network=HomogeneousNetwork(1, params),
                          coster=coster)
    assert coster.calls == 0
    assert (sim.total_time, sim.comm_time, sim.compute_time) == (1.5, 0.0, 1.5)


@pytest.mark.parametrize("algorithm, shape", [
    ("summa", dict(grid=(1, 1))),
    ("hsumma", dict(grid=(1, 1), groups=1)),
    ("cyclic", dict(grid=(1, 1))),
    ("cannon", dict(grid=(1, 1))),
    ("fox", dict(grid=(1, 1))),
    ("3d", dict(nprocs=1)),
    ("2.5d", dict(nprocs=1, replication=1)),
])
def test_one_rank_is_compute_only_on_launchs_default_network(algorithm,
                                                             shape):
    """``launch`` sizes its default network to the run: on one rank
    there is no pair ``(0, 1)`` to price, and no skew, shift, roll or
    route executes — the prediction is the gemms, as macro steps them."""
    from repro import multiply
    from repro.payloads import PhantomArray

    params, gamma = PLATFORMS["latency-bound"]
    A, B = PhantomArray((48, 48)), PhantomArray((48, 48))
    predicted, stepped = (
        multiply(A, B, algorithm=algorithm, params=params, gamma=gamma,
                 backend=backend, **shape)
        for backend in ("predictor", "macro"))
    assert bits(predicted.total_time, predicted.comm_time,
                predicted.compute_time) \
        == bits(stepped.total_time, stepped.comm_time, stepped.compute_time)
    assert predicted.comm_time == 0.0
    assert predicted.total_time == predicted.compute_time > 0


class CountingCoster(AnalyticCoster):
    def __init__(self, params):
        super().__init__(params)
        self.calls = 0

    def collective_time(self, *args, **kwargs):
        self.calls += 1
        return super().collective_time(*args, **kwargs)


def test_exascale_hsumma_is_priced_per_distinct_leaf_not_per_step():
    """The fig. 10 point: 16384 outer steps of five phases each cost
    two coster calls (a level's row and column broadcasts are one
    leaf on the square grid) and a bounded number of Python calls."""
    from repro.platforms import exascale_2012

    p, n, side = 1 << 20, 1 << 22, 1 << 10
    cfg = HSummaConfig(m=n, l=n, n=n, s=side, t=side, I=side // 4,
                       J=side // 4, outer_block=256, inner_block=256)
    assert cfg.outer_steps * (2 + 3 * cfg.inner_steps) == 81920
    plat = exascale_2012(p)
    network = plat.network(p)
    coster = CountingCoster(network.params)

    python_calls = 0

    def count(frame, event, arg):
        nonlocal python_calls
        python_calls += event == "call"

    sys.setprofile(count)
    try:
        sim = predictor.predict_hsumma(cfg, network=network, coster=coster,
                                       options=plat.options,
                                       gamma=plat.gamma)
    finally:
        sys.setprofile(None)
    assert 0 < coster.calls <= 5
    assert python_calls < 500
    assert sim.total_time > sim.compute_time > sim.comm_time > 0
