"""Symmetry collapse and the predictor: one fixed run per family, and
the ways asymmetry breaks a collapse.

The tier conformance harness (``test_conformance.py``) sweeps both
contracts over every row, shape, network and operand kind; the tests
named after them below pin each family's widest run (HSUMMA's and
cyclic's at every group grid) through the harness's own ``check_*``:

* **Collapsed macro == per-rank macro, bit for bit** (``check_collapse``,
  which also asserts the collapse report): stepping only the probe set
  and replicating the rest reproduces every per-rank ``RankStats``
  field and return value *exactly* — the congruence argument of
  ``docs/cost_model.md`` holds or the engine must have refused to
  collapse.
* **Predictor == macro** (``check_predictor``): total and compute time
  bit for bit, comm time to 1e-9 relative.
* **Asymmetry degrades safely**, one case per way of breaking it.
  Faults are refused outright by the macro backend; heterogeneous
  costers, real (numpy) payloads, tracing, the eager protocol, a
  non-uniform wire under point-to-point collapse and a probe set that
  covers the grid fall back to the per-rank path — observable through
  ``collapse_report`` — and numerics stay correct.
"""

import numpy as np
import pytest

from repro.algorithms.algo25d import run_25d
from repro.algorithms.cannon import run_cannon
from repro.algorithms.dns3d import run_dns3d
from repro.algorithms.fox import run_fox
from repro.core.hsumma import (
    HSUMMA_MULTILEVEL,
    MultiLevelConfig,
    run_hsumma_multilevel,
)
from repro.core.summa import run_summa
from repro.errors import ConfigurationError
from repro.mpi.comm import CollectiveOptions
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray
from repro.simulator.backends import MacroBackend
from repro.simulator.collapse import (
    cannon_symmetry,
    dns3d_symmetry,
    fox_symmetry,
    summa25d_symmetry,
    summa_symmetry,
)
from tests.property.conformance import (
    GROUP_GRIDS,
    MULTILEVEL,
    Run,
    check_collapse,
    check_predictor,
    widest_run,
)

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)
GAMMA = 1e-10


def _assert_bit_identical(sim_ref, sim_col):
    assert sim_col.nranks == sim_ref.nranks
    for a, b in zip(sim_ref.stats, sim_col.stats):
        assert b.clock == a.clock, f"rank {a.rank} clock"
        assert b.comm_time == a.comm_time, f"rank {a.rank} comm"
        assert b.compute_time == a.compute_time, f"rank {a.rank} compute"


def _widest(name, **fields):
    """The row's widest run under Van de Geijn broadcasts (the sweep's
    explicit example runs the default tree)."""
    return widest_run(name, CollectiveOptions(bcast="vandegeijn"), **fields)


def _collapses(run):
    assert check_collapse(run, run.net()).collapse["mode"] == "collapsed"


def _predicts(run):
    network = run.net()
    check_predictor(run, network, run.launch("macro", network)[1])


class TestCollapsedEqualsPerRank:
    def test_summa(self):
        _collapses(_widest("summa"))

    def test_hsumma(self):
        for groups in GROUP_GRIDS:
            _collapses(_widest("hsumma", groups=groups))

    def test_cyclic(self):
        for groups in GROUP_GRIDS:
            _collapses(_widest("cyclic", groups=groups))


class TestPredictorMatchesMacro:
    def test_summa(self):
        _predicts(_widest("summa"))

    def test_hsumma(self):
        _predicts(_widest("hsumma"))

    def test_cyclic(self):
        _predicts(_widest("cyclic"))


class TestAsymmetryFallsBack:
    """Symmetry breakage must be refused or fall back, never mispriced."""

    def test_macro_rejects_faults(self):
        A, B = PhantomArray((16, 16)), PhantomArray((16, 16))
        with pytest.raises(ConfigurationError, match="fault"):
            run_summa(A, B, grid=(4, 4), block=4, params=PARAMS,
                      backend="macro", faults="drop(p=0.02)")

    def test_heterogeneous_coster_blocks_collapse(self):
        from repro.network.mapping import block_mapping

        net = HomogeneousNetwork(
            16, PARAMS,
            intra_params=HockneyParams(alpha=1e-6, beta=1e-10),
            mapping=block_mapping(16, 4),
        )
        col = MacroBackend(net, symmetry=summa_symmetry(4, 4))
        A, B = PhantomArray((16, 16)), PhantomArray((16, 16))
        _, sim = run_summa(A, B, grid=(4, 4), block=4, network=net,
                           backend=col, gamma=GAMMA)
        assert col.collapse_report["mode"] == "per-rank"
        assert "participant identity" in col.collapse_report["reason"]
        assert sim.total_time > 0.0

    def test_real_data_falls_back_with_correct_product(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((16, 16))
        B = rng.standard_normal((16, 16))
        net = HomogeneousNetwork(16, PARAMS)
        col = MacroBackend(net, symmetry=summa_symmetry(4, 4))
        C, sim = run_summa(A, B, grid=(4, 4), block=4, network=net,
                           backend=col, gamma=GAMMA)
        assert col.collapse_report["mode"] == "per-rank"
        np.testing.assert_allclose(C, A @ B, rtol=1e-10)
        # The fallback is the ordinary per-rank macro path: it must
        # agree bit-for-bit with a backend that never tried to collapse.
        ref = MacroBackend(net)
        _, sim_ref = run_summa(A, B, grid=(4, 4), block=4, network=net,
                               backend=ref, gamma=GAMMA)
        _assert_bit_identical(sim_ref, sim)

    def test_tracing_blocks_collapse(self):
        net = HomogeneousNetwork(16, PARAMS)
        col = MacroBackend(net, collect_trace=True,
                           symmetry=summa_symmetry(4, 4))
        A, B = PhantomArray((16, 16)), PhantomArray((16, 16))
        run_summa(A, B, grid=(4, 4), block=4, network=net, backend=col,
                  gamma=GAMMA, trace=True)
        assert col.collapse_report["mode"] == "per-rank"
        assert "tracing" in col.collapse_report["reason"]

MULTILEVEL_CONFIGS = [
    # (s, t, row_factors, col_factors, blocks)
    (4, 4, (2, 2), (2, 2), (8, 4)),
    (4, 8, (2, 2), (2, 4), (8, 4)),
    (8, 8, (2, 2, 2), (2, 2, 2), (8, 4, 2)),
    (4, 4, (4,), (4,), (4,)),
    # Trivial top-level factors: collapses like the two levels below.
    (8, 8, (1, 2, 4), (1, 4, 2), (8, 4, 2)),
    (4, 8, (1, 2, 2), (2, 1, 4), (8, 8, 4)),
]


class TestNewFamiliesCollapse:
    """The torus (Cannon/Fox), layered (DNS-3D/2.5D) and level-wise
    (multilevel) symmetry declarations."""

    def test_cannon(self):
        _collapses(_widest("cannon"))

    def test_fox(self):
        _collapses(_widest("fox"))

    def test_dns3d(self):
        _collapses(_widest("3d"))

    def test_25d(self):
        _collapses(_widest("2.5d"))

    @pytest.mark.parametrize("cfg", MULTILEVEL_CONFIGS)
    def test_multilevel(self, cfg):
        s, t, rf, cf, blocks = cfg
        n = max(s, t) * blocks[0]
        _collapses(Run(HSUMMA_MULTILEVEL, MultiLevelConfig(
            m=n, l=n, n=n, s=s, t=t, row_factors=rf, col_factors=cf,
            blocks=blocks), (n, n, n), frozenset({"binomial"}), False, None,
            "homogeneous", phantom=True, trace=False))


class TestNewFamiliesPredictor:
    def test_cannon(self):
        _predicts(_widest("cannon"))

    def test_fox(self):
        _predicts(_widest("fox"))

    def test_dns3d(self):
        _predicts(_widest("3d"))

    def test_25d(self):
        _predicts(_widest("2.5d"))

    def test_multilevel(self):
        _predicts(widest_run(MULTILEVEL,
                             CollectiveOptions(bcast="vandegeijn")))


class TestNewFamiliesFallBack:
    """One deliberately broken-symmetry case per new runner: the
    collapse must fall back per-rank (never misprice), and where real
    data is involved the numerics must stay correct."""

    def test_cannon_real_data_falls_back_with_correct_product(self):
        rng = np.random.default_rng(11)
        q = 3
        A = rng.standard_normal((24, 24))
        B = rng.standard_normal((24, 24))
        net = HomogeneousNetwork(q * q, PARAMS)
        col = MacroBackend(net, symmetry=cannon_symmetry(q))
        C, sim = run_cannon(A, B, grid=(q, q), network=net, backend=col,
                            gamma=GAMMA)
        assert col.collapse_report["mode"] == "per-rank"
        np.testing.assert_allclose(C, A @ B, rtol=1e-10)
        ref = MacroBackend(net)
        _, sim_ref = run_cannon(A, B, grid=(q, q), network=net,
                                backend=ref, gamma=GAMMA)
        _assert_bit_identical(sim_ref, sim)

    def test_fox_eager_protocol_blocks_collapse(self):
        q = 4
        net = HomogeneousNetwork(q * q, PARAMS)
        col = MacroBackend(net, eager_threshold=1 << 20,
                           symmetry=fox_symmetry(q))
        A, B = PhantomArray((32, 32)), PhantomArray((32, 32))
        _, sim = run_fox(A, B, grid=(q, q), network=net, backend=col,
                         gamma=GAMMA)
        assert col.collapse_report["mode"] == "per-rank"
        assert "eager" in col.collapse_report["reason"]
        assert sim.total_time > 0.0

    def test_cannon_nonuniform_network_breaks_p2p_symmetry(self):
        """An explicitly participant-invariant coster slips past the
        eligibility blocker, but the collapsed engine's own uniform-wire
        guard must still refuse to replicate p2p times measured on a
        mapped two-tier network."""
        from repro.experiments.stepmodel import AnalyticCoster
        from repro.network.mapping import block_mapping

        q = 4
        net = HomogeneousNetwork(
            q * q, PARAMS,
            intra_params=HockneyParams(alpha=1e-6, beta=1e-10),
            mapping=block_mapping(q * q, 4),
        )
        col = MacroBackend(net, coster=AnalyticCoster(PARAMS, "binomial"),
                           symmetry=cannon_symmetry(q))
        A, B = PhantomArray((32, 32)), PhantomArray((32, 32))
        _, sim = run_cannon(A, B, grid=(q, q), network=net, backend=col,
                            gamma=GAMMA)
        assert col.collapse_report["mode"] == "per-rank"
        assert "uniform network" in col.collapse_report["reason"]
        assert sim.total_time > 0.0

    def test_dns3d_small_cube_probe_covers_grid(self):
        """q <= 3 puts every rank inside the corner probe set; the
        engine must notice collapsing buys nothing and fall back."""
        q = 3
        net = HomogeneousNetwork(q**3, PARAMS)
        col = MacroBackend(net, symmetry=dns3d_symmetry(q))
        A, B = PhantomArray((24, 24)), PhantomArray((24, 24))
        _, sim = run_dns3d(A, B, nprocs=q**3, network=net, backend=col,
                           gamma=GAMMA)
        assert col.collapse_report["mode"] == "per-rank"
        assert "covers" in col.collapse_report["reason"]
        ref = MacroBackend(net)
        _, sim_ref = run_dns3d(A, B, nprocs=q**3, network=net,
                               backend=ref, gamma=GAMMA)
        _assert_bit_identical(sim_ref, sim)

    def test_25d_tracing_blocks_collapse(self):
        q, c = 4, 2
        net = HomogeneousNetwork(q * q * c, PARAMS)
        col = MacroBackend(net, collect_trace=True,
                           symmetry=summa25d_symmetry(q, c))
        A, B = PhantomArray((32, 32)), PhantomArray((32, 32))
        _, sim = run_25d(A, B, nprocs=q * q * c, replication=c,
                         network=net, backend=col, gamma=GAMMA)
        assert col.collapse_report["mode"] == "per-rank"
        assert "tracing" in col.collapse_report["reason"]

    def test_multilevel_real_data_falls_back_with_correct_product(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((32, 32))
        B = rng.standard_normal((32, 32))
        net = HomogeneousNetwork(16, PARAMS)
        col = MacroBackend(net, symmetry=summa_symmetry(
            4, 4, (2, 2), (2, 2)))
        C, sim = run_hsumma_multilevel(
            A, B, grid=(4, 4), row_factors=(2, 2), col_factors=(2, 2),
            blocks=(8, 4), network=net, backend=col, gamma=GAMMA)
        assert col.collapse_report["mode"] == "per-rank"
        np.testing.assert_allclose(C, A @ B, rtol=1e-10)
