"""Symmetry collapse: the ways asymmetry breaks it.

The tier conformance harness (``test_conformance.py``) sweeps
collapsed == per-rank macro and predictor == macro over every row,
shape, network and operand kind, and pins each family's widest run
(HSUMMA's and cyclic's at every group grid) through ``check_collapse``
and ``check_predictor`` in its table of fixed runs.  Here, asymmetry
degrades safely, one case per way of breaking it.  Faults are refused
outright by the macro backend; heterogeneous costers, real (numpy)
payloads, tracing, the eager protocol, a non-uniform wire under
point-to-point collapse and a probe set that covers the grid fall back
to the per-rank path — observable through ``collapse_report`` — and
numerics stay correct.
"""

import numpy as np
import pytest

from repro.algorithms.algo25d import run_25d
from repro.algorithms.cannon import run_cannon
from repro.algorithms.dns3d import run_dns3d
from repro.algorithms.fox import run_fox
from repro.core.hsumma import run_hsumma_multilevel
from repro.core.summa import run_summa
from repro.errors import ConfigurationError
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
from tests.pins import assert_identical

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)
GAMMA = 1e-10


def falls_back(run, net, symmetry, reason, **backend):
    """``run(network=, backend=, gamma=)`` on a backend that may
    collapse under ``symmetry`` stays per rank, says ``reason``, and
    is bit for bit the run on a backend that never tried; its result."""
    col = MacroBackend(net, symmetry=symmetry, **backend)
    out, sim = run(network=net, backend=col, gamma=GAMMA)
    assert col.collapse_report["mode"] == "per-rank"
    assert reason in col.collapse_report["reason"]
    assert sim.total_time > 0.0
    _, ref = run(network=net, backend=MacroBackend(net, **backend),
                 gamma=GAMMA)
    assert_identical(sim, ref)
    return out


def _mapped(nranks):
    """Four ranks a node, intra-node links faster: a wire whose cost
    depends on who the participants are."""
    from repro.network.mapping import block_mapping

    return HomogeneousNetwork(
        nranks, PARAMS, intra_params=HockneyParams(alpha=1e-6, beta=1e-10),
        mapping=block_mapping(nranks, 4))


class TestAsymmetryFallsBack:
    """Symmetry breakage must be refused or fall back, never mispriced."""

    def test_macro_rejects_faults(self):
        A, B = PhantomArray((16, 16)), PhantomArray((16, 16))
        with pytest.raises(ConfigurationError, match="fault"):
            run_summa(A, B, grid=(4, 4), block=4, params=PARAMS,
                      backend="macro", faults="drop(p=0.02)")

    def test_heterogeneous_coster_blocks_collapse(self):
        A = PhantomArray((16, 16))
        falls_back(lambda **run: run_summa(A, A, grid=(4, 4), block=4,
                                           **run),
                   _mapped(16), summa_symmetry(4, 4), "participant identity")

    def test_real_data_falls_back_with_correct_product(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((16, 16))
        B = rng.standard_normal((16, 16))
        C = falls_back(lambda **run: run_summa(A, B, grid=(4, 4), block=4,
                                               **run),
                       HomogeneousNetwork(16, PARAMS), summa_symmetry(4, 4),
                       "concrete data")
        np.testing.assert_allclose(C, A @ B, rtol=1e-10)

    def test_tracing_blocks_collapse(self):
        A = PhantomArray((16, 16))
        falls_back(lambda **run: run_summa(A, A, grid=(4, 4), block=4,
                                           trace=True, **run),
                   HomogeneousNetwork(16, PARAMS), summa_symmetry(4, 4),
                   "tracing", collect_trace=True)


class TestNewFamiliesFallBack:
    """One deliberately broken-symmetry case per new runner: the
    collapse must fall back per-rank (never misprice), and where real
    data is involved the numerics must stay correct."""

    def test_cannon_real_data_falls_back_with_correct_product(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((24, 24))
        B = rng.standard_normal((24, 24))
        C = falls_back(lambda **run: run_cannon(A, B, grid=(3, 3), **run),
                       HomogeneousNetwork(9, PARAMS), cannon_symmetry(3),
                       "concrete data")
        np.testing.assert_allclose(C, A @ B, rtol=1e-10)

    def test_fox_eager_protocol_blocks_collapse(self):
        A = PhantomArray((32, 32))
        falls_back(lambda **run: run_fox(A, A, grid=(4, 4), **run),
                   HomogeneousNetwork(16, PARAMS), fox_symmetry(4), "eager",
                   eager_threshold=1 << 20)

    def test_cannon_nonuniform_network_breaks_p2p_symmetry(self):
        """An explicitly participant-invariant coster slips past the
        eligibility blocker, but the collapsed engine's own uniform-wire
        guard must still refuse to replicate p2p times measured on a
        mapped two-tier network."""
        from repro.simulator.costers import AnalyticCoster

        A = PhantomArray((32, 32))
        falls_back(lambda **run: run_cannon(A, A, grid=(4, 4), **run),
                   _mapped(16), cannon_symmetry(4), "uniform network",
                   coster=AnalyticCoster(PARAMS, "binomial"))

    def test_dns3d_small_cube_probe_covers_grid(self):
        """q <= 3 puts every rank inside the corner probe set; the
        engine must notice collapsing buys nothing and fall back."""
        A = PhantomArray((24, 24))
        falls_back(lambda **run: run_dns3d(A, A, nprocs=27, **run),
                   HomogeneousNetwork(27, PARAMS), dns3d_symmetry(3),
                   "covers")

    def test_25d_tracing_blocks_collapse(self):
        A = PhantomArray((32, 32))
        falls_back(lambda **run: run_25d(A, A, nprocs=32, replication=2,
                                         **run),
                   HomogeneousNetwork(32, PARAMS), summa25d_symmetry(4, 2),
                   "tracing", collect_trace=True)

    def test_multilevel_real_data_falls_back_with_correct_product(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((32, 32))
        B = rng.standard_normal((32, 32))
        C = falls_back(lambda **run: run_hsumma_multilevel(
            A, B, grid=(4, 4), row_factors=(2, 2), col_factors=(2, 2),
            blocks=(8, 4), **run), HomogeneousNetwork(16, PARAMS),
            summa_symmetry(4, 4, (2, 2), (2, 2)), "concrete data")
        np.testing.assert_allclose(C, A @ B, rtol=1e-10)
