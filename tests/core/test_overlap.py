"""Tests for overlapped SUMMA/HSUMMA (paper future work: overlap)."""

import dataclasses

import numpy as np
import pytest

from repro.blocks.verify import max_abs_error
from repro.core.hsumma import run_hsumma
from repro.core.overlap import run_hsumma_overlap, run_summa_overlap
from repro.core.summa import run_summa
from repro.errors import ConfigurationError
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)


class TestOverlapCorrectness:
    @pytest.mark.parametrize("grid,block", [((2, 2), 8), ((4, 4), 4), ((2, 4), 4)])
    def test_summa_overlap_matches_numpy(self, rng, grid, block):
        n = 32
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        C, _ = run_summa_overlap(A, B, grid=grid, block=block, params=PARAMS)
        assert max_abs_error(C, A @ B) < 1e-10

    @pytest.mark.parametrize("G", [1, 2, 4, 8, 16])
    def test_hsumma_overlap_matches_numpy(self, rng, G):
        n = 32
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        C, _ = run_hsumma_overlap(A, B, grid=(4, 4), groups=G,
                                  outer_block=8, params=PARAMS)
        assert max_abs_error(C, A @ B) < 1e-10

    def test_hsumma_overlap_b_lt_B(self, rng):
        n = 32
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        C, _ = run_hsumma_overlap(A, B, grid=(4, 4), groups=4,
                                  outer_block=8, inner_block=2, params=PARAMS)
        assert max_abs_error(C, A @ B) < 1e-10

    def test_rectangular(self, rng):
        A = rng.standard_normal((12, 24))
        B = rng.standard_normal((24, 18))
        C, _ = run_summa_overlap(A, B, grid=(2, 3), block=4, params=PARAMS)
        assert max_abs_error(C, A @ B) < 1e-10

    def test_single_rank(self, rng):
        A = rng.standard_normal((8, 8))
        B = rng.standard_normal((8, 8))
        C, _ = run_summa_overlap(A, B, grid=(1, 1), block=4, params=PARAMS)
        assert max_abs_error(C, A @ B) < 1e-10


class TestOverlapBenefit:
    def _times(self, gamma):
        n = 512
        A, B = PhantomArray((n, n)), PhantomArray((n, n))
        _, plain = run_summa(A, B, grid=(4, 4), block=32,
                             params=PARAMS, gamma=gamma)
        _, over = run_summa_overlap(A, B, grid=(4, 4), block=32,
                                    params=PARAMS, gamma=gamma)
        return plain, over

    def test_overlap_reduces_total_time(self):
        """With comparable per-step comm and compute, lookahead hides
        most communication behind the gemm."""
        plain, over = self._times(gamma=5e-9)
        assert over.total_time < plain.total_time
        # Close to the max(comm, compute) lower bound.
        bound = max(plain.comm_time, plain.compute_time)
        assert over.total_time < bound * 1.1

    def test_overlap_never_slower(self):
        for gamma in (0.0, 1e-10, 1e-8):
            plain, over = self._times(gamma)
            assert over.total_time <= plain.total_time * 1.01

    def test_exposed_comm_shrinks(self):
        plain, over = self._times(gamma=5e-9)
        assert over.comm_time < plain.comm_time / 2

    def test_hsumma_overlap_benefit(self):
        n = 512
        A, B = PhantomArray((n, n)), PhantomArray((n, n))
        gamma = 5e-9
        _, plain = run_hsumma(A, B, grid=(4, 4), groups=4,
                              outer_block=32, params=PARAMS, gamma=gamma)
        _, over = run_hsumma_overlap(A, B, grid=(4, 4), groups=4,
                                     outer_block=32, params=PARAMS,
                                     gamma=gamma)
        assert over.total_time < plain.total_time

    def test_phantom_matches_real_timing(self, rng):
        n = 32
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        _, real = run_summa_overlap(A, B, grid=(4, 4), block=8,
                                    params=PARAMS, gamma=1e-9)
        _, phantom = run_summa_overlap(
            PhantomArray((n, n)), PhantomArray((n, n)),
            grid=(4, 4), block=8, params=PARAMS, gamma=1e-9,
        )
        assert real.total_time == pytest.approx(phantom.total_time)


class TestOverlapRefusesBcast:
    """The lookahead always runs the split-phase binomial tree, so a
    broadcast-algorithm field with ``overlap=True`` is refused by name
    instead of being dropped."""

    @pytest.mark.parametrize("family, field", [
        ("summa", "bcast"), ("hsumma", "bcast"), ("hsumma", "outer_bcast")])
    def test_configure_names_the_field(self, family, field):
        from repro.core.launch import family as row, Shape

        shape = Shape(s=4, t=4, overlap=True, **{field: "vandegeijn"})
        with pytest.raises(ConfigurationError, match=f"{field}="):
            row(family).configure(256, 256, 256, shape)
        # The same shape without the lookahead configures.
        row(family).configure(256, 256, 256,
                              dataclasses.replace(shape, overlap=False))

    @pytest.mark.parametrize("algorithm", ["summa", "hsumma"])
    def test_multiply_refuses(self, algorithm):
        from repro import multiply

        A = PhantomArray((256, 256))
        with pytest.raises(ConfigurationError,
                           match="overlap=True does not take bcast="):
            multiply(A, A, grid=(4, 4), algorithm=algorithm, overlap=True,
                     bcast="vandegeijn")


class TestIBcast:
    def test_phase_order_enforced(self):
        from repro.collectives.nonblocking import IBcast
        from repro.errors import CommunicatorError
        from repro.simulator import run_spmd

        def prog(ctx):
            bc = IBcast(ctx.world, 0)
            try:
                yield from bc.complete("x")
            except CommunicatorError:
                return "caught"
            return "no error"

        res = run_spmd(prog, 2, params=PARAMS)
        assert res.return_values == ["caught", "caught"]

    def test_invalid_root(self):
        from repro.collectives.nonblocking import IBcast
        from repro.errors import CommunicatorError
        from repro.mpi.comm import MpiContext

        ctx = MpiContext(0, 4)
        with pytest.raises(CommunicatorError):
            IBcast(ctx.world, 4)

    def test_delivers_like_blocking_bcast(self):
        from repro.collectives.nonblocking import IBcast
        from repro.simulator import run_spmd

        def prog(ctx):
            bc = IBcast(ctx.world, 2)
            yield from bc.post()
            obj = np.arange(5.0) if ctx.rank == 2 else None
            out = yield from bc.complete(obj)
            yield from bc.finish()
            return out

        res = run_spmd(prog, 7, params=PARAMS)
        for v in res.return_values:
            assert np.allclose(v, np.arange(5.0))
