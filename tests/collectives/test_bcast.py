"""Tests for every broadcast algorithm: delivery, roots, sizes, timing."""

import numpy as np
import pytest

from repro.collectives import COLLECTIVES
from repro.collectives.bcast import optimal_pipeline_segments
from repro.costs import PipelineDepthWarning, bcast_time
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray
from repro.simulator import run_spmd

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)
ALGOS = sorted(COLLECTIVES["bcast"].algorithms)


def _bcast_prog(algorithm, root, payload_factory):
    def prog(ctx):
        payload = payload_factory() if ctx.rank == root else None
        out = yield from ctx.world.bcast(payload, root=root, algorithm=algorithm)
        return out

    return prog


class TestDelivery:
    @pytest.mark.parametrize("algorithm", ALGOS)
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8, 13, 16])
    def test_all_ranks_receive(self, algorithm, size):
        prog = _bcast_prog(algorithm, 0, lambda: np.arange(24.0))
        res = run_spmd(prog, size, params=PARAMS)
        for value in res.return_values:
            assert np.allclose(value, np.arange(24.0))

    @pytest.mark.parametrize("algorithm", ALGOS)
    @pytest.mark.parametrize("root", [0, 1, 3, 6])
    def test_nonzero_roots(self, algorithm, root):
        prog = _bcast_prog(algorithm, root, lambda: np.full(10, float(root)))
        res = run_spmd(prog, 7, params=PARAMS)
        for value in res.return_values:
            assert np.allclose(value, root)

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_2d_payload_shape_preserved(self, algorithm):
        prog = _bcast_prog(algorithm, 2, lambda: np.arange(30.0).reshape(5, 6))
        res = run_spmd(prog, 6, params=PARAMS)
        for value in res.return_values:
            assert value.shape == (5, 6)
            assert np.allclose(value, np.arange(30.0).reshape(5, 6))

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_phantom_payload(self, algorithm):
        prog = _bcast_prog(algorithm, 0, lambda: PhantomArray((8, 8)))
        res = run_spmd(prog, 6, params=PARAMS)
        for value in res.return_values:
            assert isinstance(value, PhantomArray)
            assert value.shape == (8, 8)

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_tiny_payload_many_ranks(self, algorithm):
        """Segmented algorithms must survive messages smaller than the
        rank count (empty segments)."""
        prog = _bcast_prog(algorithm, 0, lambda: np.arange(3.0))
        res = run_spmd(prog, 9, params=PARAMS)
        for value in res.return_values:
            assert np.allclose(value, np.arange(3.0))


class TestTiming:
    @pytest.mark.parametrize("algorithm", ["binomial", "flat", "chain", "vandegeijn"])
    @pytest.mark.parametrize("size", [2, 4, 8, 16])
    def test_des_matches_closed_form(self, algorithm, size):
        """The executable schedule must cost exactly the closed form the
        paper's analysis uses.  512 elements split evenly for every
        tested size, so the segmented algorithm sees the ideal m/p."""
        prog = _bcast_prog(algorithm, 0, lambda: np.zeros(512))
        res = run_spmd(prog, size, params=PARAMS)
        assert res.total_time == pytest.approx(
            bcast_time(algorithm, 4096, size, PARAMS)
        )

    def test_binomial_beats_flat_at_scale(self):
        big = _bcast_prog("binomial", 0, lambda: np.zeros(100))
        flat = _bcast_prog("flat", 0, lambda: np.zeros(100))
        t_b = run_spmd(big, 16, params=PARAMS).total_time
        t_f = run_spmd(flat, 16, params=PARAMS).total_time
        assert t_b < t_f

    def test_vandegeijn_beats_binomial_for_large_messages(self):
        """The reason the paper pairs HSUMMA with vdg: better bandwidth."""
        big = 1 << 20  # elements
        t_b = bcast_time("binomial", big * 8, 64, PARAMS)
        t_v = bcast_time("vandegeijn", big * 8, 64, PARAMS)
        assert t_v < t_b

    def test_binomial_beats_vandegeijn_for_small_messages(self):
        t_b = bcast_time("binomial", 64, 64, PARAMS)
        t_v = bcast_time("vandegeijn", 64, 64, PARAMS)
        assert t_b < t_v

    def test_pipelined_beats_chain_for_large_messages(self):
        prog_p = _bcast_prog("pipelined", 0, lambda: np.zeros(100_000))
        prog_c = _bcast_prog("chain", 0, lambda: np.zeros(100_000))
        t_p = run_spmd(prog_p, 8, params=PARAMS).total_time
        t_c = run_spmd(prog_c, 8, params=PARAMS).total_time
        assert t_p < t_c

    def test_single_rank_is_free(self):
        for algorithm in ALGOS:
            prog = _bcast_prog(algorithm, 0, lambda: np.zeros(100))
            res = run_spmd(prog, 1, params=PARAMS)
            assert res.total_time == 0.0


class TestPipelineSegments:
    def test_optimal_formula(self):
        # 28 segments over a 10-rank chain that holds 9 in flight.
        with pytest.warns(PipelineDepthWarning, match="capacity 9"):
            s = optimal_pipeline_segments(1e6, 10, 1e-5, 1e-9)
        assert s == round((1e6 * 1e-9 * 8 / 1e-5) ** 0.5)

    def test_degenerate_cases(self):
        assert optimal_pipeline_segments(0, 10, 1e-5, 1e-9) == 1
        assert optimal_pipeline_segments(1e6, 2, 1e-5, 1e-9) == 1
        assert optimal_pipeline_segments(1e6, 1, 1e-5, 1e-9) == 1

    def test_explicit_segments_respected(self):
        def prog(ctx):
            ctx.options = ctx.options.replace(bcast_segments=4)
            data = np.zeros(1000) if ctx.rank == 0 else None
            out = yield from ctx.world.bcast(data, root=0, algorithm="pipelined")
            return out

        res = run_spmd(prog, 4, params=PARAMS)
        for v in res.return_values:
            assert np.allclose(v, 0.0)


class TestRegistry:
    def test_unknown_algorithm_rejected(self):
        from repro.collectives import COLLECTIVES
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown broadcast"):
            COLLECTIVES["bcast"].algorithm("nope")

    def test_all_registered(self):
        assert set(ALGOS) == {
            "binary", "binomial", "chain", "flat", "ft_binomial",
            "fourcolor", "hypersystolic", "pipelined", "segmented",
            "vandegeijn",
        }
