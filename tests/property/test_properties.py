"""Property-based tests (hypothesis) on core invariants.

These attack the places where hand-picked examples are weakest:
arbitrary communicator sizes/roots for collectives, arbitrary split
shapes for payloads, arbitrary grids for distributions, and the
analytic-model identities across the whole parameter space.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blocks.distribution import BlockDistribution
from repro.collectives import COLLECTIVES
from repro.costs import (
    BINOMIAL_MODEL,
    VANDEGEIJN_MODEL,
    critical_ratio,
    hsumma_communication_cost,
    predicted_extremum_kind,
    summa_communication_cost,
    vdg_cost_derivative,
)
from repro.network.model import HockneyParams
from repro.payloads import join_payload, split_payload
from repro.simulator import run_spmd
from repro.util.gridmath import divisors, factor_grid, split_evenly

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)


class TestGridMathProperties:
    @given(st.integers(min_value=1, max_value=10_000))
    def test_factor_grid_invariants(self, p):
        s, t = factor_grid(p)
        assert s * t == p
        assert 1 <= s <= t

    @given(st.integers(min_value=1, max_value=2_000))
    def test_divisors_divide(self, n):
        for d in divisors(n):
            assert n % d == 0

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=64),
    )
    def test_split_evenly_properties(self, total, parts):
        chunks = split_evenly(total, parts)
        assert sum(chunks) == total
        assert len(chunks) == parts
        assert max(chunks) - min(chunks) <= 1


class TestPayloadProperties:
    @given(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=1, max_value=40),
    )
    def test_split_join_roundtrip_1d(self, size, parts):
        arr = np.arange(float(size))
        back = join_payload(split_payload(arr, parts))
        assert np.array_equal(back, arr)

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=30),
    )
    def test_split_join_roundtrip_2d(self, rows, cols, parts):
        arr = np.arange(float(rows * cols)).reshape(rows, cols)
        back = join_payload(split_payload(arr, parts))
        assert np.array_equal(back, arr)

    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=50),
    )
    def test_split_sizes_balanced(self, size, parts):
        segs = split_payload(np.zeros(size), parts)
        sizes = [s.data.size for s in segs]
        assert sum(sizes) == size
        assert max(sizes) - min(sizes) <= 1


class TestDistributionProperties:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
    )
    def test_block_roundtrip(self, tile_r, tile_c, s, t):
        rows, cols = tile_r * s, tile_c * t
        d = BlockDistribution(rows, cols, s, t)
        M = np.arange(float(rows * cols)).reshape(rows, cols)
        tiles = {
            (i, j): d.extract_tile(M, i, j)
            for i in range(s)
            for j in range(t)
        }
        assert np.array_equal(d.assemble(tiles), M)

    @given(
        st.integers(min_value=2, max_value=24),
        st.integers(min_value=2, max_value=24),
    )
    def test_every_element_has_one_owner(self, rows, cols):
        s = max(d for d in divisors(rows) if d <= 4)
        t = max(d for d in divisors(cols) if d <= 4)
        d = BlockDistribution(rows, cols, s, t)
        for gi in range(rows):
            for gj in range(cols):
                i, j = d.owner(gi, gj)
                assert 0 <= i < s and 0 <= j < t
                li, lj = d.global_to_local(gi, gj)
                assert 0 <= li < d.tile_rows and 0 <= lj < d.tile_cols


class TestBroadcastProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        algorithm=st.sampled_from(sorted(COLLECTIVES["bcast"].algorithms)),
        size=st.integers(min_value=1, max_value=20),
        data=st.data(),
    )
    def test_delivery_any_size_any_root(self, algorithm, size, data):
        """Every broadcast algorithm delivers the exact payload to every
        rank, for arbitrary sizes and roots, and terminates."""
        root = data.draw(st.integers(min_value=0, max_value=size - 1))
        nelems = data.draw(st.integers(min_value=0, max_value=64))
        payload = np.arange(float(nelems))

        def prog(ctx):
            obj = payload if ctx.rank == root else None
            out = yield from ctx.world.bcast(obj, root=root,
                                             algorithm=algorithm)
            return out

        res = run_spmd(prog, size, params=PARAMS)
        for value in res.return_values:
            assert np.array_equal(value, payload)

    @settings(max_examples=25, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=16),
        root=st.integers(min_value=0, max_value=15),
    )
    def test_scatter_gather_inverse(self, size, root):
        root = root % size

        def prog(ctx):
            parts = (
                [float(i) for i in range(size)] if ctx.rank == root else None
            )
            mine = yield from ctx.world.scatter(parts, root)
            assert mine == float(ctx.rank)
            out = yield from ctx.world.gather(mine, root)
            return out

        res = run_spmd(prog, size, params=PARAMS)
        assert res.return_values[root] == [float(i) for i in range(size)]

    @settings(max_examples=20, deadline=None)
    @given(size=st.integers(min_value=1, max_value=16))
    def test_allreduce_equals_sum(self, size):
        def prog(ctx):
            out = yield from ctx.world.allreduce(float(ctx.rank))
            return out

        res = run_spmd(prog, size, params=PARAMS)
        expected = float(sum(range(size)))
        for v in res.return_values:
            assert v == pytest.approx(expected)


class TestSimulatorProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        size=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_clock_accounting_consistent(self, size, seed):
        """For random communication patterns: clocks non-negative and
        comm + compute never exceeds the clock."""
        rng = np.random.default_rng(seed)
        compute = rng.uniform(0, 1e-3, size)

        def prog(ctx):
            comm = ctx.world
            yield from ctx.compute(float(compute[ctx.rank]))
            # Ring exchange, then a broadcast.
            right = (ctx.rank + 1) % comm.size
            left = (ctx.rank - 1) % comm.size
            yield from comm.sendrecv(np.zeros(16), right, left)
            obj = np.ones(8) if ctx.rank == 0 else None
            yield from comm.bcast(obj, root=0)
            return None

        res = run_spmd(prog, size, params=PARAMS)
        for s in res.stats:
            assert s.clock >= 0
            assert s.comm_time + s.compute_time <= s.clock + 1e-12


class TestModelProperties:
    @settings(max_examples=60)
    @given(
        n=st.sampled_from([256, 1024, 4096, 65536]),
        p=st.sampled_from([16, 64, 256, 1024, 4096]),
        b=st.sampled_from([1, 8, 64, 256]),
        model=st.sampled_from([BINOMIAL_MODEL, VANDEGEIJN_MODEL]),
    )
    def test_hsumma_degenerates_to_summa(self, n, p, b, model):
        if b > n:
            return
        s = summa_communication_cost(n, p, b, 1e-5, 1e-9, model)
        for G in (1, p):
            hs = hsumma_communication_cost(n, p, G, b, 1e-5, 1e-9, model)
            assert hs == pytest.approx(s, rel=1e-12)

    @settings(max_examples=60)
    @given(
        n=st.sampled_from([1024, 65536, 2**22]),
        p=st.sampled_from([64, 4096, 2**20]),
        b=st.sampled_from([16, 256]),
        alpha=st.floats(min_value=1e-7, max_value=1e-3),
        beta=st.floats(min_value=1e-12, max_value=1e-8),
    )
    def test_threshold_decides_extremum(self, n, p, b, alpha, beta):
        """eq. 10/11: the sign of alpha/beta - 2nb/p decides whether the
        interior point beats the edges."""
        kind = predicted_extremum_kind(n, b, p, alpha, beta)
        q = math.sqrt(p)
        mid = hsumma_communication_cost(n, p, q, b, alpha, beta,
                                        VANDEGEIJN_MODEL)
        edge = hsumma_communication_cost(n, p, 1, b, alpha, beta,
                                         VANDEGEIJN_MODEL)
        if kind == "minimum":
            assert mid <= edge + 1e-15
        elif kind == "maximum":
            assert mid >= edge - 1e-15

    @settings(max_examples=60)
    @given(
        n=st.sampled_from([1024, 65536]),
        p=st.sampled_from([64, 4096]),
        b=st.sampled_from([16, 64]),
        G=st.floats(min_value=1.01, max_value=4000),
        alpha=st.floats(min_value=1e-7, max_value=1e-3),
        beta=st.floats(min_value=1e-12, max_value=1e-8),
    )
    def test_derivative_sign_matches_numeric(self, n, p, b, G, alpha, beta):
        """eq. 9 agrees with a central difference of eq. 3-5."""
        if G >= p:
            return
        d_analytic = vdg_cost_derivative(n, p, G, b, alpha, beta)
        eps = G * 1e-6
        def f(g):
            return hsumma_communication_cost(
                n, p, g, b, alpha, beta, VANDEGEIJN_MODEL
            )
        d_numeric = (f(G + eps) - f(G - eps)) / (2 * eps)
        assert d_analytic == pytest.approx(d_numeric, rel=1e-2, abs=1e-9)

    @settings(max_examples=40)
    @given(
        n=st.integers(min_value=64, max_value=10_000),
        b=st.integers(min_value=1, max_value=64),
        p=st.integers(min_value=2, max_value=100_000),
    )
    def test_critical_ratio_positive_monotone(self, n, b, p):
        r = critical_ratio(n, b, p)
        assert r > 0
        assert critical_ratio(2 * n, b, p) == pytest.approx(2 * r)
