"""Tests for allgather algorithms."""

import numpy as np
import pytest

from repro.collectives.allgather import allgather_ring
from repro.network.model import HockneyParams
from repro.simulator import run_spmd

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)


def _prog(fn):
    def prog(ctx):
        out = yield from fn(ctx.world, np.full(2, float(ctx.rank)))
        return [float(v[0]) for v in out]

    return prog


class TestAllgather:
    @pytest.mark.parametrize("fn", [allgather_ring])
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 8, 13, 16])
    def test_every_rank_has_all(self, fn, size):
        res = run_spmd(_prog(fn), size, params=PARAMS)
        expected = [float(i) for i in range(size)]
        for value in res.return_values:
            assert value == expected

    def test_ring_message_count(self):
        res = run_spmd(_prog(allgather_ring), 8, params=PARAMS)
        # Each of 8 ranks forwards 7 times.
        assert res.total_messages == 8 * 7

    def test_generic_python_payload(self):
        def prog(ctx):
            out = yield from ctx.world.allgather(f"r{ctx.rank}")
            return out

        res = run_spmd(prog, 4, params=PARAMS)
        assert res.return_values[2] == ["r0", "r1", "r2", "r3"]
