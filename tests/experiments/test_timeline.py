"""Tests for the ascii timeline renderer."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.timeline import render_timeline
from repro.network.homogeneous import HomogeneousNetwork
from repro.network.model import HockneyParams
from repro.simulator.engine import Engine
from repro.simulator.requests import ComputeRequest, RecvRequest, SendRequest

PARAMS = HockneyParams(alpha=1e-5, beta=1e-9)


def _traced_run():
    def sender():
        yield SendRequest(1, 0, b"x" * 1000)
        yield ComputeRequest(1e-4)

    def receiver():
        yield RecvRequest(0, 0)
        yield ComputeRequest(1e-4)

    eng = Engine(HomogeneousNetwork(2, PARAMS), collect_trace=True)
    return eng.run([sender(), receiver()])


class TestRenderTimeline:
    def test_contains_rank_rows(self):
        out = render_timeline(_traced_run())
        assert "rank 0" in out
        assert "rank 1" in out

    def test_shows_send_and_recv(self):
        out = render_timeline(_traced_run(), width=20)
        lines = out.splitlines()
        row0 = next(l for l in lines if l.strip().startswith("rank 0"))
        row1 = next(l for l in lines if l.strip().startswith("rank 1"))
        assert "s" in row0
        assert "r" in row1

    def test_idle_marked(self):
        out = render_timeline(_traced_run(), width=20)
        row0 = next(l for l in out.splitlines() if "rank 0" in l)
        assert "." in row0  # the compute tail has no transfers

    def test_rank_subset(self):
        out = render_timeline(_traced_run(), ranks=[1])
        assert "rank 1" in out
        assert "rank 0" not in out

    def test_requires_trace(self):
        def sender():
            yield SendRequest(1, 0, b"x")

        def receiver():
            yield RecvRequest(0, 0)

        res = Engine(HomogeneousNetwork(2, PARAMS)).run([sender(), receiver()])
        with pytest.raises(ConfigurationError, match="collect_trace"):
            render_timeline(res)

    def test_invalid_width(self):
        with pytest.raises(ConfigurationError):
            render_timeline(_traced_run(), width=0)

    def test_overlap_visibly_denser(self):
        """The lookahead schedule keeps transfer cells busy during
        compute columns; quick sanity that the tool distinguishes the
        two schedules."""
        from repro.blocks.dmatrix import DistMatrix
        from repro.core.summa import SummaConfig, summa_program
        from repro.core.overlap import lookahead_program
        from repro.mpi.comm import MpiContext

        n = 64
        rng = np.random.default_rng(0)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        cfg = SummaConfig(m=n, l=n, n=n, s=2, t=2, block=8)
        da, db = DistMatrix.from_global(A, 2, 2), DistMatrix.from_global(B, 2, 2)

        def run(factory):
            progs = [
                factory(MpiContext(r, 4, gamma=5e-9),
                        da.tile(*divmod(r, 2)), db.tile(*divmod(r, 2)), cfg)
                for r in range(4)
            ]
            return Engine(HomogeneousNetwork(4, PARAMS),
                          collect_trace=True).run(progs)

        plain = render_timeline(run(summa_program), width=40)
        over = render_timeline(run(lookahead_program), width=40)
        assert plain != over
