"""Properties pinning the segmented family's overlap correctness.

Three claims the pipeline-depth machinery rests on:

1.  *Never slower at the chosen depth*: running a segmented broadcast
    at the registry's ``s*`` is never slower (up to a small tolerance
    for integer rounding of the optimum) than the unsegmented ``s=1``
    run of the same algorithm, on the real DES — pipelining must not
    be a pessimisation anywhere in the sampled (p, m) space.  Note the
    literal "for any s" property is false (gross over-segmentation
    pays ``S*alpha`` fill), which is exactly why ``s*`` exists.
2.  *The registry optimum is the discrete optimum*: the closed form at
    ``optimal_pipeline_segments`` is within rounding tolerance of the
    exhaustive minimum over segment counts.
3.  *K-schedule determinism under transient faults*: every new
    algorithm delivers bit-identical payloads under perturbed delivery
    schedules while messages are being dropped and links degraded.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.costs import (
    PipelineDepthWarning,
    bcast_time,
    max_pipeline_segments,
    optimal_pipeline_segments,
)
from repro.faults import FaultSchedule, LinkDegradation, MessageDrop
from repro.network.model import HockneyParams
from repro.payloads import PhantomArray
from repro.simulator import run_spmd
from repro.verify import VerifyOptions

PARAMS = HockneyParams(alpha=1e-4, beta=1e-9)
NEW_ALGOS = ("segmented", "fourcolor", "hypersystolic")


def _bcast_prog(algorithm, payload_factory, segments):
    def prog(ctx):
        ctx.options = ctx.options.replace(bcast_segments=segments)
        payload = payload_factory() if ctx.rank == 0 else None
        out = yield from ctx.world.bcast(payload, root=0,
                                         algorithm=algorithm)
        return out

    return prog


def _optimum(m_bytes, p, algorithm):
    """The registry's ``s*``, which warns exactly when it exceeds the
    route's segment capacity."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = optimal_pipeline_segments(m_bytes, p, PARAMS.alpha, PARAMS.beta,
                                      algorithm)
    over = s > max_pipeline_segments(p, algorithm)
    assert [w.category for w in caught] == [PipelineDepthWarning] * over
    return s


def _des_time(algorithm, p, elements, segments):
    prog = _bcast_prog(algorithm, lambda: PhantomArray((elements,)),
                       segments)
    return run_spmd(prog, p, params=PARAMS).total_time


class TestNeverSlowerAtOptimum:
    @pytest.mark.parametrize("algorithm", NEW_ALGOS + ("pipelined",))
    @settings(max_examples=20, deadline=None)
    @given(p=st.integers(3, 14), log2_elements=st.integers(10, 18))
    def test_s_opt_never_slower_than_unsegmented(self, algorithm, p,
                                                 log2_elements):
        elements = 1 << log2_elements
        s_opt = _optimum(elements * 8, p, algorithm)
        t_opt = _des_time(algorithm, p, elements, s_opt)
        t_one = _des_time(algorithm, p, elements, 1)
        # 2% headroom: s* is the *closed-form* optimum; the DES adds
        # only the uneven-final-segment quantisation on top.
        assert t_opt <= t_one * 1.02


class TestRegistryOptimum:
    @pytest.mark.parametrize("algorithm", NEW_ALGOS + ("pipelined",))
    @settings(max_examples=30, deadline=None)
    @given(p=st.integers(3, 300), log2_bytes=st.integers(8, 24))
    def test_s_opt_within_rounding_of_discrete_minimum(self, algorithm,
                                                       p, log2_bytes):
        m = float(1 << log2_bytes)
        s_opt = _optimum(m, p, algorithm)
        cost_opt = bcast_time(algorithm, m, p, PARAMS, segments=s_opt)
        sweep = range(1, max(4 * s_opt, 8) + 1)
        best = min(bcast_time(algorithm, m, p, PARAMS, segments=s)
                   for s in sweep)
        # round(s*_continuous) can land one off the discrete argmin;
        # the closed form is flat enough there that 5% always covers it.
        assert cost_opt <= best * 1.05

    @pytest.mark.parametrize("algorithm", NEW_ALGOS)
    def test_large_messages_want_more_segments(self, algorithm):
        depths = [_optimum(m, 64, algorithm)
                  for m in (1 << 10, 1 << 16, 1 << 22)]
        assert depths == sorted(depths)
        assert depths[-1] > depths[0]


@st.composite
def transient_schedules(draw):
    """A death-free fault schedule over a small world: message drops
    force retransmissions, degradations skew every wire time."""
    faults = []
    for _ in range(draw(st.integers(1, 2))):
        faults.append(MessageDrop(p=draw(st.floats(0.05, 0.5))))
    for _ in range(draw(st.integers(0, 2))):
        t0 = draw(st.floats(0.0, 0.005))
        faults.append(LinkDegradation(
            alpha_mult=draw(st.floats(1.0, 6.0)),
            beta_mult=draw(st.floats(1.0, 6.0)),
            t0=t0, t1=t0 + draw(st.floats(0.0, 0.05)),
        ))
    return FaultSchedule(seed=draw(st.integers(0, 2 ** 32)), faults=faults)


class TestDeterminismUnderTransients:
    @pytest.mark.parametrize("algorithm", NEW_ALGOS)
    @settings(max_examples=10, deadline=None)
    @given(sched=transient_schedules(), segments=st.integers(1, 5))
    def test_k_schedules_bit_identical(self, algorithm, sched, segments):
        ref = np.arange(60.0)
        prog = _bcast_prog(algorithm, lambda: ref.copy(), segments)
        res = run_spmd(prog, 7, params=PARAMS, faults=sched,
                       verify=VerifyOptions(schedules=3, strict=True))
        assert res.verdict is not None and res.verdict.ok
        for value in res.return_values:
            assert np.array_equal(value, ref)


class TestOverlapRunnerIntegration:
    def test_pipelined_overlap_product_bit_identical(self):
        """Streaming the overlap runner's broadcasts in segments must
        not change a single bit of the product."""
        from repro.core.overlap import run_summa_overlap
        from repro.core.summa import run_summa

        rng = np.random.default_rng(7)
        A = rng.standard_normal((24, 24))
        B = rng.standard_normal((24, 24))
        plain, _ = run_summa(A, B, grid=(2, 2), block=6, params=PARAMS)
        for segments in (1, 2, 3):
            piped, _ = run_summa_overlap(A, B, grid=(2, 2), block=6,
                                         params=PARAMS,
                                         bcast_segments=segments)
            assert np.array_equal(plain, piped)

    def test_depth_knob_reaches_the_wire(self):
        """The depth knob is not decorative: streaming every broadcast
        in 8 segments must multiply the wire messages by 8 while total
        bytes moved stay identical."""
        from repro.core.overlap import run_summa_overlap

        rng = np.random.default_rng(8)
        A = rng.standard_normal((32, 32))
        B = rng.standard_normal((32, 32))
        _, bulk = run_summa_overlap(A, B, grid=(2, 2), block=8,
                                    params=PARAMS)
        _, piped = run_summa_overlap(A, B, grid=(2, 2), block=8,
                                     params=PARAMS, bcast_segments=8)
        msgs = lambda sim: sum(s.messages_sent for s in sim.stats)
        total_bytes = lambda sim: sum(s.bytes_sent for s in sim.stats)
        assert msgs(piped) == 8 * msgs(bulk)
        assert total_bytes(piped) == total_bytes(bulk)
