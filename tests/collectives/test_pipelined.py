"""Conformance suite for the broadcast registry plus structural
properties of the segmented family (pipelined binary tree, 4-color
bidirectional ring, hyper-systolic ring).

The ``TestConformance*`` classes consume the ``bcast_algorithm``
fixture from ``conftest.py``, so every algorithm in
:data:`repro.collectives.COLLECTIVES` ``["bcast"]`` is swept by
registration alone — a newly registered broadcast picks up delivery,
dtype, segment-count, macro-backend, verify-cleanliness and cost
checks without touching this file.
"""

import numpy as np
import pytest

from repro.costs import bcast_time
from repro.collectives.pipelined import (
    fourcolor_schedule,
    validate_link_coloring,
)
from repro.costs import (
    PIPELINED_BCASTS,
    PipelineDepthWarning,
    hypersystolic_depth,
    hypersystolic_stride,
    optimal_pipeline_segments,
    segmented_fill_slots,
)
from repro.errors import ConfigurationError, ModelError, SimulationError
from repro.verify import VerifyOptions

NEW_ALGOS = ("segmented", "fourcolor", "hypersystolic")


# ---------------------------------------------------------------------------
# Registry-wide conformance (parametrized by registration alone)
# ---------------------------------------------------------------------------

class TestConformanceDelivery:
    @pytest.mark.parametrize("size", [2, 3, 5, 8, 13])
    def test_payload_bit_identity_all_roots(self, bcast_algorithm,
                                            bcast_harness, size):
        ref = np.arange(48, dtype=np.float64) * 0.5
        for root in (0, size // 2, size - 1):
            res = bcast_harness.run(bcast_algorithm, size, root=root,
                                    payload_factory=lambda: ref.copy())
            for value in res.return_values:
                assert value.dtype == ref.dtype
                assert np.array_equal(value, ref)

    @pytest.mark.parametrize("dtype", ["float32", "int32", "uint8"])
    def test_dtype_round_trip(self, bcast_algorithm, bcast_harness, dtype):
        ref = np.arange(40).astype(dtype)
        res = bcast_harness.run(bcast_algorithm, 6, root=1,
                                payload_factory=lambda: ref.copy())
        for value in res.return_values:
            assert value.dtype == ref.dtype
            assert np.array_equal(value, ref)

    @pytest.mark.parametrize("segments", [1, 2, 4, 7])
    def test_every_segment_count_delivers(self, bcast_algorithm,
                                          bcast_harness, segments):
        ref = np.arange(30.0)
        res = bcast_harness.run(bcast_algorithm, 9, segments=segments,
                                payload_factory=lambda: ref.copy())
        for value in res.return_values:
            assert np.array_equal(value, ref)

    def test_macro_backend_bit_identity(self, bcast_algorithm, bcast_harness):
        """The macro backend must hand every rank the same bytes the
        DES delivers (it satisfies the collective analytically but the
        payload routing is real)."""
        ref = np.arange(32.0)
        des = bcast_harness.run(bcast_algorithm, 8,
                                payload_factory=lambda: ref.copy())
        try:
            mac = bcast_harness.run(bcast_algorithm, 8, backend="macro",
                                    payload_factory=lambda: ref.copy())
        except ModelError:
            pytest.skip(f"{bcast_algorithm} has no closed form to "
                        "satisfy the macro backend")
        for a, b in zip(des.return_values, mac.return_values):
            assert np.array_equal(a, b)


class TestConformanceVerify:
    def test_verify_corpus_clean(self, bcast_algorithm, bcast_harness):
        """Structural checks + K perturbed delivery schedules: no
        unmatched sends, no leaks, bit-identical results under jitter."""
        res = bcast_harness.run(
            bcast_algorithm, 7, root=2,
            verify=VerifyOptions(schedules=2, strict=True),
        )
        assert res.verdict is not None and res.verdict.ok


class TestConformanceCost:
    @pytest.mark.parametrize("size", [2, 4, 8, 16])
    @pytest.mark.parametrize("segments", [1, 2, 4])
    def test_des_matches_registry_closed_form(self, bcast_algorithm,
                                              bcast_harness, size, segments):
        """512 elements split evenly for every tested (size, segments)
        — including the 4-color ring's ``2*segments`` split — so the
        DES makespan must reproduce the registry closed form exactly
        for every algorithm in the exact set, and fall in the
        documented band for the approximate ``binary`` entry."""
        try:
            closed = bcast_time(bcast_algorithm, 4096, size,
                                bcast_harness.params, segments=segments)
        except ModelError:
            pytest.skip(f"{bcast_algorithm} has no registry closed form")
        res = bcast_harness.run(bcast_algorithm, size, segments=segments,
                                payload_factory=lambda: np.zeros(512))
        if bcast_algorithm in bcast_harness.exact_cost:
            assert res.total_time == pytest.approx(closed)
        else:
            assert res.total_time <= closed * (1 + 1e-12)
            assert res.total_time >= 0.4 * closed


# ---------------------------------------------------------------------------
# Closed-form building blocks
# ---------------------------------------------------------------------------

class TestFillSlots:
    def test_matches_brute_force(self):
        """fill(p) is the worst arrival slot of segment 0 over all
        relative ranks w: bitlen(w) + popcount(w) - 2 sends on the
        root->w path; the O(log p) scan must agree with the literal
        maximum."""
        for p in range(2, 700):
            brute = max(w.bit_length() + bin(w).count("1")
                        for w in range(1, p + 1)) - 2
            assert segmented_fill_slots(p) == brute, p

    def test_powers_of_two(self):
        # The all-ones rank w = 2^k - 1 (a pure right spine) dominates
        # with 2(k-1) slots; at p = 2^k itself, w = p adds one more.
        assert segmented_fill_slots(2) == 1
        assert segmented_fill_slots(4) == 2
        assert segmented_fill_slots(8) == 4
        assert segmented_fill_slots(16) == 6

    def test_monotone_in_p(self):
        vals = [segmented_fill_slots(p) for p in range(2, 300)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestHypersystolicStride:
    def test_stride_minimises_depth(self):
        def depth(p, k):
            ngroups = -(-p // k)
            return max(a + min(k, p - a * k) - 1 for a in range(ngroups))

        for p in range(2, 200):
            k = hypersystolic_stride(p)
            d = hypersystolic_depth(p)
            assert d == depth(p, k)
            best = min(depth(p, kk) for kk in range(1, p + 1))
            assert d == best, p
            # Ties resolve to the smallest stride.
            assert all(depth(p, kk) > d for kk in range(1, k)), p

    def test_depth_scales_like_two_sqrt_p(self):
        for p in (16, 64, 100, 144, 196):
            d = hypersystolic_depth(p)
            assert d <= 2 * int(p ** 0.5) + 1
            assert d >= int(p ** 0.5)


class TestOptimalSegments:
    @pytest.mark.parametrize("algorithm", sorted(PIPELINED_BCASTS))
    def test_degenerate_inputs_pin_one_segment(self, algorithm):
        assert optimal_pipeline_segments(0, 16, 1e-5, 1e-9, algorithm) == 1
        assert optimal_pipeline_segments(1e6, 2, 1e-5, 1e-9, algorithm) == 1
        assert optimal_pipeline_segments(1e6, 16, 0.0, 1e-9, algorithm) == 1

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ModelError, match="not a pipelined"):
            optimal_pipeline_segments(1e6, 16, 1e-5, 1e-9, "binomial")

    def test_default_matches_legacy_pipelined_formula(self):
        with pytest.warns(PipelineDepthWarning, match="capacity 9"):
            s = optimal_pipeline_segments(1e6, 10, 1e-5, 1e-9)
        assert s == round((1e6 * 1e-9 * 8 / 1e-5) ** 0.5)


# ---------------------------------------------------------------------------
# 4-color schedule structure + mutation
# ---------------------------------------------------------------------------

class TestFourcolorSchedule:
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 7, 10])
    @pytest.mark.parametrize("segments", [1, 2, 3])
    def test_schedule_validates(self, p, segments):
        validate_link_coloring(fourcolor_schedule(p, segments))

    @pytest.mark.parametrize("p", [3, 4, 5, 8])
    def test_every_rank_receives_every_segment_once(self, p):
        segments = 3
        steps = fourcolor_schedule(p, segments)
        got = {}
        for st in steps:
            got.setdefault(st.dst, []).append((st.color // 2, st.seg))
        want = {(d, k) for d in (0, 1) for k in range(segments)}
        for dst in range(1, p):
            assert sorted(got[dst]) == sorted(want), dst

    def test_makespan_matches_closed_form_slots(self):
        p, segments = 8, 4
        steps = fourcolor_schedule(p, segments)
        assert max(st.slot for st in steps) == p - 2 + segments - 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            fourcolor_schedule(1, 2)
        with pytest.raises(ConfigurationError):
            fourcolor_schedule(4, 0)
        with pytest.raises(ConfigurationError):
            fourcolor_schedule(4, 2, root=7)

    def test_mutated_color_is_caught(self):
        """Mutation: recolor one transfer out of its direction/parity
        class — the structural check must bite."""
        steps = fourcolor_schedule(6, 2)
        bad = steps[3]._replace(color=(steps[3].color + 1) % 4)
        with pytest.raises(SimulationError, match="color"):
            validate_link_coloring(steps[:3] + [bad] + steps[4:])

    def test_seeded_link_conflict_is_caught(self):
        """Mutation: schedule a second segment on an already-busy
        directed link in the same slot."""
        steps = fourcolor_schedule(6, 2)
        with pytest.raises(SimulationError, match="conflict"):
            validate_link_coloring(steps + [steps[0]._replace(seg=99)])


# ---------------------------------------------------------------------------
# DES timing identities specific to the new family
# ---------------------------------------------------------------------------

class TestFamilyTiming:
    def test_segmented_beats_plain_binomial_for_large_messages(
            self, bcast_harness):
        """Pipelining the tree pays once m*beta dominates: 8 MB over
        16 ranks at the closed-form optimal depth."""
        from repro.payloads import PhantomArray

        big = lambda: PhantomArray((1 << 20,))
        with pytest.warns(PipelineDepthWarning, match="capacity 6"):
            s = optimal_pipeline_segments(8 << 20, 16, 1e-4, 1e-9,
                                          "segmented")
        t_seg = bcast_harness.run("segmented", 16, segments=s,
                                  payload_factory=big).total_time
        t_bin = bcast_harness.run("binomial", 16,
                                  payload_factory=big).total_time
        assert t_seg < t_bin

    def test_fourcolor_halves_chain_bandwidth(self, bcast_harness):
        """Each direction of the ring carries half the bytes, so for
        bandwidth-bound messages the 4-color multicast runs in about
        half the pipelined-chain time at equal segment counts."""
        from repro.payloads import PhantomArray

        big = lambda: PhantomArray((1 << 23,))
        t_4c = bcast_harness.run("fourcolor", 12, segments=32,
                                 payload_factory=big).total_time
        t_chain = bcast_harness.run("pipelined", 12, segments=32,
                                    payload_factory=big).total_time
        assert t_4c < 0.65 * t_chain

    def test_hypersystolic_beats_pipelined_chain_fill(self, bcast_harness):
        """Same per-segment cadence, ~2*sqrt(p) instead of p fill."""
        payload = lambda: np.zeros(4096)
        t_hs = bcast_harness.run("hypersystolic", 64, segments=4,
                                 payload_factory=payload).total_time
        t_pc = bcast_harness.run("pipelined", 64, segments=4,
                                 payload_factory=payload).total_time
        assert t_hs < t_pc

    def test_stride_one_degenerates_to_chain(self, bcast_harness):
        """Where the optimal stride is 1 (tiny p), the hyper-systolic
        schedule is exactly the pipelined chain."""
        assert hypersystolic_stride(3) in (1, 2)
        p = next(q for q in range(2, 8) if hypersystolic_stride(q) == 1)
        payload = lambda: np.zeros(512)
        t_hs = bcast_harness.run("hypersystolic", p, segments=4,
                                 payload_factory=payload).total_time
        t_pc = bcast_harness.run("pipelined", p, segments=4,
                                 payload_factory=payload).total_time
        assert t_hs == pytest.approx(t_pc)
