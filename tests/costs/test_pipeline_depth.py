"""Segment-capacity clamp on the pipelined-broadcast closed form.

The analytic optimum ``S* = sqrt(base*m*beta/(chunks*rate*alpha))``
assumes infinitely many NIC slots; a real route holds at most
``base + rate`` segments.  ``optimal_pipeline_segments`` warns past
that capacity and keeps the closed-form value (docs/cost_model.md)."""

import warnings

import pytest

from repro.costs import (
    PipelineDepthWarning,
    max_pipeline_segments,
    optimal_pipeline_segments,
)
from repro.costs.registry import hypersystolic_depth, segmented_fill_slots
from repro.errors import ModelError


def test_capacity_per_algorithm():
    # pipelined chain: base p-2, rate 1
    assert max_pipeline_segments(16, "pipelined") == 15
    # segmented: tree fill minus 2, rate 2
    assert max_pipeline_segments(16, "segmented") == \
        segmented_fill_slots(16)
    # fourcolor shares the chain's shape
    assert max_pipeline_segments(16, "fourcolor") == 15
    # hypersystolic: D-1 fill, rate 1
    assert max_pipeline_segments(16, "hypersystolic") == \
        hypersystolic_depth(16)
    # tiny routes degenerate to a single segment
    for algorithm in ("pipelined", "segmented", "fourcolor",
                      "hypersystolic"):
        assert max_pipeline_segments(2, algorithm) == 1


def test_unknown_algorithm_raises():
    with pytest.raises(ModelError):
        max_pipeline_segments(16, "binomial")


def test_small_depth_is_silent_and_unclamped():
    with warnings.catch_warnings():
        warnings.simplefilter("error", PipelineDepthWarning)
        s = optimal_pipeline_segments(1024.0, 16, 1e-5, 1e-9)
    assert s == 1


def test_overdeep_optimum_warns_but_keeps_closed_form_value():
    # Huge message, tiny latency: S* far beyond the 15-segment route.
    with pytest.warns(PipelineDepthWarning, match="segment capacity 15"):
        s = optimal_pipeline_segments(1 << 30, 16, 1e-7, 1e-9)
    assert s > 15  # the closed-form value, not the capacity
