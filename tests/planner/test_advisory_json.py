"""The 2.5D advisory block in ``hsumma plan --json`` (satellite of the
job-stream PR): every advisory carries ``closed_form_only`` so JSON
consumers can tell a refined estimate from the tiling fallback."""

import json

import pytest

from repro.cli import main
from repro.planner import Plan, PlanQuery, PlanService


def _plan_json(capsys, *extra):
    code = main(["plan", "--n", "2048", "-p", "64", "--refine", "none",
                 "--json", *extra])
    assert code == 0
    return json.loads(capsys.readouterr().out)


def test_plan_refuses_the_removed_macro_refinement(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["plan", "--n", "1024", "-p", "16", "--refine", "macro"])
    assert exit_info.value.code == 2
    assert "'predictor', 'none'" in capsys.readouterr().err


def test_plan_json_advisory_carries_closed_form_flag(capsys):
    payload = _plan_json(capsys)
    adv = payload["advisory"]["25d"]
    assert adv["closed_form_only"] is False
    assert adv["replication"] in (2, 4)
    # A refined advisory reports both prices side by side.
    for key in ("predicted_time", "comm_time", "compute_time", "backend",
                "closed_form_time"):
        assert key in adv


def test_untileable_layer_grid_falls_back_to_closed_form():
    # p=64 enumerates a 2.5D layout on a 4x4 layer grid; n=2050 is not
    # divisible by 4, so the candidate cannot be refined and the
    # advisory degrades to the bare closed form, flagged as such.
    result = PlanService(refine="none").plan(PlanQuery(n=2050, p=64))
    adv = result.advisory["25d"]
    assert adv["closed_form_only"] is True
    assert "closed_form_time" in adv
    assert "predicted_time" not in adv


def test_advisory_round_trips_through_dict():
    result = PlanService(refine="none").plan(PlanQuery(n=2050, p=64))
    again = Plan.from_dict(result.to_dict())
    assert again.advisory == result.advisory
    assert again.advisory["25d"]["closed_form_only"] is True


def test_refined_advisory_flag_false_at_predictor_fidelity():
    # p=32 enumerates a 2.5D layout (c=2, q=4); at predictor fidelity
    # the advisory is refined and must say so.
    result = PlanService(refine="predictor").plan(PlanQuery(n=1024, p=32))
    adv = result.advisory["25d"]
    assert adv["closed_form_only"] is False
    assert adv["backend"] == "predictor"
