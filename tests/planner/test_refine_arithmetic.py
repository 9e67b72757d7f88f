"""Default refinement is arithmetic: a cold plan steps no engine, and
the answer did not move.

``refine="predictor"`` prices every leader — segmented broadcast family
included — with the family's ``predict_*`` chain, so a cold plan builds
no rank program and constructs no macro engine (neither refinement
choice steps one).  The digests were computed at the commit before the
segmented-family leaders stopped going through ``*_step_model`` (every
float as ``float.hex``): the chain replays the collapsed engine's
numbers bit for bit, labels and advisory included.
"""

import hashlib
import json

import pytest

from repro.planner import PlanQuery, PlanService
from repro.simulator.backends import MacroBackend

from .test_fidelity import QUERIES as FIDELITY_QUERIES

BGP = "bluegene-p"
G5K = "grid5000-graphene"

#: query -> digest of the plan's reported fields.  The nine queries of
#: ``benchmarks/perf`` (six full, three smoke), the fidelity suite's
#: and the flagship point (~20 s cold at the parent commit).
PINNED = [
    (dict(n=4096, p=1024, platform=BGP),
     "9c6d80a135e6a774f49812cbffc049d010382f399f5215392b3452cdca9c5e4f"),
    (dict(n=16384, p=1024, platform=BGP),
     "63f7ade4535cc992ef20bb81faead897b7a79b84603c1a30ac7f83aab97f1713"),
    (dict(n=4096, p=256, platform=BGP),
     "28e36d36ca53a76879127b1682da220c3b00eb9cc5cac5e91abbc77994b6e23e"),
    (dict(n=2048, p=128, platform=G5K),
     "ee29ad7a8f4ee572899e15a594893d47c0250d0b6bd807f1bcbbfdb683f5b50e"),
    (dict(n=8192, p=512, platform="exascale-2012"),
     "836f448a7259c2122d6feda670adcbf9584be5c30ef8549429354d8f22937465"),
    (dict(n=8192, p=1024, platform=BGP, memory_bytes=4 * 2 ** 20),
     "ecc1c5b1005bab113d66389f5c16d2ec704e36f10c690354088eadba9162b6ab"),
    (dict(n=1024, p=64, platform=BGP),
     "82d69f875b0ea5df15f86900ba3a6740e29d078c4ca0c85394e415f7365c04fa"),
    (dict(n=512, p=16, platform=G5K),
     "5f65c6cd8ca103ed87d684458bd5f2d0fc091e88842fc5b44c3503f480611ccd"),
    (dict(n=1024, p=64, platform=BGP, memory_bytes=2 ** 20),
     "b574e06918977a1e6faaf9af1fc4abd6f8009dad58588e40bc0852ea4eef3bf6"),
    (dict(n=2048, p=64),
     "1ccfc030b33724e9fd73cbecc01633fc5679735a7599c6dfb022bfadc17748d1"),
    (dict(n=2048, p=64, platform=G5K),
     "9e59e741794ab89fc5efadea68ba9624b31ef1d1a948f1de22efe36a366e2961"),
    (dict(n=4096, p=1024),
     "fc7b655cffa403293f28cf1669d1248beec7705c66e2691d6ff0d031db79d91c"),
    (dict(n=16384, p=16384, platform=BGP),
     "5d45e834b1e2acb0b0176eb97a107e7e98fc45fdd1e2cdc50b8d3a64913274b5"),
]

FIELDS = ("algorithm", "params", "backend", "candidates", "predicted_time",
          "comm_time", "compute_time", "closed_form_time", "lower_bound_gap",
          "advisory")


def _hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(item) for item in value]
    return value


def _digest(plan):
    row = [_hexed(getattr(plan, name)) for name in FIELDS]
    return hashlib.sha256(
        json.dumps(row, sort_keys=True).encode()).hexdigest()


@pytest.fixture
def macro_runs(monkeypatch):
    """Every macro-engine execution, as a list of the engines."""
    runs = []
    original = MacroBackend.run_with_factory

    def counting(self, make_programs):
        runs.append(self)
        return original(self, make_programs)

    monkeypatch.setattr(MacroBackend, "run_with_factory", counting)
    return runs


def test_the_fidelity_suite_is_pinned_here():
    pinned = [PlanQuery(**query) for query, _ in PINNED]
    assert all(query in pinned for query in FIDELITY_QUERIES)


@pytest.mark.parametrize(
    "query,digest", PINNED,
    ids=["-".join(f"{key}={value}" for key, value in query.items())
         for query, _ in PINNED])
def test_cold_plan_steps_nothing_and_did_not_move(query, digest, macro_runs):
    plan = PlanService().plan(PlanQuery(**query))
    assert macro_runs == []
    assert _digest(plan) == digest
