"""Pinned simulated outputs: load, compare, regenerate.

``expected.json`` holds, per size class (``full`` / ``smoke``) and
workload, the simulated outputs of every operation at the pin seed.
Host time is what the benchmark measures; these numbers are what it
refuses to let move.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Any

HERE = pathlib.Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"


def diff(expected: Any, got: Any, rel: float, path: str = "") -> str | None:
    """First difference between two pin trees, or None when they match.

    Floats must be bit-equal when ``rel`` is 0 and within ``rel``
    relative otherwise (NaN matches NaN: an empty-stream report pins
    its undefined percentiles).  Everything else must be equal.
    """
    if isinstance(expected, dict) and isinstance(got, dict):
        if expected.keys() != got.keys():
            return (f"{path or '.'}: keys {sorted(expected)} != "
                    f"{sorted(got)}")
        for key in expected:
            found = diff(expected[key], got[key], rel, f"{path}/{key}")
            if found:
                return found
        return None
    if isinstance(expected, (list, tuple)) and isinstance(got, (list, tuple)):
        if len(expected) != len(got):
            return f"{path or '.'}: length {len(expected)} != {len(got)}"
        for i, (e, g) in enumerate(zip(expected, got)):
            found = diff(e, g, rel, f"{path}[{i}]")
            if found:
                return found
        return None
    if isinstance(expected, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if math.isnan(expected) and math.isnan(got):
            return None
        if expected == got:
            return None
        if rel and math.isclose(expected, got, rel_tol=rel, abs_tol=0.0):
            return None
        return f"{path or '.'}: {expected!r} != {got!r}"
    if expected != got:
        return f"{path or '.'}: {expected!r} != {got!r}"
    return None


def normalise(pin: Any) -> Any:
    """A pin as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(pin))


def load(path: pathlib.Path | str | None = None) -> dict[str, Any]:
    path = pathlib.Path(path) if path else EXPECTED_PATH
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save(pins: dict[str, Any], path: pathlib.Path | str | None = None) -> None:
    path = pathlib.Path(path) if path else EXPECTED_PATH
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
