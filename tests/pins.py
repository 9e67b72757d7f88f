"""The one pin harness: how a test holds a run to its numbers bit for bit.

A pin module is a case table, a ``record`` function and a ``PINS`` dict
of ``{pin id: digest}`` (:func:`canon`, :func:`digest`); its tests hand
:func:`check` their records.  :func:`check` and :func:`check_golden`
are the one regenerate path: under ``pytest --regen-golden`` they
rewrite the ``PINS`` dict or golden file, leaving the diff to review.
The rest compare two tiers or two engines at zero tolerance.

``python -m tests.pins OLD NEW`` lists every ``(file, pin id, digest)``
committed under each tree's ``tests/``; it exits 1 unless they agree.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np

from repro.faults import parse_fault_spec
from repro.mpi.comm import make_contexts
from repro.payloads import PhantomArray
from repro.simulator.engine import Engine, ExpandingEngine


def canon(value, sort_keys=True):
    """``value`` as nested tuples of strings, floats as ``float.hex``;
    dict items sorted by key, or in insertion order when ``sort_keys``
    is false (a span's attributes are pinned in order)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape,
                hashlib.sha256(value.tobytes()).hexdigest())
    if isinstance(value, PhantomArray):
        return ("phantom", value.shape, value.itemsize)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            (f.name, canon(getattr(value, f.name), sort_keys))
            for f in dataclasses.fields(value))
    if isinstance(value, dict):
        items = [(str(k), canon(v, sort_keys)) for k, v in value.items()]
        return tuple(sorted(items) if sort_keys else items)
    if isinstance(value, (list, tuple)):
        return tuple(canon(v, sort_keys) for v in value)
    return repr(value)


def digest(text: str, length: int = 16) -> str:
    """The first ``length`` hex digits of the sha256 of ``text``."""
    return hashlib.sha256(text.encode()).hexdigest()[:length]


def json_digest(row) -> str:
    """The full digest of ``row`` as sorted-key JSON, floats as
    ``float.hex`` (the planner pins' form)."""
    def hexed(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return {key: hexed(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [hexed(item) for item in value]
        return value
    return digest(json.dumps(hexed(row), sort_keys=True), 64)


_PINS = re.compile(r"^PINS = (\{.*?^\})$", re.M | re.S)


def check(request, records: dict) -> None:
    """Hold the digest of each of ``records`` (``{pin id: record}``) to
    the test module's ``PINS``, or write it there under
    ``--regen-golden`` (new ids go last, the rest keep their place)."""
    got = {key: digest(repr(record)) for key, record in records.items()}
    module = request.module
    if request.config.getoption("--regen-golden"):
        path = Path(module.__file__)
        text = path.read_text()
        match = _PINS.search(text)
        pins = {**ast.literal_eval(match[1]), **got}
        body = "".join(f"    {k!r}: {v!r},\n" for k, v in pins.items())
        path.write_text(f"{text[:match.start(1)]}{{\n{body}}}"
                        f"{text[match.end(1):]}")
        module.PINS.update(got)
    assert got == {key: module.PINS.get(key) for key in got}


def check_golden(request, path: Path, text: str) -> None:
    """Hold the JSON ``text`` to the golden file ``path``, or write it
    there under ``--regen-golden``."""
    if request.config.getoption("--regen-golden"):
        path.write_text(text + "\n")
    assert json.loads(text) == json.loads(path.read_text())


def bits(value):
    """A return value as something ``==`` compares bit for bit."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape, str(value.dtype), value.tobytes())
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return value


def stats(sim) -> list[tuple]:
    """Every ``RankStats`` field of every rank."""
    return [dataclasses.astuple(s) for s in sim.stats]


def assert_identical(sim, ref) -> None:
    """``sim`` reports ``ref``'s stats and return values, bit for bit."""
    assert stats(sim) == stats(ref)
    assert bits(sim.return_values) == bits(ref.return_values)


def observed(sim):
    """Everything a DES run shows — stats, return values, every
    ``TransferRecord`` in order and every span — as something ``==``
    compares exactly."""
    return (stats(sim), bits(sim.return_values),
            [dataclasses.astuple(t) for t in sim.trace],
            [(s.rank, s.name, s.start, s.end, s.attrs)
             for s in sim.iter_spans()])


def spmd(nranks, body, options=None):
    """``make_programs`` for ``body(ctx)`` on ``nranks`` fresh contexts,
    span-traced when called with ``spans=True``."""
    return lambda spans=False: [body(ctx) for ctx in make_contexts(
        nranks, options, trace=spans)]


def both(make_programs, network, *, spans=False, faults=None, **switches):
    """The same programs on the engine every user gets and with every
    message moved through the generators (``ExpandingEngine``), held
    equal in everything :func:`observed` shows; ``network`` builds the
    wire, ``faults`` is a spec run at seed 7."""
    runs = [engine(network(), faults=faults and parse_fault_spec(
        faults, seed=7), **switches).run(make_programs(spans))
        for engine in (Engine, ExpandingEngine)]
    assert observed(runs[0]) == observed(runs[1])
    assert runs[1].replay["replayed"] == runs[1].replay["stepped"] == 0
    return runs


_HEX = re.compile(r"[0-9a-f]{16}|[0-9a-f]{64}")


def pinned(root) -> set[tuple[str, str, str]]:
    """Every ``(file, pin id, digest)`` committed under ``root/tests``:
    a hex digest string keyed by its dict key, by the first item of its
    list entry or by the statement that holds it."""
    out = set()
    for path in sorted(Path(root, "tests").rglob("*.py")):
        name = path.relative_to(root).as_posix()
        for stmt in ast.parse(path.read_text()).body:
            value = getattr(stmt, "value", None)
            if isinstance(value, ast.Dict):
                items = [(k and ast.unparse(k), v)
                         for k, v in zip(value.keys, value.values)]
            elif isinstance(value, (ast.List, ast.Tuple)):
                items = [(ast.unparse(e.elts[0] if isinstance(e, ast.Tuple)
                                      else e), e) for e in value.elts]
            else:
                items = [(getattr(stmt, "name", ""), stmt)]
            out.update((name, key, node.value)
                       for key, item in items for node in ast.walk(item)
                       if isinstance(node, ast.Constant)
                       and isinstance(node.value, str)
                       and _HEX.fullmatch(node.value))
    return out


if __name__ == "__main__":
    old, new = (pinned(root) for root in sys.argv[1:3])
    for row in sorted(old ^ new):
        print("only in", sys.argv[1 if row in old else 2], *row)
    print(f"{len(old)} pins in {sys.argv[1]}, {len(new)} in {sys.argv[2]}: "
          + ("equal" if old == new else "DIFFERENT"))
    raise SystemExit(old != new)
