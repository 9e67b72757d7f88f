"""Every module of the package is reached by something that runs.

A module that only tests import is code nobody runs: it is given a
caller or deleted.  The scan reads every ``import`` / ``from ... import``
of ``repro`` in the package, the benchmarks and the examples, function
level imports included, and asks that each module other than a package's
``__init__`` / ``__main__`` is imported by a file other than itself.

The same holds, by name, for the package's top-level functions: each
must be named (called, imported, passed or looked up by its string) by
some file of the package, the benchmarks or the examples.  The few
that only tests name are listed in :data:`TEST_ONLY`, which can only
shrink.

And for options: each keyword-only parameter with a default, on a
public function or method, must be passed by keyword in some call of
the package, the benchmarks or the examples, to a callee of the same
name (the class, for ``__init__``).  A keyword passed to any other
callee, such as ``super().__init__``, a private helper or
``functools.partial``, counts for every option of that name: options
travel through ``**`` forwarding.  The few that only tests pass are listed in
:data:`TEST_ONLY_OPTIONS`, which can only shrink.

And for collectives, one level down from options: each broadcast
algorithm of :data:`repro.collectives.COLLECTIVES` must be named as a
string by a file of the package, the benchmarks or the examples other
than the layers that define, price and dispatch the collectives;
every other op has exactly one algorithm, the one ``Comm`` runs; and
each op's ``Comm`` method must be called by such a file, or be listed
in :data:`TEST_ONLY_COLLECTIVES`, which can only shrink.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
READERS = ("src", "benchmarks", "examples")


#: Top-level functions only tests name, kept as public entry points.
#: A new one fails the scan; so does one here that found a caller.
TEST_ONLY = {
    "repro.core.grouping.group_of",
    "repro.experiments.figures.headline_ratios",
    "repro.metrics.fault_report",
    "repro.models.scaling.weak_scaling",
}

#: Keyword options only tests pass, each with why it stays.  A new one
#: fails the scan; so does one here that found a caller.
TEST_ONLY_OPTIONS = {
    "repro.core.factorize_api.factorize(kernel=)":
        "the public one-call API names the factorization to run",
    "repro.costs.closed_forms.hsumma_communication_cost(B=)":
        "the paper's equations (3)-(5) with an outer block B != b",
    "repro.costs.closed_forms.hsumma_latency_factor(B=)":
        "the paper's Tables I/II latency factor with B != b",
    "repro.models.scaling.scalability_limit(model=)":
        "the paper's scalability study under another broadcast",
    "repro.models.scaling.scalability_limit(p_max=)":
        "the paper's scalability study over a wider processor range",
    "repro.network.torus.Torus3D.__init__(alpha_hop=)":
        "machine description: the per-hop latency of the torus",
    "repro.network.torus.Torus3D.__init__(intra_params=)":
        "machine description: on-node links of the torus",
    "repro.network.tree.SwitchedCluster.__init__(switch_hop_alpha=)":
        "machine description: the core crossing of the cluster",
    "repro.network.tree.SwitchedCluster.__init__(intra_params=)":
        "machine description: on-node links of the cluster",
}

#: Collective ops whose ``Comm`` method only tests call, each with why
#: it stays.  A new one fails the scan; so does one here that found a
#: caller.
TEST_ONLY_COLLECTIVES = {
    "allgather": "MPI surface of the communicator: the ring allgather",
    "barrier": "MPI surface of the communicator: the dissemination barrier",
}

#: The files that define, price or dispatch the collectives: naming an
#: algorithm or calling a ``Comm`` method there selects nothing.
COLLECTIVE_LAYERS = (PACKAGE / "collectives", PACKAGE / "costs",
                     PACKAGE / "mpi" / "comm.py")


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imported(tree: ast.AST) -> set[str]:
    """Every ``repro`` module a file names in an import statement; for
    ``from m import x`` both ``m`` and ``m.x`` (``x`` may be a
    submodule)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return {name for name in names if name.split(".")[0] == "repro"}


def test_every_module_is_imported_by_another_file():
    importers: dict[str, set[Path]] = {}
    for top in READERS:
        for path in (ROOT / top).rglob("*.py"):
            for name in _imported(ast.parse(path.read_text(), str(path))):
                importers.setdefault(name, set()).add(path)
    unreached = sorted(
        _module_name(path) for path in PACKAGE.rglob("*.py")
        if path.stem not in ("__init__", "__main__")
        and not importers.get(_module_name(path), set()) - {path})
    assert unreached == [], (
        f"modules no other file of {', '.join(READERS)} imports: "
        f"{unreached}")


def _named(tree: ast.AST) -> set[str]:
    """Every identifier a file uses: names, attributes, imported names
    and identifier-shaped strings (names bound by lookup)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def test_every_function_is_named_by_something_that_runs():
    named = set()
    for top in READERS:
        for path in (ROOT / top).rglob("*.py"):
            named |= _named(ast.parse(path.read_text(), str(path)))
    unnamed = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.parse(path.read_text(), str(path)).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name not in named):
                unnamed.add(f"{_module_name(path)}.{node.name}")
    assert unnamed == TEST_ONLY, (
        f"named by tests only: {sorted(unnamed - TEST_ONLY)}; "
        f"no longer test-only, drop from TEST_ONLY: "
        f"{sorted(TEST_ONLY - unnamed)}")


def _public_functions(tree: ast.Module):
    """``(callee, prefix, function)`` for each public top-level function
    (prefix ``""``) and each public method or ``__init__`` of a public
    top-level class (prefix ``"Class."``); ``callee`` is the name a call
    of it reads (the class, for ``__init__``)."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")):
            yield node.name, "", node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and (item.name == "__init__"
                             or not item.name.startswith("_"))):
                    callee = node.name if item.name == "__init__" else item.name
                    yield callee, f"{node.name}.", item


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def test_every_keyword_option_is_set_by_something_that_runs():
    options = {}
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        for callee, prefix, fn in _public_functions(tree):
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    options[f"{_module_name(path)}.{prefix}{fn.name}"
                            f"({arg.arg}=)"] = callee, arg.arg
    defined = {callee for callee, _ in options.values()}
    # ``(callee, keyword)``; callee ``None`` stands for any.
    passed = set()
    for top in READERS:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call):
                    callee = _callee(node)
                    callee = callee if callee in defined else None
                    passed.update((callee, kw.arg)
                                  for kw in node.keywords if kw.arg)
    unset = {option for option, (callee, kw) in options.items()
             if (callee, kw) not in passed and (None, kw) not in passed}
    assert unset == set(TEST_ONLY_OPTIONS), (
        f"set by tests only: {sorted(unset - set(TEST_ONLY_OPTIONS))}; "
        f"no longer test-only, drop from TEST_ONLY_OPTIONS: "
        f"{sorted(set(TEST_ONLY_OPTIONS) - unset)}")


def test_every_collective_algorithm_is_selected_by_something_that_runs():
    from repro.collectives import COLLECTIVES

    strings, called = set(), set()
    for top in READERS:
        for path in (ROOT / top).rglob("*.py"):
            if any(path.is_relative_to(layer) for layer in COLLECTIVE_LAYERS):
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)):
                    strings.add(node.value)
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)):
                    called.add(node.func.attr)
    # A bcast is chosen by name; any other op runs its first algorithm
    # (``Comm`` names none), so the rest are unselected.
    unselected = [f"bcast/{name}" for name in COLLECTIVES["bcast"].algorithms
                  if name not in strings]
    unselected += [f"{op}/{name}" for op, row in COLLECTIVES.items()
                   if op != "bcast" for name in list(row.algorithms)[1:]]
    assert unselected == [], f"selected by nothing that runs: {unselected}"
    uncalled = {op for op in COLLECTIVES if op not in called}
    assert uncalled == set(TEST_ONLY_COLLECTIVES), (
        f"called by tests only: "
        f"{sorted(uncalled - set(TEST_ONLY_COLLECTIVES))}; "
        f"no longer test-only, drop from TEST_ONLY_COLLECTIVES: "
        f"{sorted(set(TEST_ONLY_COLLECTIVES) - uncalled)}")


def test_the_simulator_imports_nothing_from_the_experiments():
    # The experiment drivers sit on the simulator: a collective is
    # priced by a coster of the simulator layer, and an import the other
    # way — at module level or inside a function — would be a cycle.
    upward = sorted({
        f"{_module_name(path)} imports {name}"
        for path in (PACKAGE / "simulator").rglob("*.py")
        for name in _imported(ast.parse(path.read_text(), str(path)))
        if name.split(".")[:2] == ["repro", "experiments"]})
    assert upward == [], upward
