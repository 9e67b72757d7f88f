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
