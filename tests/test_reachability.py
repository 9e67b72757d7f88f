"""Every module of the package is reached by something that runs.

A module that only tests import is code nobody runs: it is given a
caller or deleted.  The scan reads every ``import`` / ``from ... import``
of ``repro`` in the package, the benchmarks and the examples, function
level imports included, and asks that each module other than a package's
``__init__`` / ``__main__`` is imported by a file other than itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
READERS = ("src", "benchmarks", "examples")


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
