"""Package layout: every module of spdelab serves the command-line driver."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spdelab"


def _relative_imports(module: str):
    """Names of the sibling modules `module` imports, read without importing it."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.split(".")[0]
            else:  # from . import constants
                yield from (alias.name for alias in node.names)


def test_every_module_reachable_from_cli():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    seen, todo = set(), ["cli"]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(m for m in _relative_imports(module) if m in modules)
    assert sorted(modules - seen) == []
