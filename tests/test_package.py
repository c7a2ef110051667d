"""Package layout: every module of spdelab serves the command-line driver."""

import ast
import os
import subprocess
import sys
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


def test_import_leaves_out_scipy_integrate():
    # `scipy.integrate` is most of the package's import time; only
    # `constants.ck2_limit` needs it, and imports it on its first call
    code = (
        "import sys\n"
        "import spdelab, spdelab.constants, spdelab.experiments, spdelab.hierarchy\n"
        "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate imported'\n"
        "from spdelab.schemes import SchemeSpec\n"
        "val, err = spdelab.constants.ck2_limit('u', False, SchemeSpec(eps=1.0), rtol=1e-4)\n"
        "assert val.shape == (3, 3, 3) and err >= 0.0\n"
        "assert 'scipy.integrate' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
