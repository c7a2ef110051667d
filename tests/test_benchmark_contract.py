"""The benchmark's span tables name code the package still has.

`perfbench/spans.py` wraps package functions by (module, attribute) and
methods by their entry in the class `__dict__`.  A function moved or renamed
without updating those tables would break `perfbench/run.py --trace 1`.
The tables are read by compiling the file's source, so nothing is imported
from or written under `perfbench/`.

The benchmark's checks read the solver's outputs (`Trajectory.times/.u/.b`,
`HierarchyRun.assembled()`, `drift_assembly(...).u_from_u`), so the
benchmark's self-test runs here too, in a subprocess with `python -B`, which
writes no bytecode under `perfbench/`.
"""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _load_spans() -> types.ModuleType:
    mod = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), mod.__dict__)
    return mod


_spans = _load_spans()


@pytest.mark.parametrize("module, attr, name", _spans.FUNCTIONS, ids=[f[2] for f in _spans.FUNCTIONS])
def test_traced_function_resolves(module, attr, name):
    mod = importlib.import_module(f"spdelab.{module}")
    assert callable(getattr(mod, attr, None)), f"{name}: spdelab.{module}.{attr} is missing"


@pytest.mark.parametrize(
    "module, cls_name, meth, name", _spans.METHODS, ids=[m[3] for m in _spans.METHODS]
)
def test_traced_method_in_class_dict(module, cls_name, meth, name):
    cls = getattr(importlib.import_module(f"spdelab.{module}"), cls_name)
    assert meth in cls.__dict__, f"{name}: {cls_name}.{meth} is not defined on the class itself"


def test_benchmark_selftest_passes():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
