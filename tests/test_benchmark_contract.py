"""The benchmark's span tables name code the package still has.

`perfbench/spans.py` wraps package functions by (module, attribute) and
methods by their entry in the class `__dict__`.  A function moved or renamed
without updating those tables would break `perfbench/run.py --trace 1`.
The tables are read by compiling the file's source, so nothing is imported
from or written under `perfbench/`.
"""

import importlib
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
