"""The benchmark's span tables name code the package still has.

`perfbench/spans.py` wraps package functions by (module, attribute) and
methods by their entry in the class `__dict__`.  A function moved or renamed
without updating those tables would break `perfbench/run.py --trace 1`.
The tables are read by compiling the file's source, so nothing is imported
from or written under `perfbench/`.

The benchmark's workloads and self-test call package functions by name and
keyword.  Their sources are parsed the same way, and every call into an
`spdelab` name must resolve and bind its arguments, so a renamed function or
a removed keyword fails here rather than as a failed benchmark run.

The benchmark's checks read the solver's outputs (`Trajectory.times/.u/.b`,
`HierarchyRun.assembled()`, `drift_assembly(...).u_from_u`), so the
benchmark's self-test runs here too, in a subprocess with `python -B`, which
writes no bytecode under `perfbench/`.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
CALLERS = ("workloads.py", "selftest.py")


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


def _resolve(dotted: str):
    """The object named by a dotted path, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):  # a submodule not yet imported
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def _spdelab_calls(tree: ast.AST):
    """(line, dotted name, positional count or None, keywords) of every call
    of a name imported from spdelab, and (line, dotted name) of every other
    reference to one.  `quiet(fn, *args, **kwargs)` forwards to fn, so it
    counts as a call of fn.  A positional count is None where a *-splat makes
    it unknown; **-splats are skipped."""
    names = {
        a.asname or a.name: f"{node.module}.{a.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spdelab"
        for a in node.names
    }

    def dotted(node):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in names:
            return ".".join([names[node.id], *reversed(attrs)])
        return None

    calls, refs = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func, args = node.func, node.args
            if isinstance(func, ast.Name) and func.id == "quiet" and args:
                func, args = args[0], args[1:]
            name = dotted(func)
            if name is not None:
                n_pos = None if any(isinstance(a, ast.Starred) for a in args) else len(args)
                kws = [k.arg for k in node.keywords if k.arg is not None]
                calls.append((node.lineno, name, n_pos, kws))
        elif isinstance(node, ast.Attribute) and dotted(node.value) is not None:
            refs.append((node.lineno, dotted(node)))
    return calls, refs


@pytest.mark.parametrize("filename", CALLERS)
def test_benchmark_calls_bind(filename):
    path = ROOT / "perfbench" / filename
    tree = compile(path.read_text(), str(path), "exec", ast.PyCF_ONLY_AST)
    calls, refs = _spdelab_calls(tree)
    assert calls, f"{filename}: no calls into spdelab found"
    failures = []
    for line, name in refs:
        try:
            _resolve(name)
        except (AttributeError, ImportError) as exc:
            failures.append(f"{filename}:{line} {name}: {exc}")
    for line, name, n_pos, kws in calls:
        try:
            sig = inspect.signature(_resolve(name))
            sig.bind_partial(*[None] * (n_pos or 0), **dict.fromkeys(kws))
        except (AttributeError, ImportError, TypeError, ValueError) as exc:
            failures.append(f"{filename}:{line} {name}: {exc}")
    assert not failures, "\n".join(failures)


def test_benchmark_selftest_passes():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
