"""The bit-for-bit comparison script, on canned outputs and on HEAD against HEAD."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def bitcheck():
    sys.path.insert(0, str(TOOLS))  # the script imports its sibling `ab`
    try:
        spec = importlib.util.spec_from_file_location("bitcheck", TOOLS / "bitcheck.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TOOLS))
    return module


def _write(out, manifest, **files):
    out.mkdir()
    (out / "m.json").write_text(json.dumps(manifest))
    for name, text in files.items():
        (out / name).write_text(text)


def test_manifest_keys_and_files_that_differ(bitcheck, tmp_path):
    base = {"command": "x", "level_norms": {"a": [1.0, 2.0, 4.0], "b": [1.0]}, "ok": True,
            "nan": [float("nan")], "provenance": {"wall_s": 1.0}, "timings": {"s": 1.0}}
    change = {**base, "level_norms": {"a": [1.0, 2.0 + 4e-15, 4.0], "b": [1.0]}, "ok": False,
              "provenance": {"wall_s": 2.0}, "timings": {"s": 3.0}, "extra": 1}
    _write(tmp_path / "base", base, **{"a.csv": "t,x\n1,2\n", "same.csv": "1\n"})
    _write(tmp_path / "change", change, **{"a.csv": "t,x\n1,3\n", "same.csv": "1\n"})
    lines = bitcheck.compare_outputs(tmp_path / "base", tmp_path / "change")
    assert lines == [
        "a.csv: 1 of 2 lines differ",
        "m.json: extra: 0 entries against 1",
        "m.json: level_norms.a[]: 1 of 3 entries differ, largest gap 9.99e-16 of the key's "
        "largest entry",
        "m.json: ok: 1 of 1 entries differ, first True against False",
    ]
    assert bitcheck.compare_outputs(tmp_path / "base", tmp_path / "base") == []


def test_head_against_head_is_identical(bitcheck, capsys):
    root = TOOLS.parent
    if shutil.which("git") is None or subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True).returncode != 0:
        pytest.skip("needs a git checkout")
    argv = ["--base", "HEAD", "--change", "HEAD", "--runs", "constants", "hierarchy-approx"]
    assert bitcheck.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "constants: identical", "hierarchy-approx: identical"]
