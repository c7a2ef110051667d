"""Bit-for-bit comparison of `spde-lab` outputs between two revisions.

    python3 tools/bitcheck.py --base <rev> [--change <rev>] [--runs <name> ...]

Exports <rev> with `git archive` into a temporary directory and runs each
`spde-lab` subcommand of RUNS there and on this checkout (or on a `git
archive` of --change), each side with its own `src` on PYTHONPATH.  Prints,
per run, every manifest key that differs, ignoring `provenance` and
`timings` (list indices are folded, so `level_norms.level2_u[]` stands for
all its entries), with the largest gap relative to the key's largest entry,
and every other output file that differs.  Exits 1 when anything differs,
else 0.  Timings are not compared: two runs of one tree differ there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from ab import ROOT, _export

# each subcommand at the arguments its tests in tests/test_cli.py run it with
RUNS = {
    "constants": ["constants", "--eps", "1.0", "--N", "4"],
    "covariance": ["covariance", "--eps", "0.5", "--N", "2", "--samples", "400", "--seed", "5"],
    "linear-converge": ["linear-converge", "--N", "6", "--samples", "24", "--seed", "11"],
    "second-chaos": ["second-chaos", "--N", "4", "--samples", "4", "--seed", "11"],
    "burgers": ["burgers"],
    "hierarchy-zero-noise": ["hierarchy", "--zero-noise", "--N", "3", "--T", "0.01"],
    "hierarchy-approx": ["hierarchy", "--N", "3", "--T", "0.01", "--eps", "1.0", "--mode",
                         "approx", "--seed", "3"],
    "sum-bounds": ["sum-bounds"],
}
IGNORED = ("provenance", "timings")


def run(tree: Path, argv: list[str], out: Path) -> None:
    """`spde-lab <argv> --out <out>` on the source of `tree`."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run([sys.executable, "-m", "spdelab.cli", *argv, "--out", str(out)],
                          cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"spde-lab {' '.join(argv)} in {tree} exited with code "
                           f"{done.returncode}:\n{done.stderr}")


def _leaves(doc, path: str = ""):
    """(key path, value) of every leaf, list indices folded to []."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaves(v, f"{path}.{k}" if path else str(k))
    elif isinstance(doc, list):
        for v in doc:
            yield from _leaves(v, f"{path}[]")
    else:
        yield path, doc


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _same(x, y) -> bool:
    """Equal, or NaN on both sides."""
    return x == y or (_number(x) and _number(y) and math.isnan(x) and math.isnan(y))


def compare_manifests(base: dict, change: dict) -> list[str]:
    """One line per key (ignoring IGNORED at the top level) whose values differ."""
    sides = [{} for _ in range(2)]
    for side, doc in zip(sides, (base, change)):
        for key, value in _leaves({k: v for k, v in doc.items() if k not in IGNORED}):
            side.setdefault(key, []).append(value)
    lines = []
    for key in sorted(sides[0].keys() | sides[1].keys()):
        a, b = sides[0].get(key), sides[1].get(key)
        if a is None or b is None or len(a) != len(b):
            lines.append(f"{key}: {len(a or [])} entries against {len(b or [])}")
            continue
        moved = [(x, y) for x, y in zip(a, b) if not _same(x, y)]
        if not moved:
            continue
        if all(_number(x) and _number(y) for x, y in moved):
            top = max(max(abs(x), abs(y)) for x, y in zip(a, b) if _number(x) and _number(y))
            gap = max(abs(x - y) for x, y in moved) / (top or 1.0)
            lines.append(f"{key}: {len(moved)} of {len(a)} entries differ, "
                         f"largest gap {gap:.2e} of the key's largest entry")
        else:
            lines.append(f"{key}: {len(moved)} of {len(a)} entries differ, "
                         f"first {moved[0][0]!r} against {moved[0][1]!r}")
    return lines


def compare_outputs(base: Path, change: Path) -> list[str]:
    """One line per differing manifest key or output file of two --out directories."""
    lines = []
    names = sorted({p.name for p in base.iterdir()} | {p.name for p in change.iterdir()})
    for name in names:
        a, b = base / name, change / name
        if not (a.exists() and b.exists()):
            lines.append(f"{name}: only in {'base' if a.exists() else 'change'}")
            continue
        da, db = a.read_bytes(), b.read_bytes()
        if da == db:
            continue
        if name.endswith(".json"):
            ja, jb = json.loads(da), json.loads(db)
            if isinstance(ja, dict) and "provenance" in ja:
                lines += [f"{name}: {line}" for line in compare_manifests(ja, jb)]
                continue
        la, lb = da.splitlines(), db.splitlines()
        differ = sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))
        lines.append(f"{name}: {differ} of {max(len(la), len(lb))} lines differ")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--change", help="git revision of the change side (default: this checkout)")
    ap.add_argument("--runs", nargs="+", choices=sorted(RUNS), default=list(RUNS),
                    help="runs to compare (default: all)")
    args = ap.parse_args(argv)
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": Path(tmp) / "base", "change": ROOT}
        _export(args.base, trees["base"])
        if args.change:
            trees["change"] = Path(tmp) / "change"
            _export(args.change, trees["change"])
        for name in args.runs:
            outs = {side: Path(tmp) / "out" / side / name for side in trees}
            for side, tree in trees.items():
                run(tree, RUNS[name], outs[side])
            lines = compare_outputs(outs["base"], outs["change"])
            differs |= bool(lines)
            print(f"{name}: {'identical' if not lines else 'differs'}", flush=True)
            for line in lines:
                print(f"  {line}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
