"""A/B benchmark of a base revision against the working tree.

    python3 tools/ab.py --base <rev> --workload <name> --pairs <n> --seconds <s> [--seed <n>]
                        [--change-label <rev>]

Exports <rev> with `git archive` into a temporary directory and runs
`perfbench/run.py --workload <name>` on it and on this checkout, pair after
pair, alternating which side runs first.  Pair i uses seed --seed + i on both
sides.  Prints, per end-to-end metric of BENCHMARK.json, both medians, the
base's interquartile range, the relative change, the pairs the change won and
a verdict against the metric's bound, and appends one record per run and
metric to BENCH_<name>.json at the root of this checkout: revision, side,
seed, nproc, metric, value and unit.  The change side's revision is
--change-label when given (say, the commit the working tree becomes), else
`git describe --always --dirty`.

Verdicts, with the change measured in the metric's "worse" direction:
  unresolved    the base's IQR exceeds the bound, and not every change run
                reads better than every base run;
  worse         the change is worse than the bound;
  better        the change wins at least 9 of 10 pairs and improves by more
                than the base's IQR;
  within bound  otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(records: list[dict], metrics: list[dict]) -> list[dict]:
    """One row per metric of `metrics` (BENCHMARK.json's `end_to_end`
    entries) that `records` hold on both sides."""
    rows = []
    for m in metrics:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        side = {s: {r["seed"]: r["value"] for r in records
                    if r["metric"] == name and r["side"] == s} for s in ("base", "change")}
        if not side["base"] or not side["change"]:
            continue
        base, change = list(side["base"].values()), list(side["change"].values())
        q1, base_med, q3 = quartiles(base)
        change_med = statistics.median(change)
        change_by = (change_med - base_med) / abs(base_med)
        sign = 1.0 if lower else -1.0
        worse_by = sign * change_by
        iqr = (q3 - q1) / abs(base_med)
        seeds = side["base"].keys() & side["change"].keys()
        wins = sum(sign * (side["change"][s] - side["base"][s]) < 0 for s in seeds)
        separated = max(change) < min(base) if lower else min(change) > max(base)
        if iqr > bound and not separated:
            verdict = "unresolved"
        elif worse_by > bound:
            verdict = "worse"
        elif wins >= 0.9 * len(seeds) and -worse_by > iqr:
            verdict = "better"
        else:
            verdict = "within bound"
        rows.append({
            "metric": name, "unit": m["unit"], "base_median": base_med,
            "change_median": change_med, "base_iqr": q3 - q1, "change": change_by,
            "wins": wins, "pairs": len(seeds), "bound": bound, "verdict": verdict,
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'metric':<14}{'base':>12}{'change':>12}{'base IQR':>12}{'delta':>9}"
             f"{'wins':>8}  verdict (bound)"]
    for r in rows:
        lines.append(
            f"{r['metric']:<14}{r['base_median']:>12.4g}{r['change_median']:>12.4g}"
            f"{r['base_iqr']:>12.3g}{r['change']:>+9.1%}{r['wins']:>5}/{r['pairs']:<2}"
            f"  {r['verdict']} ({r['bound']:.0%})")
    return "\n".join(lines)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench/run.py in {tree} exited with code {done.returncode}:\n"
                           f"{done.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--change-label",
                    help="revision recorded for the change side (default: git describe --always --dirty)")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        ap.error("need --pairs >= 1, --seconds > 0 and --seed >= 0")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    revision = {"base": _git("rev-parse", "--short", args.base),
                "change": args.change_label or _git("describe", "--always", "--dirty")}
    out = ROOT / f"BENCH_{args.workload}.json"
    history = json.loads(out.read_text()) if out.exists() else []
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": Path(tmp), "change": ROOT}
        _export(args.base, trees["base"])
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                res = _run(trees[side], args.workload, seed, args.seconds)
                print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: correct {res['correct']}, "
                      f"failed {res['failed']}/{res['attempted']}", flush=True)
                records += [{"revision": revision[side], "side": side, "seed": seed,
                             "nproc": os.cpu_count(), "metric": name, "value": m["value"],
                             "unit": m["unit"]} for name, m in res["metrics"].items()]
            out.write_text("[\n" + ",\n".join(json.dumps(r) for r in history + records) + "\n]\n")
    print(f"{args.workload}: {revision['change']} against {revision['base']}, "
          f"{args.pairs} pairs of {args.seconds:g} s")
    print(format_rows(summarize(records, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
