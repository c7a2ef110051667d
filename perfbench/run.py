"""Benchmark entry point.

    python3 perfbench/run.py --workload <second_chaos|hierarchy|constants|all>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Each workload runs in a fresh
Python process (worker.py) with the package imported from src/ and BLAS,
OpenMP and FFT threads pinned to one.  The workload's check lines are
printed, and the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  With --workload all the
workloads run one after another and the last line merges them, each metric
prefixed by its workload's name.  Exits non-zero, without a result line,
when a workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("second_chaos", "hierarchy", "constants")
TIMEOUT_S = 170
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env.update({k: "1" for k in PINNED})
    out = HERE / "out" / f"{name}-seed{seed}-trace{trace}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
           "--spawn-time", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"workload {name} did not finish in {TIMEOUT_S} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(f"{name}: {line}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise RuntimeError(f"workload {name} printed no result line") from exc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    if not (ROOT / "src" / "spdelab" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
