"""Run one workload in this process and print its result as one JSON line.

Started by run.py in a fresh process per workload, with --spawn-time set to
the wall-clock time just before the process was started, so that set-up
time includes interpreter start and imports.

Untraced: set up, then measured rounds (work plus the round's checks) until
--seconds have passed, then the run-level checks, then further set-ups
(timed) for the set-up median.  Traced (--trace 1): the same, with every
round traced; the result carries the per-layer metrics instead of the
end-to-end ones, and the spans are written to --out.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

SETUP_REPEATS = 5


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    import workloads  # imports numpy, scipy and spdelab
    from spans import Tracer

    import_s = time.time() - args.spawn_time
    wl = workloads.WORKLOADS[args.workload](args.seed)
    builds = []
    t0 = time.perf_counter()
    wl.setup()
    builds.append(time.perf_counter() - t0)

    tracer = Tracer()
    if args.trace:
        tracer.install()
    rounds = []  # (work_s, check_s, items)
    failed = 0
    results = []
    start = time.perf_counter()
    while True:
        tracer.enabled = bool(args.trace)
        t0 = time.perf_counter()
        try:
            out = wl.round(len(rounds))
            error = None
        except Exception:  # a failing operation is counted, not fatal
            error = traceback.format_exc()
        t1 = time.perf_counter()
        tracer.enabled = False
        if error is None:
            results += [(f"round {len(rounds)}", c) for c in wl.check(out)]
            out = None  # so peak memory is one round's, whatever the round count
        else:
            failed += wl.items
            print(f"round {len(rounds)} failed:\n{error}", file=sys.stderr)
        t2 = time.perf_counter()
        rounds.append((t1 - t0, t2 - t1, wl.items))
        if t2 - start >= args.seconds:
            break
    if args.trace:
        tracer.uninstall()
    results += [("run", c) for c in wl.check_run()]

    for _ in range(SETUP_REPEATS - 1):
        workloads.drop_mode_cache()
        t0 = time.perf_counter()
        wl.setup()
        builds.append(time.perf_counter() - t0)

    setup_s = import_s + statistics.median(builds)
    round_s = statistics.median(w + c for w, c, _ in rounds)
    metrics = {
        "wall_s": {"value": setup_s + round_s, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        "items_per_s": {
            "value": sum(n for _, _, n in rounds) / sum(w for w, _, _ in rounds), "unit": "1/s"},
    }
    attempted = sum(n for _, _, n in rounds)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "import_s": import_s, "setup_builds_s": builds,
        "rounds": rounds,
        "checks": [{"where": w, "name": c.name, "ok": c.ok, "detail": c.detail} for w, c in results],
        "end_to_end": metrics,
    }
    if args.trace:
        layer = tracer.per_layer(len(rounds))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        report["per_layer"] = metrics
        report["spans"] = tracer.spans()

    for where, c in results:
        print(f"[{'ok' if c.ok else 'FAIL'}] {where}: {c.name}: {c.detail}")
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": all(c.ok for _, c in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
