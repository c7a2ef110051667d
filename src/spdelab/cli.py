"""Command-line driver: `spde-lab <subcommand>`.

Subcommands: constants, covariance, linear-converge, second-chaos, burgers,
hierarchy, sum-bounds.  Global flags: --config <json>, --seed <u64>,
--out <dir>, --threads <n>, --log-level <level>, --assert.  Every run
writes a JSON manifest (and CSV tables where applicable) sufficient to
reproduce it bit-identically; with --assert the exit code is nonzero when
any acceptance-style assertion fails.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import warnings
from pathlib import Path

import numpy as np

from . import constants as renorm
from .experiments import (
    Burgers1DSpec,
    ExperimentSpec,
    exp_burgers,
    exp_constants_table,
    exp_linear_convergence,
    exp_second_chaos,
    exp_sum_bound,
    wick_mean_zero_threshold,
    write_csv,
    write_manifest,
)
from .fields import NoiseSpec, mc_covariance
from .hierarchy import (
    SolverConfig,
    energy,
    level_norm_series,
    run_hierarchy,
    taylor_green,
    trajectory_to_csv,
)
from .schemes import SchemeSpec, scheme_from_config
from .torus import ModeLattice, VectorField, field_to_json


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    return json.loads(Path(path).read_text())


def _scheme_from(cfg: dict, args) -> SchemeSpec:
    if args.config and "scheme" in cfg:
        scheme = scheme_from_config(args.config)
    else:
        scheme = SchemeSpec()
    if getattr(args, "eps", None) is not None:
        scheme = scheme.with_eps(args.eps)
    return scheme.finalize()


def _checked(cast, ok, what: str):
    """An argparse type: `cast` of the text, rejected unless `ok` holds."""
    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse names the type in "invalid int value"
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "at least 1")
_sample_count = _checked(int, lambda v: v >= 2, "at least 2")  # a standard error needs two samples
# comparisons with nan are false, so nan fails both
_positive_float = _checked(float, lambda v: 0 < v < np.inf, "positive and finite")
_nonnegative_float = _checked(float, lambda v: 0 <= v < np.inf, "nonnegative and finite")


def _outdir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


class Checks:
    """Collects named pass/fail assertions for --assert runs."""

    def __init__(self):
        self.results: list[tuple[str, bool]] = []

    def add(self, name: str, ok: bool):
        self.results.append((name, bool(ok)))
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")

    @property
    def ok(self) -> bool:
        return all(ok for _, ok in self.results)


def cmd_constants(args, cfg) -> int:
    scheme = _scheme_from(cfg, args)
    out = _outdir(args)
    checks = Checks()
    eps_schedule = tuple(cfg.get("experiment", {}).get("eps_schedule", (1 / 4, 1 / 8)))
    rows = exp_constants_table(eps_schedule, scheme, t=args.t)
    write_csv(rows, out / "constants.csv")

    lattice = ModeLattice(args.N or int(np.ceil(scheme.L0 / (2 * scheme.eps))))
    fams = renorm.ck_families(args.t, scheme, lattice)
    bars = renorm.ck_families(args.t, scheme, lattice, bar=True)
    rel_gap = 0.0
    for (a, b) in (((1, "u"), (4, "b")), ((1, "b"), (4, "u")), ((2, "u"), (3, "b")), ((2, "b"), (3, "u"))):
        rel_gap = max(rel_gap, float(np.max(np.abs(fams[("C",) + a] - fams[("C",) + b]))))
    checks.add(f"estimate-124 equalities (max gap {rel_gap:.2e})", rel_gap < 1e-12)
    bar_worst = max(float(np.max(np.abs(v))) for v in bars.values())
    imag_worst = max(renorm.imag_residue(v) for v in fams.values())
    checks.add(f"barred constants vanish ({bar_worst:.2e})", bar_worst < 1e-12)
    checks.add(f"imaginary residues ({imag_worst:.2e})", imag_worst < 1e-10)
    write_manifest(
        out / "constants_manifest.json",
        {
            "command": "constants",
            "scheme": scheme.__dict__,
            "t": args.t,
            "eps_schedule": list(eps_schedule),
            "checks": checks.results,
        },
    )
    return 0 if (not args.check or checks.ok) else 1


def cmd_covariance(args, cfg) -> int:
    scheme = _scheme_from(cfg, args)
    out = _outdir(args)
    lattice = ModeLattice(args.N or 8)
    noise = NoiseSpec(seed=args.seed, dt=args.dt, T=max(args.dt, 1.0), lattice=lattice, scheme=scheme)
    modes = [(1, 0, 0), (0, 2, 0), (1, 1, 0), (2, 1, 1), (0, 0, 3), (2, 2, 2)]
    report = []
    n_ok = 0
    n_tot = 0
    for k in modes:
        for pair in ("uu", "ub", "bb"):
            for kind in ("approx", "cont", "cross"):
                est = mc_covariance(noise, k, pair, kind, samples=args.samples)
                gap = np.abs(est.estimate - est.closed_form)
                within = gap <= 3.0 * np.maximum(est.stderr, 1e-300)
                n_ok += int(np.sum(within))
                n_tot += within.size
                report.append(
                    {
                        "k": list(k), "pair": pair, "kind": kind,
                        "estimate": est.estimate, "stderr": est.stderr,
                        "closed_form": est.closed_form,
                        "entries_within_3sigma": int(np.sum(within)),
                    }
                )
    frac = n_ok / n_tot
    checks = Checks()
    checks.add(f"covariance entries within 3 sigma ({frac:.1%})", frac >= 0.95)
    write_manifest(
        out / "covariance_report.json",
        {"command": "covariance", "seed": args.seed, "samples": args.samples,
         "fraction_within": frac, "report": report},
    )
    return 0 if (not args.check or checks.ok) else 1


def cmd_linear(args, cfg) -> int:
    scheme = _scheme_from(cfg, args)
    out = _outdir(args)
    spec = ExperimentSpec(
        name="linear-converge",
        eps_schedule=tuple(cfg.get("experiment", {}).get("eps_schedule", (1 / 4, 1 / 8, 1 / 16))),
        N=args.N or 16,
        samples=args.samples,
        seed=args.seed,
        threads=args.threads,
        scheme=scheme,
    )
    fit = exp_linear_convergence(spec)
    checks = Checks()
    checks.add(f"strict 2-sigma decrease {np.round(fit.values, 5).tolist()}", fit.decreasing_pairwise())
    checks.add(f"fitted slope {fit.slope:.3f} >= 0.2", fit.slope >= 0.2)
    write_manifest(out / "linear_converge.json", {"command": "linear-converge",
                                                  "spec": spec, "fit": fit, "checks": checks.results})
    return 0 if (not args.check or checks.ok) else 1


def cmd_second_chaos(args, cfg) -> int:
    scheme = _scheme_from(cfg, args)
    out = _outdir(args)
    spec = ExperimentSpec(
        name="second-chaos",
        eps_schedule=tuple(cfg.get("experiment", {}).get("eps_schedule", (1 / 4, 1 / 8, 1 / 16))),
        N=args.N or 16,
        samples=args.samples,
        seed=args.seed,
        threads=args.threads,
        scheme=scheme,
    )
    res = exp_second_chaos(spec)
    checks = Checks()
    checks.add(f"wick slope {res.wick.slope:.3f} >= 0.2", res.wick.slope >= 0.2)
    checks.add("wick endpoints decrease (2 sigma)", res.wick.decreasing_endpoints())
    checks.add(f"ablation slope {res.ablation.slope:.3f} < 0.05", res.ablation.slope < 0.05)
    level = wick_mean_zero_threshold(len(spec.eps_schedule))
    checks.add(
        f"wick mean zero within {level:.3g} sigma family-wise "
        f"(worst {res.wick_mean_zero_sigmas:.2f})",
        res.wick_mean_zero_sigmas <= level,
    )
    write_manifest(
        out / "second_chaos.json",
        {
            "command": "second-chaos",
            "spec": spec,
            "wick": res.wick,
            "ablation": res.ablation,
            "wick_mean_zero_sigmas": res.wick_mean_zero_sigmas,
            "wick_mean_zero_threshold": level,
            "timings": {
                "eps": list(spec.eps_schedule),
                "sample_s": res.sample_s,
                "mean_zero_s": res.mean_zero_s,
                "samples_per_s": res.samples_per_s,
            },
            "checks": checks.results,
        },
    )
    return 0 if (not args.check or checks.ok) else 1


def cmd_burgers(args, cfg) -> int:
    out = _outdir(args)
    checks = Checks()
    results = {}
    for scheme_kind, lo, hi in (("one_sided", 0.8, 1.3), ("central", 1.7, 2.3)):
        res = exp_burgers(Burgers1DSpec(scheme=scheme_kind))
        results[scheme_kind] = res
        dec = all(a > b for a, b in zip(res.fit.values, res.fit.values[1:]))
        checks.add(f"{scheme_kind} sup error strictly decreasing", dec)
        checks.add(f"{scheme_kind} order {res.fit.slope:.3f} in [{lo}, {hi}]", lo <= res.fit.slope <= hi)
    write_manifest(out / "burgers.json", {"command": "burgers", "results": results,
                                          "checks": checks.results})
    return 0 if (not args.check or checks.ok) else 1


def cmd_hierarchy(args, cfg) -> int:
    scheme = _scheme_from(cfg, args)
    out = _outdir(args)
    lattice = ModeLattice(args.N or 4)
    config = SolverConfig(dt=args.dt, T=args.T, tol=1e-8)
    u0 = taylor_green(lattice, 1.0)
    b0 = taylor_green(lattice, 0.0 if args.zero_noise else 0.5)
    noise = None
    if not args.zero_noise:
        noise = NoiseSpec(seed=args.seed, dt=args.dt, T=args.T, lattice=lattice, scheme=scheme)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        run = run_hierarchy(noise, lattice, scheme, config, args.mode, u0, b0)
    y = run.assembled()
    energies = [energy(y.u[n], y.b[n]) for n in range(len(y.times))]
    div = max(VectorField(lattice, y.u[n]).divergence_defect() for n in range(len(y.times)))
    checks = Checks()
    checks.add(f"divergence-free (max defect {div:.2e})", div < 1e-12)
    checks.add("picard converged", run.report.converged)
    if args.zero_noise:
        noninc = all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))
        checks.add("energy nonincreasing", noninc)
    norms = level_norm_series(run)
    write_manifest(
        out / "hierarchy_manifest.json",
        {
            "command": "hierarchy", "mode": args.mode, "N": lattice.N,
            "dt": args.dt, "T": args.T, "seed": args.seed,
            "zero_noise": args.zero_noise,
            "scheme": scheme.__dict__, "energies": energies,
            "picard_increments": run.report.increments,
            "level_norms": norms, "checks": checks.results,
        },
    )
    (out / "final_state.json").write_text(field_to_json(VectorField(lattice, y.u[-1])))
    trajectory_to_csv(run.levels[4], lattice, out / "level4_u_trajectory.csv", "u")
    return 0 if (not args.check or checks.ok) else 1


def cmd_sum_bounds(args, cfg) -> int:
    out = _outdir(args)
    rep = exp_sum_bound()
    checks = Checks()
    checks.add(f"convolution ratio spread {rep.ratio_spread:.3f} < 2", rep.ratio_spread < 2.0)
    checks.add(f"key-estimate gap {rep.key_estimate_gap:.2e}", rep.key_estimate_gap < 1e-6)
    try:
        exp_sum_bound(l=1.0, m=2.0)
        checks.add("l+m-3 <= 0 rejected", False)
    except ValueError:
        checks.add("l+m-3 <= 0 rejected", True)
    write_manifest(out / "sum_bounds.json", {"command": "sum-bounds", "report": rep,
                                             "checks": checks.results})
    return 0 if (not args.check or checks.ok) else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file with scheme/experiment sections")
    common.add_argument("--seed", type=int, default=2024)
    common.add_argument("--out", help="output directory (default: cwd)")
    common.add_argument("--threads", type=_positive_int, default=1)
    common.add_argument("--log-level", default="warning",
                        choices=("debug", "info", "warning", "error"),
                        help="show the package's log lines at this level and above on stderr")
    common.add_argument("--assert", dest="check", action="store_true",
                        help="exit nonzero if any acceptance assertion fails")

    p = argparse.ArgumentParser(prog="spde-lab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_, **kw):
        return sub.add_parser(name, help=help_, parents=[common], **kw)

    sp = add("constants", "renormalization-constant tables and identities")
    sp.add_argument("--eps", type=_positive_float)
    sp.add_argument("--t", type=_nonnegative_float, default=1.0)
    sp.add_argument("--N", type=_positive_int)
    sp.set_defaults(fn=cmd_constants)

    sp = add("covariance", "Monte Carlo covariance vs closed forms")
    sp.add_argument("--eps", type=_positive_float)
    sp.add_argument("--N", type=_positive_int)
    sp.add_argument("--dt", type=_positive_float, default=0.05)
    sp.add_argument("--samples", type=_sample_count, default=10_000)
    sp.set_defaults(fn=cmd_covariance)

    sp = add("linear-converge", "linear-level difference decay in eps")
    sp.add_argument("--N", type=_positive_int)
    sp.add_argument("--samples", type=_sample_count, default=512)
    sp.set_defaults(fn=cmd_linear)

    sp = add("second-chaos", "Wick-square difference decay plus ablation")
    sp.add_argument("--N", type=_positive_int)
    sp.add_argument("--samples", type=_sample_count, default=512)
    sp.set_defaults(fn=cmd_second_chaos)

    sp = add("burgers", "1D deterministic convergence orders")
    sp.set_defaults(fn=cmd_burgers)

    sp = add("hierarchy", "mild-solution hierarchy run")
    sp.add_argument("--eps", type=_positive_float)
    sp.add_argument("--N", type=_positive_int)
    sp.add_argument("--dt", type=_positive_float, default=1e-3)
    sp.add_argument("--T", type=_positive_float, default=0.05)
    sp.add_argument("--mode", choices=("approx", "cont"), default="cont")
    sp.add_argument("--zero-noise", action="store_true")
    sp.set_defaults(fn=cmd_hierarchy)

    sp = add("sum-bounds", "convolution-sum and sup-bound checks")
    sp.set_defaults(fn=cmd_sum_bounds)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _load_config(args.config)
    log = logging.getLogger("spdelab")
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    old_level = log.level
    log.addHandler(handler)
    log.setLevel(args.log_level.upper())
    try:
        return args.fn(args, cfg)
    finally:
        log.removeHandler(handler)
        log.setLevel(old_level)


if __name__ == "__main__":
    sys.exit(main())
