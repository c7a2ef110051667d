"""Command-line driver: `spde-lab <subcommand>`.

Subcommands: constants, covariance, linear-converge, second-chaos, burgers,
hierarchy, sum-bounds.  Global flags: --config <json>, --seed <u64>,
--out <dir>, --threads <n>, --log-level <level>, --assert.

Each `cmd_*` adds its checks, writes its CSV or state files into --out and
returns its manifest name and payload.  `main` alone writes the manifest,
{"command", **payload, "checks", "provenance"}, sufficient to reproduce the
run bit-identically.  Provenance holds the package version, `git describe`
of its checkout (null without git or a checkout), the Python, numpy and
scipy versions, argv, the seed and the command's wall_s.  With --assert the
exit code is nonzero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import logging
import platform
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .constants import cutoff_saturated
from .experiments import (
    KEY_TOL,
    SPREAD_LIMIT,
    Burgers1DSpec,
    ExperimentSpec,
    constants_lattices,
    exp_burgers,
    exp_constants_table,
    exp_linear_convergence,
    exp_second_chaos,
    exp_sum_bound,
    wick_mean_zero_threshold,
    write_csv,
    write_manifest,
)
from .fields import MIN_COVARIANCE_SAMPLES, NoiseSpec, mc_covariance
from .hierarchy import (
    SolverConfig,
    _phase,
    energy,
    level_norm_series,
    run_hierarchy,
    taylor_green,
    trajectory_to_csv,
)
from .schemes import SchemeSpec, scheme_from_config
from .torus import ModeLattice, VectorField, field_to_json


def _load_config(parser: argparse.ArgumentParser, path: str | None) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # missing, unreadable, not UTF-8 or not JSON
        parser.error(f"argument --config: cannot read {path}: {exc}")
    if not isinstance(cfg, dict) or any(not isinstance(cfg.get(k, {}), dict)
                                        for k in ("scheme", "experiment")):
        parser.error(f"argument --config: {path} must be a JSON object whose "
                     "scheme and experiment sections are objects")
    return cfg


def _scheme_from(cfg: dict, args) -> SchemeSpec:
    if "scheme" in cfg:
        scheme = scheme_from_config(cfg)
    else:
        scheme = SchemeSpec()
    if getattr(args, "eps", None) is not None:
        scheme = scheme.with_eps(args.eps)
    return scheme


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
_covariance_samples = _checked(int, lambda v: v >= MIN_COVARIANCE_SAMPLES,
                               f"at least {MIN_COVARIANCE_SAMPLES}")
# comparisons with nan are false, so nan fails both
_positive_float = _checked(float, lambda v: 0 < v < np.inf, "positive and finite")
_nonnegative_float = _checked(float, lambda v: 0 <= v < np.inf, "nonnegative and finite")
_seed = _checked(int, lambda v: v >= 0, "nonnegative")


def _git_describe() -> str | None:
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=Path(__file__).parent,
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):  # no git, or not a checkout
        return None
    return done.stdout.strip()


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


def _experiment_spec(parser: argparse.ArgumentParser, args, cfg) -> ExperimentSpec:
    """The Monte Carlo spec; an eps schedule that is not strictly decreasing,
    positive and finite exits with code 2."""
    scheme = _scheme_from(cfg, args)
    try:
        return ExperimentSpec(
            name=args.command,
            eps_schedule=tuple(cfg.get("experiment", {}).get("eps_schedule",
                                                             (1 / 4, 1 / 8, 1 / 16))),
            N=args.N or 16,
            samples=args.samples,
            seed=args.seed,
            threads=args.threads,
            scheme=scheme,
        )
    except (TypeError, ValueError) as exc:
        parser.error(f"argument --config: experiment.eps_schedule: {exc}")


def _saturated(spec: ExperimentSpec) -> list[bool]:
    """Per eps of the schedule, whether the lattice holds the cutoff support."""
    return [cutoff_saturated(spec.scheme.with_eps(e), ModeLattice(spec.N)) for e in spec.eps_schedule]


def cmd_constants(args, cfg, out, checks) -> tuple[str, dict]:
    """The table at eps --eps, else over the config's or the default schedule,
    on lattices of radius --N, else saturated; the checks read its rows."""
    scheme = _scheme_from(cfg, args)
    eps_schedule = (args.eps,) if args.eps is not None else tuple(
        cfg.get("experiment", {}).get("eps_schedule", (1 / 4, 1 / 8)))
    rows = exp_constants_table(eps_schedule, scheme, t=args.t, lattice_N=args.N)
    write_csv(rows, out / "constants.csv")

    twin = {"C1,u": "C4,b", "C1,b": "C4,u", "C2,u": "C3,b", "C2,b": "C3,u"}  # estimate 124
    value = {(r["family"], r["i"], r["i1"], r["j"], r["eps"]): r["value"] for r in rows}
    gap = max((abs(v - value[(twin[fam], *key)]) for (fam, *key), v in value.items() if fam in twin),
              default=0.0)
    # the twin rows come from one sum of `ck_families`: this checks the table's signs and
    # row layout, not estimate 124 itself
    checks.add(f"estimate-124 twin rows of one shared sum (max gap {gap:.2e})", gap < 1e-12)
    bar_worst = max(r["bar_value"] for r in rows)
    imag_worst = max(r["imag_residue"] for r in rows)
    checks.add(f"barred constants vanish ({bar_worst:.2e})", bar_worst < 1e-12)
    checks.add(f"imaginary residues ({imag_worst:.2e})", imag_worst < 1e-10)
    lattices = constants_lattices(eps_schedule, scheme, args.N)
    return "constants_manifest.json", {
        "scheme": scheme.__dict__, "t": args.t, "eps_schedule": list(eps_schedule), "N": args.N,
        "lattices": lattices, "truncated": sum(not lat["saturated"] for lat in lattices),
    }


def cmd_covariance(args, cfg, out, checks) -> tuple[str, dict]:
    scheme = _scheme_from(cfg, args)
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
    checks.add(f"covariance entries within 3 sigma ({frac:.1%})", frac >= 0.95)
    return "covariance_report.json", {
        "scheme": scheme.__dict__, "N": lattice.N, "dt": args.dt, "seed": args.seed,
        "samples": args.samples, "fraction_within": frac, "report": report,
    }


def cmd_linear(args, cfg, out, checks) -> tuple[str, dict]:
    spec = args.spec
    fit = exp_linear_convergence(spec)
    checks.add(f"strict 2-sigma decrease {np.round(fit.values, 5).tolist()}", fit.decreasing_pairwise())
    checks.add(f"fitted slope {fit.slope:.3f} >= 0.2", fit.slope >= 0.2)
    return "linear_converge.json", {"spec": spec, "saturated": _saturated(spec), "fit": fit}


def cmd_second_chaos(args, cfg, out, checks) -> tuple[str, dict]:
    spec = args.spec
    res = exp_second_chaos(spec)
    checks.add(f"wick slope {res.wick.slope:.3f} >= 0.2", res.wick.slope >= 0.2)
    checks.add("wick endpoints decrease (2 sigma)", res.wick.decreasing_endpoints())
    checks.add(f"ablation slope {res.ablation.slope:.3f} < 0.05", res.ablation.slope < 0.05)
    level = wick_mean_zero_threshold(len(spec.eps_schedule))
    checks.add(
        f"wick mean zero within {level:.3g} sigma family-wise "
        f"(worst {res.wick_mean_zero_sigmas:.2f})",
        res.wick_mean_zero_sigmas <= level,
    )
    return "second_chaos.json", {
        "spec": spec,
        "saturated": _saturated(spec),
        "wick": res.wick,
        "ablation": res.ablation,
        "wick_mean_zero_sigmas": res.wick_mean_zero_sigmas,
        "wick_mean_zero_threshold": level,
        "timings": {
            "eps": list(spec.eps_schedule),
            "sample_s": res.sample_s,
            "mean_zero_s": res.mean_zero_s,
            "samples_per_s": res.samples_per_s,
            "noise_s": res.noise_s,
        },
    }


def cmd_burgers(args, cfg, out, checks) -> tuple[str, dict]:
    results = {}
    for scheme_kind, lo, hi in (("one_sided", 0.8, 1.3), ("central", 1.7, 2.3)):
        res = exp_burgers(Burgers1DSpec(scheme=scheme_kind))
        results[scheme_kind] = res
        dec = all(a > b for a, b in zip(res.fit.values, res.fit.values[1:]))
        checks.add(f"{scheme_kind} sup error strictly decreasing", dec)
        checks.add(f"{scheme_kind} order {res.fit.slope:.3f} in [{lo}, {hi}]", lo <= res.fit.slope <= hi)
    return "burgers.json", {"results": results}


def cmd_hierarchy(args, cfg, out, checks) -> tuple[str, dict]:
    scheme = _scheme_from(cfg, args)
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
    level_norms = level_norm_series(run)  # before the full cubes below exist: the largest transient
    y = run.assembled()
    u, b = y.u, y.b  # full cubes, mirrored once
    energies = [energy(u[n], b[n]) for n in range(len(y.times))]
    div = max(VectorField(lattice, f[n]).divergence_defect()
              for f in (u, b) for n in range(len(y.times)))
    checks.add(f"divergence-free (max defect {div:.2e})", div < 1e-12)
    checks.add("picard converged", run.report.converged)
    if args.zero_noise:
        noninc = all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))
        checks.add("energy nonincreasing", noninc)
    (out / "final_state.json").write_text(field_to_json(VectorField(lattice, u[-1])))
    with _phase(run.timings, "csv_s"):
        trajectory_to_csv(run.levels[4], lattice, out / "level4_u_trajectory.csv", "u")
    return "hierarchy_manifest.json", {
        "mode": args.mode, "N": lattice.N, "saturated": cutoff_saturated(scheme, lattice),
        "dt": args.dt, "T": args.T, "tol": config.tol, "use_constants": config.use_constants,
        "seed": args.seed, "zero_noise": args.zero_noise,
        "scheme": scheme.__dict__, "energies": energies,
        "picard_increments": run.report.increments,
        "level_norms": level_norms,
        "timings": run.timings,
    }


def cmd_sum_bounds(args, cfg, out, checks) -> tuple[str, dict]:
    rep = exp_sum_bound()
    checks.add(f"convolution ratio spread {rep.ratio_spread:.3f} < {SPREAD_LIMIT:g}",
               rep.ratio_spread < SPREAD_LIMIT)
    checks.add(f"key-estimate gap {rep.key_estimate_gap:.2e}", rep.key_estimate_gap < KEY_TOL)
    try:
        exp_sum_bound(l=1.0, m=2.0)
        checks.add("l+m-3 <= 0 rejected", False)
    except ValueError:
        checks.add("l+m-3 <= 0 rejected", True)
    return "sum_bounds.json", {"report": rep}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file with scheme/experiment sections")
    common.add_argument("--seed", type=_seed, default=2024)
    common.add_argument("--out", help="output directory (default: cwd)")
    common.add_argument("--threads", type=_positive_int, default=ExperimentSpec.threads)
    common.add_argument("--log-level", default="warning",
                        choices=("debug", "info", "warning", "error"),
                        help="show the package's log lines at this level and above on stderr")
    common.add_argument("--assert", dest="check", action="store_true",
                        help="exit nonzero if any acceptance assertion fails")

    p = argparse.ArgumentParser(prog="spde-lab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        sp = sub.add_parser(name, help=help_, parents=[common])
        sp.set_defaults(fn=fn)
        return sp

    sp = add("constants", cmd_constants, "renormalization-constant tables and identities")
    sp.add_argument("--eps", type=_positive_float)
    sp.add_argument("--t", type=_nonnegative_float, default=1.0)
    sp.add_argument("--N", type=_positive_int)

    sp = add("covariance", cmd_covariance, "Monte Carlo covariance vs closed forms")
    sp.add_argument("--eps", type=_positive_float)
    sp.add_argument("--N", type=_positive_int)
    sp.add_argument("--dt", type=_positive_float, default=0.05)
    sp.add_argument("--samples", type=_covariance_samples, default=10_000)

    sp = add("linear-converge", cmd_linear, "linear-level difference decay in eps")
    sp.add_argument("--N", type=_positive_int)
    sp.add_argument("--samples", type=_sample_count, default=512)

    sp = add("second-chaos", cmd_second_chaos, "Wick-square difference decay plus ablation")
    sp.add_argument("--N", type=_positive_int)
    sp.add_argument("--samples", type=_sample_count, default=512)

    add("burgers", cmd_burgers, "1D deterministic convergence orders")

    sp = add("hierarchy", cmd_hierarchy, "mild-solution hierarchy run")
    sp.add_argument("--eps", type=_positive_float)
    sp.add_argument("--N", type=_positive_int)
    sp.add_argument("--dt", type=_positive_float, default=1e-3)
    sp.add_argument("--T", type=_positive_float, default=0.05)
    sp.add_argument("--mode", choices=("approx", "cont"), default="cont")
    sp.add_argument("--zero-noise", action="store_true")

    add("sum-bounds", cmd_sum_bounds, "convolution-sum and sup-bound checks")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _load_config(parser, args.config)
    if args.command == "hierarchy":  # T a whole number of steps, checked before --out exists
        try:
            SolverConfig(dt=args.dt, T=args.T)
        except ValueError as exc:
            parser.error(f"argument --T: {exc}")
    if args.command in ("linear-converge", "second-chaos"):  # checked before --out exists
        args.spec = _experiment_spec(parser, args, cfg)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    log = logging.getLogger("spdelab")
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    old_level = log.level
    log.addHandler(handler)
    log.setLevel(args.log_level.upper())
    try:
        start = time.perf_counter()
        name, payload = args.fn(args, cfg, out, checks)
        wall_s = time.perf_counter() - start
    finally:
        log.removeHandler(handler)
        log.setLevel(old_level)
    provenance = {
        "version": __version__, "git": _git_describe(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "argv": sys.argv[1:] if argv is None else list(argv), "seed": args.seed, "wall_s": wall_s,
    }
    write_manifest(out / name, {"command": args.command, **payload, "checks": checks.results,
                                "provenance": provenance})
    return 0 if (not args.check or checks.ok) else 1


if __name__ == "__main__":
    sys.exit(main())
