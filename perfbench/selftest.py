"""Self-test of the benchmark's checks: each passes on a correct output and
fails when handed a perturbed one.

    PYTHONPATH=src:perfbench python3 perfbench/selftest.py

Runs in about 6 s: hierarchy and constants outputs come from the program at
tiny sizes (N = 4); the second-chaos statistics are synthetic numbers shaped
like a 16-sample round, since a real round takes half a minute.
"""

from __future__ import annotations

import sys
import warnings

import numpy as np

from spdelab import constants as renorm
from spdelab import hierarchy
from spdelab.fields import NoiseSpec
from spdelab.schemes import SchemeSpec
from spdelab.torus import ModeLattice, random_vector_field

import checks
import reference as ref

failures = []


def expect(label: str, results: list, name: str, ok: bool) -> None:
    """The check called `name` in results must come out `ok`."""
    got = [c for c in results if c.name == name]
    if len(got) != 1 or got[0].ok != ok:
        failures.append(label)
        status = "MISMATCH"
    else:
        status = "ok"
    detail = got[0].detail if got else "check not produced"
    print(f"[{status}] {label}: {name} {'passes' if ok else 'fails'} ({detail})")


def second_chaos() -> None:
    eps = (1 / 4, 1 / 8, 1 / 16)
    base = dict(
        eps=eps,
        wick_values=[0.0111, 0.0118, 0.0080], wick_sigmas=[0.0004, 0.0004, 0.0003],
        abl_values=[0.501, 0.520, 0.541], abl_sigmas=[0.004, 0.001, 0.001],
        mean_zero_sigmas=2.1,
    )

    def run(**change):
        out = dict(base, **change)
        out.setdefault("wick_slope", checks.slope_fit(eps, out["wick_values"], out["wick_sigmas"])[0])
        out.setdefault("abl_slope", checks.slope_fit(eps, out["abl_values"], out["abl_sigmas"])[0])
        return checks.check_second_chaos(**out)

    good = run()
    for c in good:
        expect("second_chaos correct", good, c.name, True)
    flat = [0.0111, 0.0112, 0.0110]
    expect("wick not decaying", run(wick_values=flat), "second_chaos.wick_decays", False)
    expect("wick endpoints within 2 sigma", run(wick_values=[0.0111, 0.0104, 0.0100]),
           "second_chaos.wick_endpoints", False)
    slope = checks.slope_fit(eps, base["wick_values"], base["wick_sigmas"])[0]
    expect("reported slope off by 1e-6", run(wick_slope=slope + 1e-6),
           "second_chaos.fit_reproduced", False)
    decaying = [v * e**0.3 for v, e in zip(base["abl_values"], eps)]
    expect("ablation decaying", run(abl_values=decaying), "second_chaos.ablation_flat", False)
    expect("Wick product not mean zero", run(mean_zero_sigmas=6.5),
           "second_chaos.wick_mean_zero", False)
    expect("nan value", run(wick_values=[0.0111, np.nan, 0.0080]), "second_chaos.finite", False)

    scheme = SchemeSpec(eps=0.25).finalize()
    lat = ModeLattice(4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        c0 = renorm.c0_matrix("03", scheme, lat).real
        c0b = renorm.c0_matrix("03", scheme, lat, bar=True).real
    args = (4, 0.25, scheme.L0, scheme.h_kind_u, scheme.h_kind_b)
    name = "second_chaos.c03_closed_form[eps=0.25]"
    expect("C03 closed form", checks.check_c0(c0, c0b, *args), name, True)
    expect("C03 off by 1e-9", checks.check_c0(c0 * (1 + 1e-9), c0b, *args), name, False)


def hierarchy_checks() -> None:
    N, dt, T = 4, 1e-3, 0.004
    lat = ModeLattice(N)
    s = SchemeSpec(eps=1.0, a=1.0, b=0.0, h_kind_u="smooth_bump", h_kind_b="indicator").finalize()
    cfg = hierarchy.SolverConfig(dt=dt, T=T)
    rng = np.random.default_rng(7)
    u0 = random_vector_field(lat, rng, decay=2.5, divergence_free=True).coeff
    b0 = random_vector_field(lat, rng, decay=2.5, divergence_free=True).coeff
    noise = NoiseSpec(seed=7, dt=dt, T=T, lattice=lat, scheme=s)
    k = ref.cube_k(N)
    for which in ("approx", "cont"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = hierarchy.run_hierarchy(noise, lat, s, cfg, which, u0, b0)
        y, y1 = run.assembled(), run.levels[1]

        def drift(n):
            tab = hierarchy.drift_assembly(s, float(y.times[n]), lat)
            return tab.u_from_u, tab.u_from_b

        def check(u=y.u, b=y.b, inc=run.report.increments, conv=run.report.converged,
                  use_drift=True):
            return checks.check_hierarchy(
                which, y.times, u, b, y1.u, y1.b, inc, conv, cfg.tol, N, s.eps, s.a, s.b,
                s.L0, dt, drift if which == "approx" and use_drift else None)

        good = check()
        for c in good:
            expect(f"{which} correct", good, c.name, True)
        step = f"hierarchy.{which}.mhd_step"
        # a divergence-free nudge of one mode, at 1e-6 of the field's largest coefficient
        nudged = y.u.copy()
        nudged[2, 0, N, N + 1, N] += 1e-6 * np.max(np.abs(y.u))
        expect(f"{which}: u nudged at step 2", check(u=nudged), step, False)
        if which == "cont":
            nudged = y.b.copy()
            nudged[2, 0, N, N + 1, N] += 1e-6 * np.max(np.abs(y.b))
            expect("cont: b nudged at step 2", check(b=nudged), step, False)
        else:
            expect("approx: drift left out", check(use_drift=False), step, False)
        bent = y.u.copy()
        bent[1, :, N + 1, N, N] += 1e-9 * k[:, N + 1, N, N]
        expect(f"{which}: gradient mode added", check(u=bent), f"hierarchy.{which}.divergence_free",
               False)
        pic = f"hierarchy.{which}.picard"
        expect(f"{which}: increments growing", check(inc=[1e-3, 2e-3, 1e-10]), pic, False)
        expect(f"{which}: not converged", check(conv=False), pic, False)


def constants_checks() -> None:
    t = 0.6
    s = SchemeSpec(eps=1.0, a=1.0, b=0.0, h_kind_u="smooth_bump", h_kind_b="indicator").finalize()
    lat = ModeLattice(4)
    fam = lambda f, keys: {k: getattr(f, k) for k in keys}
    four = ("C", "C_bar", "phi", "phi_bar")
    c22 = fam(renorm.c22_family(t, s, lat), four)
    c13 = {b: fam(renorm.c13_block(b, t, s, lat), four + ("L",)) for b in (1, 2, 3, 4)}
    ps = ref.PairSet(s.eps, s.a, s.b, s.L0, s.h_kind_u, s.h_kind_b)

    good = checks.check_double_sums_direct(c22, c13, ps, t)
    for c in good:
        expect("double sums correct", good, c.name, True)
    bad = dict(c22, phi=c22["phi"] * (1 + 1e-7))
    expect("c22 phi off by 1e-7", checks.check_double_sums_direct(bad, c13, ps, t),
           "constants.c22_direct", False)
    bad13 = {**c13, 3: dict(c13[3], C_bar=c13[3]["C_bar"] * (1 + 1e-7))}
    expect("c13 block 3 C_bar off by 1e-7", checks.check_double_sums_direct(c22, bad13, ps, t),
           "constants.c13_direct[3]", False)

    good = checks.check_double_sums(c22, c13)
    for c in good:
        expect("double-sum properties", good, c.name, True)
    scale = np.max(np.abs(c22["C"]))
    bad = dict(c22, C=c22["C"] + 1e-8j * scale)
    expect("imaginary part 1e-8", checks.check_double_sums(bad, c13), "constants.double_sums_real",
           False)
    bad13 = {**c13, 2: dict(c13[2], L=c13[2]["L"] * (1 + 1e-9))}
    expect("L off by 1e-9", checks.check_double_sums(c22, bad13), "constants.c13_identity", False)

    lim = {fl: renorm.ck2_limit(fl, False, SchemeSpec(eps=1 / 32, a=1.0, b=0.0, h_kind_u="indicator",
                                                      h_kind_b="indicator"))[0] for fl in "ub"}
    values = {(f, fl): lim[fl] * 1.01 + 0j for f in ("ck", "ck_tilde") for fl in "ub"}
    bars = {"ck": (np.full((3, 3, 3), 1e-20), lim["u"])}
    good = checks.check_single_sums(values, lim, bars)
    for c in good:
        expect("single sums correct", good, c.name, True)
    far = {**values, ("ck", "b"): lim["b"] * 1.05 + 0j}
    expect("C2b 5 % from its limit", checks.check_single_sums(far, lim, bars),
           "constants.ck2_limit", False)
    cplx = {**values, ("ck_tilde", "u"): values[("ck_tilde", "u")] + 1e-8j * np.max(np.abs(lim["u"]))}
    expect("imaginary part 1e-8", checks.check_single_sums(cplx, lim, bars),
           "constants.single_sums_real", False)
    expect("barred sum 1e-10 of unbarred",
           checks.check_single_sums(values, lim, {"ck": (1e-10 * lim["u"], lim["u"])}),
           "constants.barred_vanish", False)


def main() -> int:
    second_chaos()
    hierarchy_checks()
    constants_checks()
    if failures:
        print(f"{len(failures)} expectation(s) not met: {failures}")
        return 1
    print("every check passes on correct output and fails on the perturbed ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
