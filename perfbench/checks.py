"""Correctness checks of each workload's outputs.

Every check takes plain outputs (numbers and arrays) and returns a list of
`Check` records, so the self-test can hand it perturbed outputs.  The
references are independent computations (reference.py) or properties the
method must have; none is a stored copy of an earlier output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import reference as ref

# Statistical thresholds of the second-chaos workload.
SLOPE_MIN = 0.2  # Wick difference decays at least this fast (criterion 7)
ABLATION_MAX = 0.05  # the un-renormalised difference does not decay (criterion 7)
ENDPOINT_SIGMAS = 2.0  # endpoints decrease at 2 sigma (criterion 7)
SLOPE_SIGMAS = 3.0  # the slope bound is tested at 3 standard errors of the fit
# Worst |E[u b] - C03| / stderr over 9 entries x 3 eps, 200 draws each.
# The products are skewed, so this maximum has a heavy tail: simulating it
# with exact Gaussian draws (eps treated as independent) exceeds 3 sigma in
# 9.1 % of correct rounds, 4.6 sigma in 0.3 % and 6 sigma in 0.014 %.
MEAN_ZERO_SIGMAS = 6.0


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _rel(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-300))


# -- second chaos -----------------------------------------------------------------


def slope_fit(eps, values, sigmas) -> tuple[float, float]:
    """Least-squares slope of log(value) on log(eps) and its standard error,
    propagating the per-eps standard errors as independent."""
    x = np.log(np.asarray(eps, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    c = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
    rel = np.asarray(sigmas, dtype=float) / np.asarray(values, dtype=float)
    return float(np.sum(c * y)), float(math.sqrt(np.sum((c * rel) ** 2)))


def check_second_chaos(eps, wick_values, wick_sigmas, wick_slope,
                       abl_values, abl_sigmas, abl_slope, mean_zero_sigmas) -> list[Check]:
    out = []
    finite = all(
        np.all(np.isfinite(v)) and np.all(np.asarray(v) > 0)
        for v in (wick_values, wick_sigmas, abl_values, abl_sigmas)
    )
    out.append(Check("second_chaos.finite", finite, "values and sigmas finite and positive"))
    if not finite:
        return out
    s, se = slope_fit(eps, wick_values, wick_sigmas)
    sa, sea = slope_fit(eps, abl_values, abl_sigmas)
    out.append(Check(
        "second_chaos.fit_reproduced",
        abs(s - wick_slope) < 1e-9 and abs(sa - abl_slope) < 1e-9,
        f"refit wick {s:.6f} vs {wick_slope:.6f}, ablation {sa:.6f} vs {abl_slope:.6f}",
    ))
    out.append(Check(
        "second_chaos.wick_decays",
        s + SLOPE_SIGMAS * se >= SLOPE_MIN,
        f"slope {s:.3f} +- {se:.3f}, need slope + {SLOPE_SIGMAS:g} se >= {SLOPE_MIN}",
    ))
    lo = wick_values[0] - ENDPOINT_SIGMAS * wick_sigmas[0]
    hi = wick_values[-1] + ENDPOINT_SIGMAS * wick_sigmas[-1]
    out.append(Check("second_chaos.wick_endpoints", lo > hi,
                     f"first - 2 sigma {lo:.4g} > last + 2 sigma {hi:.4g}"))
    out.append(Check("second_chaos.ablation_flat", abl_slope < ABLATION_MAX,
                     f"ablation slope {abl_slope:.3f} < {ABLATION_MAX}"))
    out.append(Check("second_chaos.wick_mean_zero", mean_zero_sigmas <= MEAN_ZERO_SIGMAS,
                     f"worst |E[u b] - C03| {mean_zero_sigmas:.2f} sigma <= {MEAN_ZERO_SIGMAS}"))
    return out


def check_c0(c0, c0_bar, N, eps, L0, h_u, h_b) -> list[Check]:
    """The Wick constant C03 (and its barred form) against the closed-form sum."""
    want = ref.c0_direct(N, eps, L0, h_u, h_b, bar=False)
    want_bar = ref.c0_direct(N, eps, L0, h_u, h_b, bar=True)
    gap = max(_rel(c0, want), _rel(c0_bar, want_bar))
    return [Check(f"second_chaos.c03_closed_form[eps={eps:g}]", gap < 1e-12,
                  f"relative gap {gap:.1e}")]


# -- hierarchy ----------------------------------------------------------------------


# Relative to the step forcing.  The converged Picard iterate reads 5e-11 to
# 3e-10; the lag can leave up to ~100 times more, since the last Picard
# increment may be anywhere below the solver tolerance.  Leaving out the
# approx-mode drift reads 3e-3.
STEP_RTOL = 1e-6
DIV_TOL = 1e-12


def check_hierarchy(which, times, u, b, u1, b1, increments, converged, tol,
                    N, eps, a, bb, L0, dt, drift=None) -> list[Check]:
    """u, b: assembled trajectory; u1, b1: level 1.  drift(n) gives the
    (u_from_u, u_from_b) tables at step n in approximate mode."""
    out = []
    step = ref.MHDStep(N, dt, which, eps, a, bb, L0)
    zu, zb = u - u1, b - b1
    worst = scale = 0.0
    for n in range(len(times) - 1):
        fu, fb = step.forcing(u[n], b[n], drift(n) if drift is not None else None)
        pu = step.advance(zu[n], fu)
        worst = max(worst, float(np.max(np.abs(zu[n + 1] - pu))))
        scale = max(scale, float(np.max(np.abs(pu - step.decay * zu[n]))))
        if which == "cont":
            pb = step.advance(zb[n], fb)
            worst = max(worst, float(np.max(np.abs(zb[n + 1] - pb))))
            scale = max(scale, float(np.max(np.abs(pb - step.decay * zb[n]))))
    eqs = "u and b" if which == "cont" else "u"
    out.append(Check(
        f"hierarchy.{which}.mhd_step",
        scale > 0 and worst <= STEP_RTOL * scale,
        f"{eqs}: residual {worst:.1e} against step forcing {scale:.1e}",
    ))
    k = ref.cube_k(N)
    div = max(
        float(np.max(np.abs(np.einsum("j...,nj...->n...", k, y)))) for y in (u, b)
    )
    out.append(Check(f"hierarchy.{which}.divergence_free", div < DIV_TOL, f"defect {div:.1e}"))
    inc = list(increments)
    contracting = all(y < x for x, y in zip(inc, inc[1:]))
    out.append(Check(
        f"hierarchy.{which}.picard",
        bool(converged) and bool(inc) and inc[-1] < tol and contracting,
        "increments " + ", ".join(f"{x:.1e}" for x in inc),
    ))
    return out


# -- constants -------------------------------------------------------------------------


SUM_RTOL = 1e-9
IMAG_RTOL = 1e-10
IDENTITY_RTOL = 1e-12
BAR_RTOL = 1e-12
LIMIT_GAP = 0.02  # criterion 4


def check_double_sums_direct(c22: dict, c13: dict, ps: ref.PairSet, t: float) -> list[Check]:
    """c22: {C, C_bar, phi, phi_bar}; c13: block -> same keys."""
    want = ref.c22_direct(ps, t)
    gap = max(_rel(c22[k], want[k]) for k in want)
    out = [Check("constants.c22_direct", gap < SUM_RTOL, f"M={ps.M}: relative gap {gap:.1e}")]
    for blk, got in c13.items():
        want = ref.c13_direct(ps, blk, t)
        gap = max(_rel(got[k], want[k]) for k in want)
        out.append(Check(f"constants.c13_direct[{blk}]", gap < SUM_RTOL,
                         f"M={ps.M}: relative gap {gap:.1e}"))
    return out


def check_double_sums(c22: dict, c13: dict) -> list[Check]:
    """Imaginary residues and the C13 identity L = C - C_bar + phi - phi_bar."""
    worst = 0.0
    for vals in [c22] + list(c13.values()):
        scale = max(float(np.max(np.abs(v))) for v in vals.values())
        worst = max(worst, max(float(np.max(np.abs(np.imag(v)))) for v in vals.values()) / scale)
    out = [Check("constants.double_sums_real", worst < IMAG_RTOL, f"imag / scale {worst:.1e}")]
    ident = 0.0
    for v in c13.values():
        res = v["L"] - (v["C"] - v["C_bar"] + v["phi"] - v["phi_bar"])
        ident = max(ident, float(np.max(np.abs(res))) / float(np.max(np.abs(v["L"]))))
    out.append(Check("constants.c13_identity", ident < IDENTITY_RTOL, f"relative residual {ident:.1e}"))
    return out


def check_single_sums(values: dict, limits: dict, bars: dict) -> list[Check]:
    """values: (family, flavor) -> lattice sum; limits: flavor -> ck2_limit;
    bars: name -> (barred sum, unbarred sum)."""
    out = []
    gaps = {fl: float(np.linalg.norm(values[("ck", fl)].real - lim) / np.linalg.norm(lim))
            for fl, lim in limits.items()}
    out.append(Check("constants.ck2_limit", all(g < LIMIT_GAP for g in gaps.values()),
                     ", ".join(f"C2{fl} gap {g:.3%}" for fl, g in gaps.items())))
    imag = max(float(np.max(np.abs(v.imag))) / float(np.max(np.abs(v))) for v in values.values())
    out.append(Check("constants.single_sums_real", imag < IMAG_RTOL, f"imag / scale {imag:.1e}"))
    bar = max(float(np.max(np.abs(vb))) / float(np.max(np.abs(v))) for vb, v in bars.values())
    out.append(Check("constants.barred_vanish", bar < BAR_RTOL, f"barred / unbarred {bar:.1e}"))
    return out
