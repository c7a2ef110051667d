"""Renormalization constant families of the drift correction.

Everything here is an explicit lattice sum over the truncated frequency set
(single sums for the second-chaos families, double sums for the
fourth-chaos ones) or, for the eps -> 0 limits, an integral over the cutoff
support evaluated by spherical quadrature.  All sums run over negation-
closed mode sets, so the values are real up to rounding; functions return
the complex sums and `imag_residue` reports the leftover.

Family conventions (free indices in brackets):

* c0_matrix      [i, j]        -- stationary one-point moments; 01 = uu,
                                  02 = bb, 03 = ub; barred uses f == 1.
* ck             [i, i1, j]    -- second-chaos constants k in 1..4, flavor
                                  u/b, wired P^(i i1) P^(i2 i3) P^(j i3)
                                  with the derivative factor summed over i2.
* ck_tilde       [i, i2, j]    -- same kernels, wired P^(i i1) P^(i1 i3)
                                  P^(j i3) with the derivative index i2 free.
* ck_families    both above   -- all 16 families from one sum per
                                  (wiring, h-product), signed from the table.
* ck_brackets    [.., i, i1, j] -- drift brackets K_a - K_b, K_k = ck +
                                  ck_tilde: one mode sum per wiring.
* ck2_limit      same shapes   -- quadrature value of the eps -> 0 limit of
                                  the k = 2 families.
* c22_family     [i, j]        -- double-sum family (C, Cbar, phi(t),
                                  phibar(t)); vanishes when h_u == h_b.
* c13_block      [i0, j0]      -- one of the four implemented resonant
                                  blocks, plus the combination L that ties
                                  them together identically.
* c34            [i1, i2, j0, j1] -- single-sum resonant-pair constant.

The two double-sum families share one pair enumeration, `_pair_blocks`,
and keep only their kernels.  It takes the rows k1 in blocks of about
`_PAIR_BLOCK` candidate pairs, forms a block's family weights as one
(rows, M) array and keeps the live pairs: nonzero weight, k12 = k1 + k2 != 0
and k12 alive under `schemes.killed_mode_rule`, the one rule for killed
modes.  What depends on k12 alone (|k12|^2, the rate lam12, the Leray symbol
P12 and k12 g(eps k12)) is read from one `SumLattice` table over the sum
lattice [-2K, 2K]^3, K = max |k_j| of the mode set.  The table is built at
the first pair of nonzero weight and kept with the `ModeSet`, so it leaves
with the mode cache.  The budget check runs first and bounds it: a
budget of 1e7 pairs allows M <= 3162 modes, a ball of radius about 9, so
K <= 9 and at most 37^3 sites.  Each kernel builds its per-pair tensor once
and contracts it with its C and phi weights in one (2, m) @ (m, 9) product.
Summing by blocks instead of by rows moves the values at rounding level.

Dropping killed pairs changes no value: k1 + k2 leaves the box
max_j |eps x_j| <= L0 only when eps|k1| + eps|k2| > L0, so one of k1, k2
lies beyond L0/2 (the mode set keeps |eps k| <= L0/2 + 1e-12).  Every cutoff
h is 0 there, and each family weight has a cutoff factor at k1 and one at
k2, so the pair already has weight 0 in both the approximate and the barred
branch.  This holds for any blocking of the rows: the filter acts per pair.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad_vec

from .schemes import SchemeSpec, eval_f, eval_f_tilde, eval_g, eval_h, killed_mode_rule
from .torus import ModeLattice, chi_profile, dyadic_jmax, rho_profile

TWO_PI_M3 = (2.0 * np.pi) ** -3
TWO_PI_M6 = (2.0 * np.pi) ** -6
_N_THETA = 24  # polar nodes of `ck2_limit`'s coarser angular rule; the finer has 8 more


class BudgetError(RuntimeError):
    """Double-sum pair count exceeds the configured budget."""


class QuadratureError(RuntimeError):
    """Quadrature error estimate above the requested tolerance."""


def imag_residue(arr: np.ndarray) -> float:
    return float(np.max(np.abs(np.imag(arr))))


def cutoff_saturated(scheme: SchemeSpec, lattice: ModeLattice) -> bool:
    """True when the lattice contains the whole cutoff support |eps k| <= L0/2."""
    return lattice.N >= scheme.L0 / (2.0 * scheme.eps)


def _warn_if_truncated(scheme: SchemeSpec, lattice: ModeLattice) -> bool:
    ok = cutoff_saturated(scheme, lattice)
    if not ok:
        warnings.warn(
            f"lattice N={lattice.N} truncates the cutoff support "
            f"|k| <= {scheme.L0 / (2 * scheme.eps):.1f}; sums are truncated",
            RuntimeWarning,
            stacklevel=3,
        )
    return ok


@dataclass
class ModeSet:
    """Active nonzero modes (inside the cutoff support) and their geometry."""

    k: np.ndarray  # (M, 3) float
    ksq: np.ndarray  # (M,)
    proj: np.ndarray  # (M, 3, 3)
    f: np.ndarray  # f(eps k), (M,)
    hu: np.ndarray
    hb: np.ndarray
    ga: np.ndarray  # (M, 3): k^c g(eps k^c)
    pair_weight: np.ndarray  # (M,): sum_{|i-j|<=1} theta_i theta_j at k
    sum_lattice: "SumLattice | None" = field(default=None, repr=False)  # double sums' k12 table


_MODE_CACHE: dict = {}


def active_modes(scheme: SchemeSpec, lattice: ModeLattice) -> ModeSet:
    key = (scheme, lattice.N)
    if key in _MODE_CACHE:
        return _MODE_CACHE[key]
    ms = _build_active_modes(scheme, lattice)
    if len(_MODE_CACHE) > 8:
        _MODE_CACHE.clear()
    _MODE_CACHE[key] = ms
    return ms


def _build_active_modes(scheme: SchemeSpec, lattice: ModeLattice) -> ModeSet:
    _warn_if_truncated(scheme, lattice)
    modes = lattice.mode_table().astype(np.float64)
    r = np.sqrt(np.sum(modes**2, axis=1))
    keep = (r > 0) & (scheme.eps * r <= scheme.L0 / 2.0 + 1e-12)
    k = modes[keep]
    ksq = np.sum(k**2, axis=1)
    kk = k / np.sqrt(ksq)[:, None]
    proj = np.eye(3)[None, :, :] - kk[:, :, None] * kk[:, None, :]
    f = eval_f(scheme, scheme.eps * k)
    hu = eval_h(scheme, "u", scheme.eps * k)
    hb = eval_h(scheme, "b", scheme.eps * k)
    ga = k * eval_g(scheme, scheme.eps * k)
    return ModeSet(k, ksq, proj, f, hu, hb, ga, _radial_pair_weight(ksq, lattice.N))


def _radial_pair_weight(ksq: np.ndarray, N: int) -> np.ndarray:
    """sum_{|i-j|<=1} theta_i theta_j at modes of squared length ksq, with
    the blocks theta_-1 = chi, theta_j = rho(2^-j .) of the dyadic partition
    on a lattice of radius N.  The blocks are radial, so they are evaluated
    once per distinct |k|^2 and gathered; the values equal the products of
    the partition's grids bit for bit."""
    sq, back = np.unique(ksq, return_inverse=True)
    r = np.sqrt(sq)
    ws = [chi_profile(r)] + [rho_profile(r / 2.0**j) for j in range(dyadic_jmax(N) + 1)]
    out = np.zeros_like(r)
    for j, w in enumerate(ws):
        for l in (j - 1, j, j + 1):
            if 0 <= l < len(ws):
                out += w * ws[l]
    return out[back]


def _exprel(z: np.ndarray) -> np.ndarray:
    """(exp(z) - 1)/z with the removable value 1 at z = 0."""
    z = np.asarray(z, dtype=np.float64)
    small = np.abs(z) < 1e-12
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + z / 2.0, np.expm1(safe) / safe)


def _heat_integral(lam: np.ndarray, t: float) -> np.ndarray:
    """int_0^t exp(-2 lam (t-s)) ds = (1 - exp(-2 lam t)) / (2 lam)."""
    lam = np.asarray(lam, dtype=np.float64)
    ok = lam > 0
    return np.where(ok, -np.expm1(-2.0 * np.where(ok, lam, 1.0) * t) / np.where(ok, 2.0 * lam, 1.0), t)


def _lagged_integral(A: np.ndarray, B: np.ndarray, t: float) -> np.ndarray:
    """int_0^t exp(-2A(t-s) - Bs) ds = exp(-2At) t exprel((2A - B) t)."""
    return np.exp(-2.0 * A * t) * t * _exprel((2.0 * A - B) * t)


# -- one-point (C0) family -----------------------------------------------------


def c0_matrix(
    which: str,
    scheme: SchemeSpec,
    lattice: ModeLattice,
    bar: bool = False,
    identified: bool = True,
) -> np.ndarray:
    """Stationary E[X^i X^j] at a point: (2pi)^-3 sum_k h h' / (2|k|^2 f) P(k)."""
    ms = active_modes(scheme, lattice)
    hh = {"01": ms.hu**2, "02": ms.hb**2, "03": ms.hu * ms.hb}[which]
    if which == "03" and not identified:
        return np.zeros((3, 3))
    f = np.ones_like(ms.f) if bar else ms.f
    w = hh / (2.0 * ms.ksq * f)
    return TWO_PI_M3 * np.einsum("m,mij->ij", w, ms.proj)


# -- second-chaos (Ck / Ck-tilde) families --------------------------------------

# sign and h-combination per (kind, index, flavor), kind "C" (`ck`) or "tC"
# (`ck_tilde`); the equalities of the untilded families (C1u = C4b etc.) are
# reflected by identical table rows.
_CK_TABLE = {
    ("C", 1, "u"): (+1.0, "uu"),
    ("C", 1, "b"): (-1.0, "ub"),
    ("C", 2, "u"): (-1.0, "bb"),
    ("C", 2, "b"): (+1.0, "ub"),
    ("C", 3, "u"): (+1.0, "ub"),
    ("C", 3, "b"): (-1.0, "bb"),
    ("C", 4, "u"): (-1.0, "ub"),
    ("C", 4, "b"): (+1.0, "uu"),
    ("tC", 1, "u"): (+1.0, "uu"),
    ("tC", 1, "b"): (-1.0, "ub"),
    ("tC", 2, "u"): (+1.0, "bb"),
    ("tC", 2, "b"): (-1.0, "ub"),
    ("tC", 3, "u"): (+1.0, "ub"),
    ("tC", 3, "b"): (-1.0, "bb"),
    ("tC", 4, "u"): (+1.0, "ub"),
    ("tC", 4, "b"): (-1.0, "uu"),
}


# (a, b) of the brackets K_a - K_b, K_k = C_k + tilde(C_k), that carry the
# drift terms: the u-equation's, then the b-equation's
CK_BRACKETS = ((1, 2), (3, 4))


def _hh(hu: np.ndarray, hb: np.ndarray, combo: str) -> np.ndarray:
    x, y = {"uu": (hu, hu), "ub": (hu, hb), "bb": (hb, hb)}[combo]
    return x * y


def _ck_weights(ms: ModeSet, t, bar: bool):
    """Per-mode weights, shape (M,) at a scalar t and (T, M) at T times."""
    f = np.ones_like(ms.f) if bar else ms.f
    lam = ms.ksq * f
    if np.ndim(t):
        t = np.asarray(t, dtype=np.float64)[:, None]
    w = _heat_integral(lam, t) / (2.0 * lam)
    gfac = (1j * ms.k) if bar else ms.ga
    return w, gfac


def _wired_sum(proj: np.ndarray, weight: np.ndarray, gfac: np.ndarray, tilde: bool) -> np.ndarray:
    """sum_m weight[..., m] W_m over lattice modes or quadrature directions m:
    W_m = P^(i i1) (gfac . P)^j untilded, and P^(ij) gfac^(i2) tilde
    (P^(i i1) P^(i1 i3) P^(j i3) is P^(ij), since a Leray symbol is symmetric
    and idempotent)."""
    if tilde:
        return np.einsum("...m,maj,mc->...acj", weight, proj, gfac)
    gp = np.einsum("mc,mcj->mj", gfac, proj)
    return np.einsum("...m,mab,mj->...abj", weight, proj, gp)


def _family(kind: str, index: int, flavor: str, t, scheme, lattice, bar: bool) -> np.ndarray:
    ms = active_modes(scheme, lattice)
    sign, combo = _CK_TABLE[(kind, index, flavor)]
    w, gfac = _ck_weights(ms, t, bar)
    return sign * 0.5 * TWO_PI_M3 * _wired_sum(ms.proj, w * _hh(ms.hu, ms.hb, combo), gfac, kind == "tC")


def ck(
    index: int, flavor: str, t, scheme: SchemeSpec, lattice: ModeLattice, bar: bool = False
) -> np.ndarray:
    """C_{k,u/b}(t) with free indices [i, i1, j]; barred versions are the
    odd sums that vanish identically.

    A 1-D array of T times gives shape (T, 3, 3, 3): the time axis rides on
    the same sum over modes, and each row equals the scalar-t result bit
    for bit.
    """
    return _family("C", index, flavor, t, scheme, lattice, bar)


def ck_tilde(
    index: int, flavor: str, t, scheme: SchemeSpec, lattice: ModeLattice, bar: bool = False
) -> np.ndarray:
    """tilde C_{k,u/b}(t) with free indices [i, i2, j]; the derivative index
    stays free.  Takes a 1-D array of times as `ck` does."""
    return _family("tC", index, flavor, t, scheme, lattice, bar)


def ck_families(t, scheme: SchemeSpec, lattice: ModeLattice, bar: bool = False) -> dict:
    """All 16 second-chaos families {(kind, k, flavor): array}, kind "C"
    (`ck`) or "tC" (`ck_tilde`), plain or barred.  Each distinct (wiring,
    h-product) of the table takes one mode sum, six in all, and each family
    is that sum signed from the table: every value equals the `ck` or
    `ck_tilde` call bit for bit."""
    ms = active_modes(scheme, lattice)
    w, gfac = _ck_weights(ms, t, bar)
    sums = {}
    out = {}
    for (kind, k, flavor), (sign, combo) in _CK_TABLE.items():
        if (kind, combo) not in sums:
            sums[(kind, combo)] = _wired_sum(ms.proj, w * _hh(ms.hu, ms.hb, combo), gfac, kind == "tC")
        out[(kind, k, flavor)] = sign * 0.5 * TWO_PI_M3 * sums[(kind, combo)]
    return out


def ck_bracket_terms(a: int, b: int, flavor: str) -> list:
    """The four signed family instances of K_a - K_b at one flavor, read from
    the table: (kind, k, sign, h-product) with kind "C" or "tC" and sign the
    bracket's sign times the table's."""
    return [
        (kind, k, s * _CK_TABLE[(kind, k, flavor)][0], _CK_TABLE[(kind, k, flavor)][1])
        for k, s in ((a, 1.0), (b, -1.0))
        for kind in ("C", "tC")
    ]


def ck_brackets(t, scheme: SchemeSpec, lattice: ModeLattice) -> np.ndarray:
    """Real part of K_a - K_b, K_k = C_k + tilde(C_k), indexed [bracket (a, b)
    of `CK_BRACKETS`, flavor (u, b), i, i1, j], with a leading time axis for
    a 1-D array of times whose rows equal the scalar-t results bit for bit.
    Each wiring takes one mode sum, weighted per (bracket, flavor) by the
    sign * h-product of its `ck_bracket_terms`: two sums in place of the 16
    of `ck` + `ck_tilde`, which they match at rounding level."""
    ms = active_modes(scheme, lattice)
    w, gfac = _ck_weights(ms, t, False)
    total = 0.0
    for kind in ("C", "tC"):
        weight = np.array([[
            sum(s * _hh(ms.hu, ms.hb, c) for kd, _, s, c in ck_bracket_terms(a, b, fl) if kd == kind)
            for fl in ("u", "b")] for a, b in CK_BRACKETS
        ])
        total = total + _wired_sum(ms.proj, w[..., None, None, :] * weight, gfac, kind == "tC")
    return (0.5 * TWO_PI_M3 * total).real


# -- eps -> 0 limits of the k = 2 families --------------------------------------


def _angular_rule(n_theta: int):
    """Product rule on the sphere: Gauss-Legendre x uniform, weights sum 4 pi."""
    n_phi = 2 * n_theta
    nodes, wts = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    ct = nodes[:, None] + 0.0 * phi[None, :]
    st = np.sqrt(1.0 - ct**2)
    dirs = np.stack(
        [st * np.cos(phi)[None, :], st * np.sin(phi)[None, :], ct], axis=-1
    ).reshape(-1, 3)
    w = (wts[:, None] * (2.0 * np.pi / n_phi) * np.ones(n_phi)[None, :]).reshape(-1)
    return dirs, w


def _limit_radial(scheme: SchemeSpec, combo: str, tilde: bool, dirs, wts):
    proj = np.eye(3)[None, :, :] - dirs[:, :, None] * dirs[:, None, :]

    def f_of_r(r: float) -> np.ndarray:
        x = r * dirs
        ft = eval_f_tilde(scheme, x)
        hh = _hh(eval_h(scheme, "u", x), eval_h(scheme, "b", x), combo)
        cosdiff = np.cos(scheme.a * x) - np.cos(scheme.b * x)  # (D, 3)
        dens = wts * hh / np.maximum(ft, 1e-300) ** 2  # r^-4 cancels against r^2 later
        out = _wired_sum(proj, dens, cosdiff, tilde)  # cosdiff in the place of gfac
        return (out / max(r, 1e-300) ** 2).reshape(-1)

    return f_of_r


def ck2_limit(
    flavor: str, tilde: bool, scheme: SchemeSpec, rtol: float = 1e-4
) -> tuple[np.ndarray, float]:
    """Quadrature value of lim_{eps->0} C_{2,u/b} (or the tilde variant).

    Returns (value, error_estimate).  The spherical volume element cancels
    the 1/|x|^2 singularity at the origin, so the radial integrand is smooth
    and adaptive Gauss-Kronrod converges fast; the angular error is bounded
    by comparing two resolutions.  Raises QuadratureError when the combined
    estimate exceeds rtol relative to the largest entry.
    """
    R = scheme.L0 / 2.0
    sign, combo = _CK_TABLE[("tC" if tilde else "C", 2, flavor)]
    pref = sign * TWO_PI_M3 / (8.0 * (scheme.a + scheme.b))
    vals = {}
    errs = {}
    for nt in (_N_THETA, _N_THETA + 8):
        dirs, wts = _angular_rule(nt)
        fr = _limit_radial(scheme, combo, tilde, dirs, wts)
        v, err = quad_vec(fr, 0.0, R, epsabs=1e-12, epsrel=1e-8, limit=200)
        vals[nt] = pref * v.reshape(3, 3, 3)
        errs[nt] = abs(pref) * err
    value = vals[_N_THETA + 8]
    ang_err = float(np.max(np.abs(vals[_N_THETA + 8] - vals[_N_THETA])))
    total_err = ang_err + errs[_N_THETA + 8]
    scale = max(float(np.max(np.abs(value))), 1e-12)
    if total_err > rtol * scale:
        raise QuadratureError(
            f"limit quadrature error {total_err:.3e} above {rtol:.1e} x {scale:.3e}"
        )
    return value, total_err


# -- fourth-chaos double sums (C22 and C13) -----------------------------------


# Candidate pairs (row k1, partner k2) per block of `_pair_blocks`.  A
# block's per-pair arrays then stay near 1 MB each, inside the cache; at
# M = 924, 2^13 ran c22_family and one c13_block about 25 % faster than 2^16.
_PAIR_BLOCK = 1 << 13


@dataclass
class SumLattice:
    """The k12-only geometry of the double sums, one entry per site of the
    sum lattice {k1 + k2} = [-2K, 2K]^3 (K = max |k_j| of the mode set),
    flattened in C order: k12, |k12|^2, alive and lam12 = |k12|^2 f(eps k12)
    through `killed_mode_rule`, the Leray symbol P12 and G12 = k12 g(eps k12).
    k12 = 0 counts as not alive; P12 and G12 are 0 where a site is not alive.
    """

    k: np.ndarray  # (S, 3)
    ksq: np.ndarray  # (S,)
    alive: np.ndarray  # (S,) bool
    lam: np.ndarray  # (S,)
    proj: np.ndarray  # (S, 3, 3)
    G: np.ndarray  # (S, 3) complex


def _sum_lattice(ms: ModeSet, scheme: SchemeSpec, K: int) -> SumLattice:
    """The mode set's `SumLattice`, built at the first call and kept with it."""
    if ms.sum_lattice is None:
        ax = np.arange(-2 * K, 2 * K + 1, dtype=np.float64)
        k = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
        ksq = np.sum(k**2, axis=1)
        nz = np.nonzero(ksq > 0)[0]
        ok, rate = killed_mode_rule(ksq[nz] * eval_f(scheme, scheme.eps * k[nz]))
        on = nz[ok]
        alive = np.zeros(ksq.shape, dtype=bool)
        alive[on] = True
        lam = np.zeros_like(ksq)
        lam[on] = rate[ok]
        kk = k[on] / np.sqrt(ksq[on])[:, None]
        proj = np.zeros((k.shape[0], 3, 3))
        proj[on] = np.eye(3)[None] - kk[:, :, None] * kk[:, None, :]
        G = np.zeros(k.shape, dtype=np.complex128)
        G[on] = k[on] * eval_g(scheme, scheme.eps * k[on])
        ms.sum_lattice = SumLattice(k, ksq, alive, lam, proj, G)
    return ms.sum_lattice


def _pair_blocks(ms: ModeSet, scheme: SchemeSpec, weight, budget: int):
    """The one pair enumeration of the double sums.

    The rows k1 = ms.k[a] are taken in blocks of about `_PAIR_BLOCK`
    candidate pairs; `weight(a)` is the family weight of the block's rows
    against every partner k2, shape (rows, M).  A pair is live when its
    weight is nonzero, k12 = k1 + k2 != 0 and k12 is alive under
    `killed_mode_rule`.  Each block with live pairs yields their row and
    partner indices (a, b), the weights w, and k12, |k12|^2, P12, lam12 and
    G12 read from the `SumLattice`: the site of k1 + k2 is site[a] + site[b],
    where site[m] is the C-order position of ms.k[m] + K on the (4K+1)^3
    cube, because that position is linear in the shifted components.  The
    table is first needed, and built, at the first pair of nonzero weight.
    """
    M = ms.k.shape[0]
    if M * M > budget:
        raise BudgetError(f"{M * M} mode pairs exceed budget {budget}")
    if M == 0:
        return
    K = int(np.max(np.abs(ms.k)))
    S = 4 * K + 1
    site = (ms.k.astype(np.intp) + K) @ np.array([S * S, S, 1])
    rows = max(1, _PAIR_BLOCK // M)
    for start in range(0, M, rows):
        w = weight(np.arange(start, min(start + rows, M)))
        a, b = np.nonzero(w != 0.0)
        if b.size == 0:
            continue
        geo = _sum_lattice(ms, scheme, K)
        s = site[start + a] + site[b]
        live = geo.alive[s]
        a, b, s = a[live], b[live], s[live]
        if b.size == 0:
            continue
        yield start + a, b, w[a, b], geo.k[s], geo.ksq[s], geo.proj[s], geo.lam[s], geo.G[s]


def _mv(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-pair products A_m x_m of (m, 3, 3) matrices and (m, 3) vectors."""
    return A[:, :, 0] * x[:, 0, None] + A[:, :, 1] * x[:, 1, None] + A[:, :, 2] * x[:, 2, None]


@dataclass
class C22Family:
    C: np.ndarray
    C_bar: np.ndarray
    phi: np.ndarray
    phi_bar: np.ndarray


def c22_family(
    t: float, scheme: SchemeSpec, lattice: ModeLattice, budget: int = 10_000_000
) -> C22Family:
    """The quadruple (C22, C22-bar, phi22(t), phibar22(t)), each [i, j].

    Exact double sum with the Y weight
    Y = 2 h_u(k1) h_b(k1) h_u(k2) h_b(k2) - h_u(k2)^2 h_b(k1)^2
        - h_u(k1)^2 h_b(k2)^2 = -(h_u(k1) h_b(k2) - h_u(k2) h_b(k1))^2,
    evaluated in the squared form, which is exactly 0 (and the pair is
    skipped) when h_u == h_b.
    """
    ms = active_modes(scheme, lattice)
    acc = np.zeros((4, 9), dtype=np.complex128)  # C, phi, C_bar, phi_bar

    def weight(a):
        return -((ms.hu[a, None] * ms.hb - ms.hu * ms.hb[a, None]) ** 2)

    for a, b, Y, k12, k12sq, P12, lam12, Ga in _pair_blocks(ms, scheme, weight, budget):
        P1, P2 = ms.proj[a], ms.proj[b]
        f1, f2 = ms.f[a], ms.f[b]
        k1sq, k2sq = ms.ksq[a], ms.ksq[b]
        Gb = -np.conj(Ga)  # k12 g(-eps k12), since g(-x) = -conj g(x)

        lamsum = lam12 + k1sq * f1 + k2sq * f2
        lam12_b = k12sq
        lamsum_b = k12sq + k1sq + k2sq

        base = Y / (4.0 * k1sq * f1 * k2sq * f2) / lamsum
        base_b = Y / (4.0 * k1sq * k2sq * lamsum_b)

        d_C = base / lam12
        d_Cb = base_b / lam12_b
        d_phi = base * (np.exp(-2.0 * lam12 * t) / lam12 + 2.0 * _lagged_integral(lam12, lamsum, t))
        d_phib = base_b * (
            np.exp(-2.0 * lam12_b * t) / lam12_b + 2.0 * _lagged_integral(lam12_b, lamsum_b, t)
        )

        P12P1 = P12 @ P1
        P12P2 = P12 @ P2
        P12P1P12 = P12P1 @ P12

        def bracket(G1, G2):
            """Per pair (P12 P1 G2)_i (P12 P2 G1)_j - (G1.P2 G2)(P12 P1 P12)_ij, (m, 9)."""
            first = _mv(P12P1, G2)[:, :, None] * _mv(P12P2, G1)[:, None, :]
            scal = np.sum(G1 * _mv(P2, G2), axis=1)
            return (first - scal[:, None, None] * P12P1P12).reshape(-1, 9)

        # C22: sign +, kernel (-k^i2 k^j2) g(eps k^i2) g(-eps k^j2) = -(Ga x Gb);
        # phi22: sign +, kernel k^i2 k^j2 g(eps .) g(-eps .) = +(Ga x Gb)
        acc[:2] += np.stack([-d_C, d_phi]) @ bracket(Ga, Gb)
        # Cbar22: sign -, kernel k^i2 k^j2 i i = (Gi x Gi) with Gi = i k12;
        # phibar22: sign +.  The bracket is bilinear: (Gi x Gi) = -(k12 x k12)
        acc[2:] += np.stack([d_Cb, -d_phib]) @ bracket(k12, k12)

    C, ph, Cb, phb = (TWO_PI_M6 / 4.0) * acc.reshape(4, 3, 3)
    return C22Family(C, Cb, ph, phb)


# block -> (overall sign, bracket sign, h-combo at (k2, k1))
_C13_TABLE = {
    1: (+1.0, +1.0, ("ub", "uu")),
    2: (-1.0, +1.0, ("bb", "ub")),
    3: (+1.0, -1.0, ("bb", "ub")),
    4: (-1.0, -1.0, ("ub", "bb")),
}


@dataclass
class C13Block:
    C: np.ndarray
    C_bar: np.ndarray
    phi: np.ndarray
    phi_bar: np.ndarray
    L: np.ndarray  # the source combination; identically C - C_bar + phi - phi_bar

    def identity_residual(self) -> float:
        """Max residual of L - phi + phi_bar - C + C_bar (zero by construction
        of the four pieces from the same source)."""
        res = self.L - self.phi + self.phi_bar - self.C + self.C_bar
        return float(np.max(np.abs(res)))


def c13_block(
    block: int,
    t: float,
    scheme: SchemeSpec,
    lattice: ModeLattice,
    budget: int = 10_000_000,
) -> C13Block:
    """One implemented resonant block: the quadruple (C, Cbar, phi(t),
    phibar(t)) with free indices [i0, j0], plus the defining combination L.

    Blocks 1..4 cover the mixed-pair branch that the source works out
    explicitly; the remaining four blocks of the aggregated family are not
    implemented (they arise from the symmetric branch by analogous but
    undisplayed kernels).
    """
    if block not in _C13_TABLE:
        raise NotImplementedError(
            f"resonant block {block} is not implemented; only blocks 1-4 have "
            "explicit kernels"
        )
    ms = active_modes(scheme, lattice)
    sign, bsign, (combo2, combo1) = _C13_TABLE[block]
    h1, h2 = _hh(ms.hu, ms.hb, combo1), _hh(ms.hu, ms.hb, combo2)
    acc = np.zeros((5, 9), dtype=np.complex128)  # C, phi, C_bar, phi_bar, L

    def weight(a):
        return h1[a, None] * h2 * ms.pair_weight

    for a, b, hc, k12, k12sq, P12, lam12, Ga12 in _pair_blocks(ms, scheme, weight, budget):
        P1, P2 = ms.proj[a], ms.proj[b]
        f1, f2 = ms.f[a], ms.f[b]
        k1sq, k2sq = ms.ksq[a], ms.ksq[b]
        P2P12 = P2 @ P12
        P2P12P2 = P2P12 @ P2

        def tensor(G12, G2):
            """Per pair first +/- second with the block's bracket sign, (m, 9)."""
            inner = _mv(P1, G2)
            first = _mv(P2P12, inner)[:, :, None] * _mv(P2, G12)[:, None, :]  # [i0, j0]
            scal = np.sum(inner * G12, axis=1)  # G2 . P1 G12
            return (first + bsign * scal[:, None, None] * P2P12P2).reshape(-1, 9)

        # approximate then barred: (lam2, lamsum, denominator / lamsum, G12, G2),
        # each contracted with its C and phi weights at once.  The barred
        # branch has G12 = i k12 and G2 = i k2; the tensor is bilinear, so it
        # is evaluated at (k12, k2) with the weights negated.
        terms = []
        for lam2, lamsum, den, G12, G2 in (
            (k2sq * f2, lam12 + k1sq * f1 + k2sq * f2, 4.0 * k1sq * f1 * k2sq * f2, Ga12, ms.ga[b]),
            (k2sq, k12sq + k1sq + k2sq, -4.0 * k1sq * k2sq, k12, ms.k[b]),
        ):
            wts = hc / (den * lamsum)
            both = np.stack([wts * _heat_integral(lam2, t), wts * -_lagged_integral(lam2, lamsum, t)])
            terms.extend(both @ tensor(G12, G2))
        cA, phA, cB, phB = terms
        acc += [cA, phA, cB, phB, (cA + phA) - (cB + phB)]

    C, ph, Cb, phb, L = sign * TWO_PI_M6 * acc.reshape(5, 3, 3)
    return C13Block(C, Cb, ph, phb, L)


# -- K-pair resonant constant (C34) --------------------------------------------


def c34(t: float, scheme: SchemeSpec, lattice: ModeLattice) -> np.ndarray:
    """Single-sum constant with free indices [i1, i2, j0, j1]:

    (2pi)^-3 sum_k theta-pair(k) int_0^t e^{-2|k|^2 f (t-s)} ds
        k^{j0} g(eps k^{j0}) h_b^2 / (2 |k|^2 f) P^{j0 j1}(k) P^{i1 i2}(k).
    """
    ms = active_modes(scheme, lattice)
    lam = ms.ksq * ms.f
    w = ms.pair_weight * _heat_integral(lam, t) * ms.hb**2 / (2.0 * lam)
    gp = ms.ga[:, :, None] * ms.proj  # [m, j0, j1] = Ga^{j0} P^{j0 j1}
    return TWO_PI_M3 * np.einsum("m,mab,mcd->abcd", w, ms.proj, gp)
