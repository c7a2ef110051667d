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
* ck2_limit      same shapes   -- quadrature value of the eps -> 0 limit of
                                  the k = 2 families.
* c22_family     [i, j]        -- double-sum family (C, Cbar, phi(t),
                                  phibar(t)); vanishes when h_u == h_b.
* c13_block      [i0, j0]      -- one of the four implemented resonant
                                  blocks, plus the combination L that ties
                                  them together identically.
* c34            [i1, i2, j0, j1] -- single-sum resonant-pair constant.

The two double-sum families share one pair enumeration, `_pair_rows`, and
keep only their kernels.  It drops the pairs of zero family weight and the
pairs with k1 + k2 = 0 or k1 + k2 killed (f = inf), the latter by
`schemes.killed_mode_rule`, the one rule for killed modes.  Dropping killed
pairs changes no value: k1 + k2 leaves the box max_j |eps x_j| <= L0 only
when eps|k1| + eps|k2| > L0, so one of k1, k2 lies beyond L0/2 (the mode set
keeps |eps k| <= L0/2 + 1e-12).  Every cutoff h is 0 there, and each family
weight has a cutoff factor at k1 and one at k2, so the pair already has
weight 0 in both the approximate and the barred branch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad_vec

from .schemes import SchemeSpec, eval_f, eval_f_tilde, eval_g, eval_h, killed_mode_rule
from .torus import ModeLattice

TWO_PI_M3 = (2.0 * np.pi) ** -3
TWO_PI_M6 = (2.0 * np.pi) ** -6


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


_MODE_CACHE: dict = {}


def _scheme_key(scheme: SchemeSpec):
    return (
        scheme.f_kind,
        scheme.a,
        scheme.b,
        scheme.L0,
        scheme.h_kind_u,
        scheme.h_kind_b,
        scheme.eps,
        scheme.f_table,
        scheme.h_table_u,
        scheme.h_table_b,
    )


def active_modes(scheme: SchemeSpec, lattice: ModeLattice) -> ModeSet:
    key = (_scheme_key(scheme), lattice.N)
    if key in _MODE_CACHE:
        return _MODE_CACHE[key]
    ms = _build_active_modes(scheme, lattice)
    if len(_MODE_CACHE) > 8:
        _MODE_CACHE.clear()
    _MODE_CACHE[key] = ms
    return ms


def _build_active_modes(scheme: SchemeSpec, lattice: ModeLattice) -> ModeSet:
    scheme = scheme.finalize()
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
    part = lattice.partition()
    pw_grid = part.pair_weight()
    idx = (k + lattice.N).astype(int)
    pw = pw_grid[idx[:, 0], idx[:, 1], idx[:, 2]]
    return ModeSet(k, ksq, proj, f, hu, hb, ga, pw)


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

# sign and h-combination per (index, flavor); the equalities of the
# untilded families (C1u = C4b etc.) are reflected by identical table rows.
_CK_TABLE = {
    (1, "u"): (+1.0, "uu"),
    (1, "b"): (-1.0, "ub"),
    (2, "u"): (-1.0, "bb"),
    (2, "b"): (+1.0, "ub"),
    (3, "u"): (+1.0, "ub"),
    (3, "b"): (-1.0, "bb"),
    (4, "u"): (-1.0, "ub"),
    (4, "b"): (+1.0, "uu"),
}

_CK_TILDE_TABLE = {
    (1, "u"): (+1.0, "uu"),
    (1, "b"): (-1.0, "ub"),
    (2, "u"): (+1.0, "bb"),
    (2, "b"): (-1.0, "ub"),
    (3, "u"): (+1.0, "ub"),
    (3, "b"): (-1.0, "bb"),
    (4, "u"): (+1.0, "ub"),
    (4, "b"): (-1.0, "uu"),
}


def _hh(ms: ModeSet, combo: str) -> np.ndarray:
    return {"uu": ms.hu**2, "ub": ms.hu * ms.hb, "bb": ms.hb**2}[combo]


def _ck_weights(ms: ModeSet, t, bar: bool):
    """Per-mode weights, shape (M,) at a scalar t and (T, M) at T times."""
    f = np.ones_like(ms.f) if bar else ms.f
    lam = ms.ksq * f
    if np.ndim(t):
        t = np.asarray(t, dtype=np.float64)[:, None]
    w = _heat_integral(lam, t) / (2.0 * lam)
    gfac = (1j * ms.k) if bar else ms.ga
    return w, gfac


def ck(
    index: int, flavor: str, t, scheme: SchemeSpec, lattice: ModeLattice, bar: bool = False
) -> np.ndarray:
    """C_{k,u/b}(t) with free indices [i, i1, j]; barred versions are the
    odd sums that vanish identically.

    A 1-D array of T times gives shape (T, 3, 3, 3): the time axis rides on
    the same sum over modes, and each row equals the scalar-t result bit
    for bit.
    """
    ms = active_modes(scheme, lattice)
    sign, combo = _CK_TABLE[(index, flavor)]
    w, gfac = _ck_weights(ms, t, bar)
    weight = w * _hh(ms, combo)
    # sum over i2: (G . P)(k)^j, then tensor against P^{i i1}
    gp = np.einsum("mc,mcj->mj", gfac, ms.proj)
    return sign * 0.5 * TWO_PI_M3 * np.einsum("...m,mab,mj->...abj", weight, ms.proj, gp)


def ck_tilde(
    index: int, flavor: str, t, scheme: SchemeSpec, lattice: ModeLattice, bar: bool = False
) -> np.ndarray:
    """tilde C_{k,u/b}(t) with free indices [i, i2, j]; the derivative index
    stays free.  The wiring P^(i i1) P^(i1 i3) P^(j i3) is P^{ij} itself,
    because a Leray symbol is symmetric and idempotent, so `ms.proj` is used
    as it is.  Takes a 1-D array of times as `ck` does."""
    ms = active_modes(scheme, lattice)
    sign, combo = _CK_TILDE_TABLE[(index, flavor)]
    w, gfac = _ck_weights(ms, t, bar)
    weight = w * _hh(ms, combo)
    return sign * 0.5 * TWO_PI_M3 * np.einsum("...m,maj,mc->...acj", weight, ms.proj, gfac)


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


def _limit_radial(scheme: SchemeSpec, flavor: str, tilde: bool, dirs, wts):
    proj = np.eye(3)[None, :, :] - dirs[:, :, None] * dirs[:, None, :]
    hcombo = "bb" if flavor == "u" else "ub"

    def f_of_r(r: float) -> np.ndarray:
        x = r * dirs
        ft = eval_f_tilde(scheme, x)
        hu = eval_h(scheme, "u", x)
        hb = eval_h(scheme, "b", x)
        hh = {"bb": hb * hb, "ub": hu * hb}[hcombo]
        cosdiff = np.cos(scheme.a * x) - np.cos(scheme.b * x)  # (D, 3)
        dens = wts * hh / np.maximum(ft, 1e-300) ** 2  # r^-4 cancels against r^2 later
        if tilde:
            # entry [i, i2, j] = sum_d dens * cosdiff^(i2) * P^(ij)
            out = np.einsum("d,dc,dij->icj", dens, cosdiff, proj)
        else:
            # entry [i, i1, j] = sum_d dens * P^(i i1) * (cosdiff . P)^j
            cp = np.einsum("dc,dcj->dj", cosdiff, proj)
            out = np.einsum("d,dab,dj->abj", dens, proj, cp)
        return (out / max(r, 1e-300) ** 2).reshape(-1)

    return f_of_r


def ck2_limit(
    flavor: str,
    tilde: bool,
    scheme: SchemeSpec,
    rtol: float = 1e-4,
    n_theta: int = 24,
) -> tuple[np.ndarray, float]:
    """Quadrature value of lim_{eps->0} C_{2,u/b} (or the tilde variant).

    Returns (value, error_estimate).  The spherical volume element cancels
    the 1/|x|^2 singularity at the origin, so the radial integrand is smooth
    and adaptive Gauss-Kronrod converges fast; the angular error is bounded
    by comparing two resolutions.  Raises QuadratureError when the combined
    estimate exceeds rtol relative to the largest entry.
    """
    scheme = scheme.finalize()
    R = scheme.L0 / 2.0
    sign = {("u", False): -1.0, ("b", False): +1.0, ("u", True): +1.0, ("b", True): -1.0}[
        (flavor, tilde)
    ]
    pref = sign * TWO_PI_M3 / (8.0 * (scheme.a + scheme.b))
    vals = {}
    errs = {}
    for nt in (n_theta, n_theta + 8):
        dirs, wts = _angular_rule(nt)
        fr = _limit_radial(scheme, flavor, tilde, dirs, wts)
        v, err = quad_vec(fr, 0.0, R, epsabs=1e-12, epsrel=1e-8, limit=200)
        vals[nt] = pref * v.reshape(3, 3, 3)
        errs[nt] = abs(pref) * err
    value = vals[n_theta + 8]
    ang_err = float(np.max(np.abs(vals[n_theta + 8] - vals[n_theta])))
    total_err = ang_err + errs[n_theta + 8]
    scale = max(float(np.max(np.abs(value))), 1e-12)
    if total_err > rtol * scale:
        raise QuadratureError(
            f"limit quadrature error {total_err:.3e} above {rtol:.1e} x {scale:.3e}"
        )
    return value, total_err


# -- fourth-chaos double sums (C22 and C13) -----------------------------------


def _pair_rows(ms: ModeSet, scheme: SchemeSpec, weight, budget: int):
    """The one pair enumeration of the double sums.

    `weight(a)` is the family weight of row k1 = ms.k[a] against every
    partner k2, shape (M,).  A partner is live when its weight is nonzero,
    k12 = k1 + k2 != 0 and k12 is alive under `killed_mode_rule`.  Each row
    with live partners b yields (a, b, w[b], k12, |k12|^2, P12, lam12, G12):
    the Leray symbol P12, lam12 = |k12|^2 f(eps k12) and G12 = k12 g(eps k12).
    """
    M = ms.k.shape[0]
    if M * M > budget:
        raise BudgetError(f"{M * M} mode pairs exceed budget {budget}")
    for a in range(M):
        w = weight(a)
        k12 = ms.k[a][None, :] + ms.k
        k12sq = np.sum(k12**2, axis=1)
        b = np.nonzero((w != 0.0) & (k12sq > 0))[0]
        if b.size == 0:
            continue
        alive, lam12 = killed_mode_rule(k12sq[b] * eval_f(scheme, scheme.eps * k12[b]))
        b = b[alive]
        if b.size == 0:
            continue
        k12, k12sq, lam12 = k12[b], k12sq[b], lam12[alive]
        kk = k12 / np.sqrt(k12sq)[:, None]
        P12 = np.eye(3)[None] - kk[:, :, None] * kk[:, None, :]
        G12 = k12 * eval_g(scheme, scheme.eps * k12)
        yield a, b, w[b], k12, k12sq, P12, lam12, G12


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
    scheme = scheme.finalize()
    ms = active_modes(scheme, lattice)
    C, Cb, ph, phb = np.zeros((4, 3, 3), dtype=np.complex128)

    def weight(a):
        return -((ms.hu[a] * ms.hb - ms.hu * ms.hb[a]) ** 2)

    for a, b, Y, k12, k12sq, P12, lam12, Ga in _pair_rows(ms, scheme, weight, budget):
        P1, P2 = ms.proj[a], ms.proj[b]
        f1, f2 = ms.f[a], ms.f[b]
        k1sq, k2sq = ms.ksq[a], ms.ksq[b]
        Gb = -np.conj(Ga)  # k12 g(-eps k12), since g(-x) = -conj g(x)
        Gi = 1j * k12

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

        def bracket(G1, G2, weights):
            """sum_m w_m [ (P12 P1 G2)_i (P12 P2 G1)_j - (G1.P2 G2)(P12 P1 P12)_ij ]."""
            u = P12 @ (P1 @ G2[..., None])  # (m, 3, 1)
            v = np.einsum("mij,mj->mi", P12, np.einsum("mij,mj->mi", P2, G1))
            first = u[..., 0][:, :, None] * v[:, None, :]
            scal = np.einsum("mi,mij,mj->m", G1, P2, G2)
            second = scal[:, None, None] * np.einsum("mia,ab,mjb->mij", P12, P1, P12)
            return np.einsum("m,mij->ij", weights, first - second)

        # C22: sign +, kernel (-k^i2 k^j2) g(eps k^i2) g(-eps k^j2) = -(Ga x Gb)
        C += -bracket(Ga, Gb, d_C)
        # Cbar22: sign -, kernel k^i2 k^j2 i i = (Gi x Gi)
        Cb += -bracket(Gi, Gi, d_Cb)
        # phi22: sign +, kernel k^i2 k^j2 g(eps .) g(-eps .) = +(Ga x Gb)
        ph += bracket(Ga, Gb, d_phi)
        # phibar22: sign +, kernel k^i2 k^j2 i i = (Gi x Gi)
        phb += bracket(Gi, Gi, d_phib)

    pref = TWO_PI_M6 / 4.0
    return C22Family(pref * C, pref * Cb, pref * ph, pref * phb)


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
    scheme = scheme.finalize()
    ms = active_modes(scheme, lattice)
    sign, bsign, (combo2, combo1) = _C13_TABLE[block]
    h1, h2 = _hh(ms, combo1), _hh(ms, combo2)
    acc = np.zeros((5, 3, 3), dtype=np.complex128)  # C, phi, C_bar, phi_bar, L

    def weight(a):
        return h1[a] * h2 * ms.pair_weight

    for a, b, hc, k12, k12sq, P12, lam12, Ga12 in _pair_rows(ms, scheme, weight, budget):
        P1, P2 = ms.proj[a], ms.proj[b]
        f1, f2 = ms.f[a], ms.f[b]
        k1sq, k2sq = ms.ksq[a], ms.ksq[b]

        def tensor(G12, G2):
            """first +/- second with the block's bracket sign."""
            inner = np.einsum("ij,mj->mi", P1, G2)  # P1 @ Ga2
            u = np.einsum("mij,mjk,mk->mi", P2, P12, inner)  # (P2 P12 P1 G2)_{i0}
            v = np.einsum("mij,mj->mi", P2, G12)  # (P2 G12)_{j0}
            first = u[:, :, None] * v[:, None, :]
            mat = np.einsum("mij,mjk,mkl->mil", P2, P12, P2)
            scal = np.einsum("mi,ij,mj->m", G2, P1, G12)
            return first + bsign * scal[:, None, None] * mat

        # approximate then barred: (lam2, lamsum, denominator / lamsum, G12, G2)
        terms = []
        for lam2, lamsum, den, G12, G2 in (
            (k2sq * f2, lam12 + k1sq * f1 + k2sq * f2, 4.0 * k1sq * f1 * k2sq * f2, Ga12, ms.ga[b]),
            (k2sq, k12sq + k1sq + k2sq, 4.0 * k1sq * k2sq, 1j * k12, 1j * ms.k[b]),
        ):
            wts = hc / (den * lamsum)
            T = tensor(G12, G2)
            terms.append(np.einsum("m,mij->ij", wts * _heat_integral(lam2, t), T))
            terms.append(np.einsum("m,mij->ij", wts * -_lagged_integral(lam2, lamsum, t), T))
        cA, phA, cB, phB = terms
        acc += [cA, phA, cB, phB, (cA + phA) - (cB + phB)]

    C, ph, Cb, phb, L = sign * TWO_PI_M6 * acc
    return C13Block(C, Cb, ph, phb, L)


def c13_partial_sum(t, scheme, lattice, blocks=(1, 2, 3, 4), budget: int = 10_000_000):
    """Sum of the implemented resonant blocks (a partial aggregate; the full
    family would also need the four unimplemented blocks)."""
    parts = [c13_block(b, t, scheme, lattice, budget) for b in blocks]
    return C13Block(
        sum(p.C for p in parts),
        sum(p.C_bar for p in parts),
        sum(p.phi for p in parts),
        sum(p.phi_bar for p in parts),
        sum(p.L for p in parts),
    )


# -- K-pair resonant constant (C34) --------------------------------------------


def c34(t: float, scheme: SchemeSpec, lattice: ModeLattice) -> np.ndarray:
    """Single-sum constant with free indices [i1, i2, j0, j1]:

    (2pi)^-3 sum_k theta-pair(k) int_0^t e^{-2|k|^2 f (t-s)} ds
        k^{j0} g(eps k^{j0}) h_b^2 / (2 |k|^2 f) P^{j0 j1}(k) P^{i1 i2}(k).
    """
    scheme = scheme.finalize()
    ms = active_modes(scheme, lattice)
    lam = ms.ksq * ms.f
    w = ms.pair_weight * _heat_integral(lam, t) * ms.hb**2 / (2.0 * lam)
    gp = ms.ga[:, :, None] * ms.proj  # [m, j0, j1] = Ga^{j0} P^{j0 j1}
    return TWO_PI_M3 * np.einsum("m,mab,mcd->abcd", w, ms.proj, gp)
