"""Independent reference formulas for the benchmark's checks.

Written from the definitions in the package's README and docstrings, with
numpy only: nothing here imports spdelab.  The checks compare the
program's outputs with these.
"""

from __future__ import annotations

import numpy as np

FOURIER_SCALE = (2.0 * np.pi) ** 1.5
TWO_PI_M6 = (2.0 * np.pi) ** -6


# -- scheme functions ------------------------------------------------------------


def f_fd(x: np.ndarray, L0: float) -> np.ndarray:
    """Finite-difference profile 4/|x|^2 sum_j sin^2(x_j/2) (1 at x = 0),
    +inf outside the box max_j |x_j| <= L0; x has trailing axis 3."""
    r2 = np.sum(x**2, axis=-1)
    s = np.sum(np.sin(x / 2.0) ** 2, axis=-1)
    val = np.where(r2 > 0, 4.0 * s / np.where(r2 > 0, r2, 1.0), 1.0)
    return np.where(np.max(np.abs(x), axis=-1) <= L0, val, np.inf)


def g_quotient(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """g(x) = (e^{iax} - e^{-ibx}) / ((a+b) x), g(0) = i (quotient form)."""
    safe = np.where(x == 0.0, 1.0, x)
    q = (np.exp(1j * a * safe) - np.exp(-1j * b * safe)) / ((a + b) * safe)
    return np.where(x == 0.0, 1j, q)


def h_cutoff(kind: str, x: np.ndarray, L0: float) -> np.ndarray:
    """Radial noise cutoff with support |x| <= L0/2 (smooth bump or indicator)."""
    r = np.sqrt(np.sum(x**2, axis=-1))
    R = L0 / 2.0
    if kind == "indicator":
        return (r <= R).astype(np.float64)
    if kind != "smooth_bump":
        raise ValueError(f"no reference for h kind {kind!r}")
    s = np.minimum((r / R) ** 2, 1.0)
    inside = s < 1.0
    return np.where(inside, np.exp(1.0 - 1.0 / np.where(inside, 1.0 - s, 1.0)), 0.0)


def leray(k: np.ndarray) -> np.ndarray:
    """P(k) = I - k k^T / |k|^2 for k of shape (..., 3); zero at k = 0."""
    ksq = np.sum(k**2, axis=-1)
    kk = k / np.sqrt(np.where(ksq > 0, ksq, 1.0))[..., None]
    P = np.eye(3) - kk[..., :, None] * kk[..., None, :]
    return np.where((ksq > 0)[..., None, None], P, 0.0)


# -- heat-kernel integrals ---------------------------------------------------------


def heat(lam: np.ndarray, t: float) -> np.ndarray:
    """int_0^t exp(-2 lam (t-s)) ds."""
    return -np.expm1(-2.0 * lam * t) / (2.0 * lam)


def lagged(A: np.ndarray, B: np.ndarray, t: float) -> np.ndarray:
    """int_0^t exp(-2A(t-s) - Bs) ds = (e^{-Bt} - e^{-2At}) / (2A - B)."""
    d = 2.0 * A - B
    near = np.abs(d * t) < 1e-8
    safe = np.where(near, 1.0, d)
    return np.exp(-B * t) * np.where(near, t * (1.0 - d * t / 2.0), -np.expm1(-safe * t) / safe)


# -- lattice, transforms and the MHD step ---------------------------------------------


def cube_k(N: int) -> np.ndarray:
    """Wavevectors of the shifted cube (index n <-> k = n - N), shape (3,) + cube."""
    ax = np.arange(-N, N + 1, dtype=np.float64)
    return np.stack(np.meshgrid(ax, ax, ax, indexing="ij"))


def to_grid(coeff: np.ndarray) -> np.ndarray:
    n = coeff.shape[-1]
    spec = np.fft.ifftshift(coeff, axes=(-3, -2, -1))
    return np.fft.ifftn(spec, axes=(-3, -2, -1)).real * (n**3 / FOURIER_SCALE)


def to_coeff(grid: np.ndarray) -> np.ndarray:
    n = grid.shape[-1]
    spec = np.fft.fftn(grid, axes=(-3, -2, -1))
    return np.fft.fftshift(spec, axes=(-3, -2, -1)) * (FOURIER_SCALE / n**3)


class MHDStep:
    """One exponential-Euler step of the projected MHD pair

        Z_{n+1} = e^{-lam dt} Z_n + (1 - e^{-lam dt})/lam * F(y_n),
        F_u^i = -1/2 P^{i a} D_j [u^a u^j - b^a b^j] (+ drift),
        F_b^i = -1/2 P^{i a} D_j [b^a u^j - u^a b^j],

    with products formed on the grid and 2/3-rule dealiased.  In continuum
    mode lam = |k|^2 and D_j = i k_j; in approximate mode lam = |k|^2 f(eps k)
    (killed modes decay to 0) and D_j = k_j g(eps k_j).
    """

    def __init__(self, N: int, dt: float, which: str, eps: float, a: float, b: float, L0: float):
        k = cube_k(N)
        ksq = np.sum(k**2, axis=0)
        kl = np.moveaxis(k, 0, -1)
        if which == "cont":
            lam = ksq
            self.D = 1j * k
        else:
            lam = ksq * f_fd(eps * kl, L0)
            self.D = k * g_quotient(eps * k, a, b)
        alive = np.isfinite(lam)
        lam = np.where(alive, lam, 1.0)
        self.decay = np.where(alive, np.exp(-lam * dt), 0.0)
        pos = lam > 0
        w = np.where(pos, -np.expm1(-lam * dt) / np.where(pos, lam, 1.0), dt)
        self.w = np.where(alive, w, 0.0)
        self.P = np.moveaxis(leray(kl), (-2, -1), (0, 1))
        cut = 2.0 * N / 3.0
        self.mask = np.all(np.abs(k) <= cut, axis=0)

    def _products(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return to_coeff(A[:, None] * B[None, :]) * self.mask

    def _pdj(self, pair: np.ndarray) -> np.ndarray:
        d = np.einsum("j...,aj...->a...", self.D, pair)
        return -0.5 * np.einsum("ia...,a...->i...", self.P, d)

    def forcing(self, u: np.ndarray, b: np.ndarray, drift_u=None):
        U, B = to_grid(u), to_grid(b)
        fu = self._pdj(self._products(U, U) - self._products(B, B))
        fb = self._pdj(self._products(B, U) - self._products(U, B))
        if drift_u is not None:
            tuu, tub = drift_u
            acc = np.einsum("alj,j...,l...->a...", tuu, self.D, u)
            acc += np.einsum("alj,j...,l...->a...", tub, self.D, b)
            fu = fu - 0.5 * np.einsum("ia...,a...->i...", self.P, acc)
        return fu, fb

    def advance(self, z: np.ndarray, force: np.ndarray) -> np.ndarray:
        return self.decay * z + self.w * force


# -- double sums by direct evaluation over all pairs -------------------------------------


class PairSet:
    """All ordered pairs (k1, k2) of nonzero modes with |eps k| <= L0/2 and
    k1 + k2 != 0, with the per-pair geometry of the double sums."""

    def __init__(self, eps: float, a: float, b: float, L0: float, h_u: str, h_b: str):
        R = L0 / 2.0 / eps
        n = int(np.floor(R))
        ax = np.arange(-n, n + 1, dtype=np.float64)
        g = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
        r = np.sqrt(np.sum(g**2, axis=1))
        modes = g[(r > 0) & (eps * r <= L0 / 2.0 + 1e-12)]
        self.M = len(modes)
        i1, i2 = np.meshgrid(np.arange(self.M), np.arange(self.M), indexing="ij")
        k1, k2 = modes[i1.ravel()], modes[i2.ravel()]
        k12 = k1 + k2
        keep = np.any(k12 != 0, axis=1)
        self.k1, self.k2, self.k12 = k1[keep], k2[keep], k12[keep]
        self.eps, self.a, self.b, self.L0 = eps, a, b, L0
        sq = lambda v: np.sum(v**2, axis=1)
        self.s1, self.s2, self.s12 = sq(self.k1), sq(self.k2), sq(self.k12)
        f = lambda v: f_fd(eps * v, L0)
        self.f1, self.f2, self.f12 = f(self.k1), f(self.k2), f(self.k12)
        self.P1, self.P2, self.P12 = leray(self.k1), leray(self.k2), leray(self.k12)
        self.hu1 = h_cutoff(h_u, eps * self.k1, L0)
        self.hb1 = h_cutoff(h_b, eps * self.k1, L0)
        self.hu2 = h_cutoff(h_u, eps * self.k2, L0)
        self.hb2 = h_cutoff(h_b, eps * self.k2, L0)

    def G(self, k: np.ndarray, sign: float) -> np.ndarray:
        """k^c g(sign eps k^c), componentwise."""
        return k * g_quotient(sign * self.eps * k, self.a, self.b)


def c22_direct(ps: PairSet, t: float) -> dict:
    """(C, C_bar, phi, phi_bar) of the C22 family by direct pair evaluation:

    Y = 2 h_u(k1) h_b(k1) h_u(k2) h_b(k2) - h_u(k2)^2 h_b(k1)^2 - h_u(k1)^2 h_b(k2)^2,
    base = Y / (4 |k1|^2 f1 |k2|^2 f2 lamsum), lamsum = lam12 + lam1 + lam2,
    bracket(G1, G2) = (P12 P1 G2)_i (P12 P2 G1)_j - (G1 . P2 G2) (P12 P1 P12)_ij,
    C = -sum base/lam12 bracket(Ga, Gb),   Ga = k12 g(eps k12), Gb = k12 g(-eps k12)
    phi = sum base T(t) bracket(Ga, Gb),   T = e^{-2 lam12 t}/lam12 + 2 lagged(lam12, lamsum)
    and the barred pair with f = 1 and G = i k12, each times (2pi)^-6 / 4.
    """
    Y = (
        2.0 * ps.hu1 * ps.hb1 * ps.hu2 * ps.hb2
        - ps.hu2**2 * ps.hb1**2
        - ps.hu1**2 * ps.hb2**2
    )

    def bracket(G1, G2, w):
        u = np.einsum("mij,mjk,mk->mi", ps.P12, ps.P1, G2)
        v = np.einsum("mij,mjk,mk->mi", ps.P12, ps.P2, G1)
        scal = np.einsum("mi,mij,mj->m", G1, ps.P2, G2)
        mat = np.einsum("mia,mab,mjb->mij", ps.P12, ps.P1, ps.P12)
        return np.einsum("m,mij->ij", w, u[:, :, None] * v[:, None, :] - scal[:, None, None] * mat)

    out = {}
    for bar in (False, True):
        f1, f2, f12 = (1.0, 1.0, 1.0) if bar else (ps.f1, ps.f2, ps.f12)
        lam12 = ps.s12 * f12
        lamsum = lam12 + ps.s1 * f1 + ps.s2 * f2
        fin = np.isfinite(lamsum)
        lam12 = np.where(fin, lam12, 1.0)
        lamsum = np.where(fin, lamsum, 1.0)
        base = np.where(fin, Y / (4.0 * ps.s1 * np.where(fin, f1, 1.0) * ps.s2 * np.where(fin, f2, 1.0) * lamsum), 0.0)
        T = np.exp(-2.0 * lam12 * t) / lam12 + 2.0 * lagged(lam12, lamsum, t)
        if bar:
            G1 = G2 = 1j * ps.k12
        else:
            G1, G2 = ps.G(ps.k12, +1.0), ps.G(ps.k12, -1.0)
        tag = "_bar" if bar else ""
        out["C" + tag] = -bracket(G1, G2, base / lam12) * (TWO_PI_M6 / 4.0)
        out["phi" + tag] = bracket(G1, G2, base * T) * (TWO_PI_M6 / 4.0)
    return out


# block -> (overall sign, bracket sign, h-combination at k2, at k1)
C13_BLOCKS = {
    1: (+1.0, +1.0, "ub", "uu"),
    2: (-1.0, +1.0, "bb", "ub"),
    3: (+1.0, -1.0, "bb", "ub"),
    4: (-1.0, -1.0, "ub", "bb"),
}


def c13_direct(ps: PairSet, block: int, t: float) -> dict:
    """(C, C_bar, phi, phi_bar) of one resonant block by direct pair evaluation:

    T = (P2 P12 P1 G2)_{i0} (P2 G12)_{j0} + s (G2 . P1 G12) (P2 P12 P2)_{i0 j0},
    w = h(k2) h(k1) / (4 |k1|^2 f1 |k2|^2 f2 lamsum),
    C = sign sum w heat(lam2, t) T,  phi = -sign sum w lagged(lam2, lamsum, t) T,
    with G12 = k12 g(eps k12), G2 = k2 g(eps k2); the barred pair uses f = 1
    and G = i k.  The Littlewood-Paley pair weight is 1 on the lattice.
    """
    sign, bsign, c2, c1 = C13_BLOCKS[block]
    hh = lambda c, hu, hb: {"uu": hu * hu, "ub": hu * hb, "bb": hb * hb}[c]
    hc = hh(c2, ps.hu2, ps.hb2) * hh(c1, ps.hu1, ps.hb1)
    out = {}
    for bar in (False, True):
        f1, f2, f12 = (1.0, 1.0, 1.0) if bar else (ps.f1, ps.f2, ps.f12)
        lam2 = ps.s2 * f2
        lamsum = ps.s12 * f12 + ps.s1 * f1 + lam2
        fin = np.isfinite(lamsum)
        lamsum = np.where(fin, lamsum, 1.0)
        lam2 = np.where(np.isfinite(lam2), lam2, 1.0)
        w = np.where(fin, hc / (4.0 * ps.s1 * np.where(fin, f1, 1.0) * ps.s2 * np.where(fin, f2, 1.0) * lamsum), 0.0)
        if bar:
            G12, G2 = 1j * ps.k12, 1j * ps.k2
        else:
            G12, G2 = ps.G(ps.k12, +1.0), ps.G(ps.k2, +1.0)
        u = np.einsum("mij,mjk,mkl,ml->mi", ps.P2, ps.P12, ps.P1, G2)
        v = np.einsum("mij,mj->mi", ps.P2, G12)
        scal = np.einsum("mi,mij,mj->m", G2, ps.P1, G12)
        mat = np.einsum("mij,mjk,mkl->mil", ps.P2, ps.P12, ps.P2)
        T = u[:, :, None] * v[:, None, :] + bsign * scal[:, None, None] * mat
        tag = "_bar" if bar else ""
        out["C" + tag] = sign * TWO_PI_M6 * np.einsum("m,mij->ij", w * heat(lam2, t), T)
        out["phi" + tag] = -sign * TWO_PI_M6 * np.einsum("m,mij->ij", w * lagged(lam2, lamsum, t), T)
    return out


def c0_direct(N: int, eps: float, L0: float, h_u: str, h_b: str, bar: bool) -> np.ndarray:
    """Stationary one-point moment (2pi)^-3 sum_k h_u h_b / (2 |k|^2 f) P(k)
    over the nonzero modes of the N-cube with |eps k| <= L0/2."""
    k = np.moveaxis(cube_k(N), 0, -1).reshape(-1, 3)
    r = np.sqrt(np.sum(k**2, axis=1))
    k = k[(r > 0) & (eps * r <= L0 / 2.0 + 1e-12)]
    x = eps * k
    f = np.ones(len(k)) if bar else f_fd(x, L0)
    w = h_cutoff(h_u, x, L0) * h_cutoff(h_b, x, L0) / (2.0 * np.sum(k**2, axis=1) * f)
    return (2.0 * np.pi) ** -3 * np.einsum("m,mij->ij", w, leray(k))
