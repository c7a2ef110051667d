"""Approximation operators for the discretized system.

A scheme is the data (f~, g, h_u, h_b, eps): f~ defines the approximate
Laplacian multiplier -|k|^2 f(eps k) (with f = +infinity outside the box
max_j |x_j| <= L0, and f~ bounded below on the box by c_f > 0, which
`SchemeSpec` derives in closed form when it is built), g defines the
approximate derivative multiplier k^j g(eps k^j) with

    g(x) = (exp(i a x) - exp(-i b x)) / ((a + b) x),   g(0) = i,
         = i exp(i (a - b) x / 2) sinc((a + b) x / (2 pi)),

where sinc(t) = sin(pi t) / (pi t); so |g(x)| <= 1 for every real x.  The
sinc form is the one evaluated: it has no cancellation near x = 0 and no
overflow at subnormal x.  The radial cutoffs h_u, h_b (support inside
|x| <= L0/2) damp the noise.  The module applies these as diagonal Fourier
multipliers, provides the exact and approximate heat semigroups, the Leray
projection, and the physical-space difference quotient that the spectral
derivative reproduces exactly when the shifts a*eps, b*eps are multiples of
the grid step.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .torus import ModeLattice, ScalarField, TWO_PI, VectorField

F_KINDS = ("finite_difference", "galerkin", "table")
H_KINDS = ("indicator", "smooth_bump", "table")
_SINC_NEGLIGIBLE = np.finfo(np.float64).max / 4  # |sinc(y)| < 7.1e-309 beyond
_MEAN_TOL = 1e-12  # largest mean-mode modulus `leray_project` takes as zero


@dataclass(frozen=True)
class SchemeSpec:
    """Parameters of one approximation scheme, complete once built.

    c_f is the lower bound of f~ over the box max_j |x_j| <= L0, derived in
    closed form (`_lower_bound_f`).  Every rate |k|^2 f(eps k) is a divisor,
    so a scheme with c_f <= 0 is rejected, as is a table kind without its
    table.  The spec is frozen, and its tables are stored as tuples however
    they are given, hence hashable: equal schemes share caches.
    """

    f_kind: str = "finite_difference"
    a: float = 1.0
    b: float = 1.0
    L0: float = 6.0
    Lbar0: float = 2.0
    h_kind_u: str = "smooth_bump"
    h_kind_b: str = "smooth_bump"
    eps: float = 0.125
    f_table: tuple[tuple[float, ...], tuple[float, ...]] | None = None  # (|x|, value)
    h_table_u: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    h_table_b: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    c_f: float = field(init=False)

    def __post_init__(self):
        for name in ("f_table", "h_table_u", "h_table_b"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(map(tuple, getattr(self, name))))
        if self.f_kind not in F_KINDS:
            raise ValueError(f"unknown f_kind {self.f_kind!r}")
        for hk in (self.h_kind_u, self.h_kind_b):
            if hk not in H_KINDS:
                raise ValueError(f"unknown h_kind {hk!r}")
        for kind, table, name in ((self.f_kind, self.f_table, "f_table"),
                                  (self.h_kind_u, self.h_table_u, "h_table_u"),
                                  (self.h_kind_b, self.h_table_b, "h_table_b")):
            if kind == "table" and table is None:
                raise ValueError(f"a table kind needs {name}")
        if not (0 <= self.a < np.inf and 0 <= self.b < np.inf) or self.a + self.b <= 0:
            raise ValueError("need finite a, b >= 0 with a + b > 0")
        if not 0 < self.L0 < np.inf:
            raise ValueError("L0 must be positive and finite")
        if not (0 < self.Lbar0 < self.L0 / 2):
            raise ValueError("need 0 < Lbar0 < L0/2")
        if not 0 < self.eps < np.inf:
            raise ValueError("eps must be positive and finite")
        c_f = _lower_bound_f(self)
        if not c_f > 0:
            raise ValueError(f"f~ must be positive on the box max_j |x_j| <= L0, got c_f = {c_f}")
        object.__setattr__(self, "c_f", c_f)

    def finalize(self) -> "SchemeSpec":
        """The spec itself, which is complete when built; kept because
        perfbench and the tests still call it."""
        return self

    def with_eps(self, eps: float) -> "SchemeSpec":
        return replace(self, eps=eps)


def _fd_profile(x: np.ndarray) -> np.ndarray:
    """4/|x|^2 (sin^2(x1/2) + sin^2(x2/2) + sin^2(x3/2)), value 1 at x = 0."""
    x = np.asarray(x, dtype=np.float64)
    r2 = np.sum(x**2, axis=-1)
    s = np.sum(np.sin(x / 2.0) ** 2, axis=-1)
    safe = np.where(r2 == 0.0, 1.0, r2)
    return np.where(r2 == 0.0, 1.0, 4.0 * s / safe)


def _lower_bound_f(spec: SchemeSpec) -> float:
    """min of f~ over the box max_j |x_j| <= L0, in closed form.

    Finite differences: f~ is the mean of sinc^2(x_j / 2pi) with weights
    x_j^2 / |x|^2, and sinc^2 falls on [0, 2pi], so the minimum sits at
    (L0, 0, 0) while L0 < 2pi; past that f~(2pi, 0, 0) = 0 lies in the box.
    Table: f~ is piecewise linear in |x| on [0, sqrt(3) L0], so its minimum
    is at an end or at a knot in between.
    """
    if spec.f_kind == "galerkin":
        return 1.0
    if spec.f_kind == "finite_difference":
        return float(_fd_profile((spec.L0, 0.0, 0.0))) if spec.L0 < TWO_PI else 0.0
    xs, vs = (np.asarray(t, dtype=np.float64) for t in spec.f_table)
    r_max = np.sqrt(3.0) * spec.L0
    r = np.concatenate(([0.0, r_max], xs[(xs > 0.0) & (xs < r_max)]))
    return float(np.min(np.interp(r, xs, vs)))


def eval_f_tilde(spec: SchemeSpec, x: np.ndarray) -> np.ndarray:
    """The finite radial profile f~ (no box cutoff); x has trailing axis 3."""
    x = np.asarray(x, dtype=np.float64)
    if spec.f_kind == "galerkin":
        return np.ones(x.shape[:-1])
    if spec.f_kind == "finite_difference":
        return _fd_profile(x)
    r = np.sqrt(np.sum(x**2, axis=-1))
    xs, vs = spec.f_table
    return np.interp(r, xs, vs)


def eval_f(spec: SchemeSpec, x: np.ndarray) -> np.ndarray:
    """f(x): f~ inside the box max_j |x_j| <= L0, +infinity outside."""
    x = np.asarray(x, dtype=np.float64)
    inside = np.max(np.abs(x), axis=-1) <= spec.L0
    return np.where(inside, eval_f_tilde(spec, x), np.inf)


def eval_g(spec: SchemeSpec, x: np.ndarray) -> np.ndarray:
    """g(x) = (e^{iax} - e^{-ibx})/((a+b)x), g(0) = i, for any real x.

    Evaluated as i e^{i(a-b)x/2} sinc((a+b)x/(2 pi)) with np.sinc, so
    |g(x)| = |sinc| <= 1 and the absolute error is at rounding level (about
    1e-16) from subnormal x up; g(0) = i exactly.  Underflow towards 0 is
    harmless.  Past |(a+b)x/(2 pi)| = max_float/4 the true |g| is below
    7.1e-309 and g is returned as 0; only there can the phase overflow.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        y = x * (spec.a / TWO_PI + spec.b / TWO_PI)
        g = 1j * np.exp(1j * (0.5 * spec.a - 0.5 * spec.b) * x) * np.sinc(y)
    return np.where(np.abs(y) > _SINC_NEGLIGIBLE, 0j, g)


def eval_h(spec: SchemeSpec, which: str, x: np.ndarray) -> np.ndarray:
    """Radial noise cutoff h_u or h_b; support inside |x| <= L0/2, h(0) = 1."""
    x = np.asarray(x, dtype=np.float64)
    r = np.sqrt(np.sum(x**2, axis=-1))
    kind = {"u": spec.h_kind_u, "b": spec.h_kind_b}[which]
    R = spec.L0 / 2.0
    if kind == "indicator":
        return np.where(r <= R, 1.0, 0.0)
    if kind == "smooth_bump":
        t2 = np.minimum((r / R) ** 2, 1.0)
        with np.errstate(divide="ignore"):
            expo = 1.0 - 1.0 / np.maximum(1.0 - t2, 1e-300)
        return np.where(t2 < 1.0, np.exp(np.maximum(expo, -700.0)), 0.0)
    xs, vs = {"u": spec.h_table_u, "b": spec.h_table_b}[which]
    return np.where(r <= R, np.interp(r, xs, vs), 0.0)


# -- multiplier construction on a lattice -------------------------------------


def f_on_lattice(spec: SchemeSpec, lattice: ModeLattice) -> np.ndarray:
    """f(eps k) over the mode cube (np.inf outside the box)."""
    pts = spec.eps * np.moveaxis(lattice.k_stack(), 0, -1)
    return eval_f(spec, pts)


def h_on_lattice(spec: SchemeSpec, lattice: ModeLattice, which: str) -> np.ndarray:
    pts = spec.eps * np.moveaxis(lattice.k_stack(), 0, -1)
    return eval_h(spec, which, pts)


def eps_laplacian_rate(spec: SchemeSpec, lattice: ModeLattice) -> np.ndarray:
    """lambda(k) = |k|^2 f(eps k) (np.inf on killed modes)."""
    return lattice.ksq * f_on_lattice(spec, lattice)


def killed_mode_rule(lam) -> tuple[np.ndarray, np.ndarray]:
    """(alive, rate) of a rate array lam that is +inf on killed modes.

    The one rule for killed modes (f = inf outside the box): a killed mode
    has decay 0, forcing weight 0 and noise loading 0, so callers zero those
    where `alive` is False.  `rate` is lam on alive modes and 0 on killed
    ones, the symbol of -Delta_eps there, which keeps every expression in it
    finite.
    """
    lam = np.asarray(lam, dtype=np.float64)
    alive = np.isfinite(lam)
    return alive, np.where(alive, lam, 0.0)


def apply_laplacian_eps(v: ScalarField | VectorField, spec: SchemeSpec):
    """Delta_eps: multiplier -|k|^2 f(eps k); killed (f = inf) modes map to 0.

    Returns (result, killed_mode_count).
    """
    alive, rate = killed_mode_rule(eps_laplacian_rate(spec, v.lattice))
    out = type(v)(v.lattice, v.coeff * -rate)
    return out, int(np.count_nonzero(~alive))


def semigroup_eps(v: ScalarField | VectorField, spec: SchemeSpec, t: float):
    """exp(t Delta_eps); identity at t = 0, annihilates killed modes for t > 0."""
    if t < 0:
        raise ValueError("semigroup time must be nonnegative")
    if t == 0.0:
        return v.copy()
    alive, rate = killed_mode_rule(eps_laplacian_rate(spec, v.lattice))
    return type(v)(v.lattice, v.coeff * np.where(alive, np.exp(-rate * t), 0.0))


def semigroup(v: ScalarField | VectorField, t: float):
    """Exact heat semigroup exp(t Delta)."""
    if t < 0:
        raise ValueError("semigroup time must be nonnegative")
    return type(v)(v.lattice, v.coeff * np.exp(-v.lattice.ksq * t))


def dj_eps_multiplier(spec: SchemeSpec, lattice: ModeLattice, j: int) -> np.ndarray:
    """Symbol of D_j^eps: k^j g(eps k^j)."""
    kj = (lattice.k1, lattice.k2, lattice.k3)[j - 1]
    return kj * eval_g(spec, spec.eps * kj)


def apply_dj_eps(v: ScalarField | VectorField, spec: SchemeSpec, j: int):
    if j not in (1, 2, 3):
        raise ValueError(f"direction index must be 1..3, got {j}")
    return type(v)(v.lattice, v.coeff * dj_eps_multiplier(spec, v.lattice, j))


def apply_dj(v: ScalarField | VectorField, j: int):
    """Exact derivative D_j, symbol i k^j."""
    if j not in (1, 2, 3):
        raise ValueError(f"direction index must be 1..3, got {j}")
    kj = (v.lattice.k1, v.lattice.k2, v.lattice.k3)[j - 1]
    return type(v)(v.lattice, v.coeff * (1j * kj))


def apply_h_eps(v: ScalarField | VectorField, spec: SchemeSpec, which: str):
    """Noise cutoff H_{u/b,eps}: multiplier h(eps k)."""
    return type(v)(v.lattice, v.coeff * h_on_lattice(spec, v.lattice, which))


def difference_quotient_grid(
    grid: np.ndarray, spec: SchemeSpec, j: int, shifts: tuple[int, int]
) -> np.ndarray:
    """(u(x + a eps e_j) - u(x - b eps e_j)) / ((a+b) eps) by grid rolls.

    `shifts` gives the two shift distances in grid points; the caller is
    responsible for a*eps and b*eps being exact multiples of the grid step.
    """
    axis = j - 1 - 3  # act on the last three axes
    sa, sb = shifts
    return (np.roll(grid, -sa, axis=axis) - np.roll(grid, sb, axis=axis)) / (
        (spec.a + spec.b) * spec.eps
    )


def leray_project(v: VectorField) -> VectorField:
    """Project onto divergence-free fields; rejects fields with a mean mode."""
    if float(np.max(np.abs(v.mean_mode()))) > _MEAN_TOL:
        raise ValueError("Leray projection requires a mean-zero field")
    proj = v.lattice.leray_tensor()
    return VectorField(v.lattice, np.einsum("ij...,j...->i...", proj, v.coeff))


def dealias_mask(lattice: ModeLattice) -> np.ndarray:
    """2/3-rule mask: keep modes with max_j |k_j| <= 2N/3."""
    cut = 2.0 * lattice.N / 3.0
    return (
        (np.abs(lattice.k1) <= cut)
        & (np.abs(lattice.k2) <= cut)
        & (np.abs(lattice.k3) <= cut)
    )


# -- configuration -------------------------------------------------------------


def _load_table(path: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    xs, vs = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            xs.append(float(row[0]))
            vs.append(float(row[1]))
    order = np.argsort(xs)
    return tuple(np.asarray(xs)[order]), tuple(np.asarray(vs)[order])


def scheme_from_config(doc: dict) -> SchemeSpec:
    """Build a SchemeSpec from a parsed JSON config with a `scheme` section.

    Recognized keys: scheme.f_kind, scheme.a, scheme.b, scheme.L0,
    scheme.Lbar0, scheme.h_kind (or h_kind_u / h_kind_b), scheme.eps, and
    *_table paths (CSV of radius,value rows, relative to the working
    directory) for table kinds.
    """
    sec = doc.get("scheme", doc)
    kw = {}
    for key in ("f_kind", "a", "b", "L0", "Lbar0", "eps"):
        if key in sec:
            kw[key] = sec[key]
    if "h_kind" in sec:
        kw["h_kind_u"] = sec["h_kind"]
        kw["h_kind_b"] = sec["h_kind"]
    for key in ("h_kind_u", "h_kind_b"):
        if key in sec:
            kw[key] = sec[key]
    for key in ("f_table", "h_table_u", "h_table_b"):
        if key in sec:
            kw[key] = _load_table(sec[key])
    return SchemeSpec(**kw)


def grid_step(lattice: ModeLattice) -> float:
    return TWO_PI / lattice.n
