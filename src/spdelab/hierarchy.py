"""Mild-solution hierarchy for the split systems.

The solution splits into a Gaussian level y1, forced linear levels y2, y3,
an auxiliary smoothing pair K, and a Picard fixed point for the remainder
y4; each level is integrated in mild form with a first-order exponential
integrator,

    y(t+dt) = e^{-lam dt} y(t) + dt phi1(lam dt) F(t),
    phi1(z) = (1 - e^{-z}) / z,

where lam(k) = |k|^2 f(eps k) in approximate mode and |k|^2 in continuum
mode.

Each level's drift is one bilinear product.  For (u, b) pairs x, y let
N(x, y) be the symmetric part of x_u (x) y_u - x_b (x) y_b (the u-equation,
6 components) and the antisymmetric part of x_b (x) y_u - x_u (x) y_b (the
b-equation, 3 components).  Level 2 is driven by N(y1, y1), level 3 by
N(2 y1, y2) and level 4 by N(2 (y1 + y2) + w, w) + N(y2, y2), w = y3 + y4.
The products are summed on the grid, transformed once (optional 2/3-rule
dealiasing) and hit with -1/2 P D_j.  In approximate mode the diamond
products of mixed levels add constant-weighted linear terms on y1 (level 3)
and y2 + w (level 4), built from the second-chaos constant tensors and
folded into the same pair matrices.  The Wick constants of the level-2
squares never appear: they only shift the k = 0 mode, where the Leray
symbol vanishes.

Work done once per run: the diamond tables at every step, from two
time-batched mode sums over the whole time grid (one per wiring, with the
signs and cutoff products of the 16 constants read from one table); the real
grids of y1 and y2 at every step, one inverse transform per level and step,
held in one preallocated array that levels 2, 3 and 4 share and that no
result keeps.  Work done per Picard sweep and
step: the grid of w, the one forward transform of the summed products, and
the increment, one batched real block-norm pass over the six components of
u4 and b4 (the step-0 increment is skipped: every sweep starts from the
same initial data).  A sweep overwrites the iterate in place, keeping only
the previous iterate's value at the step being replaced.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import constants as renorm
from .bony import paraproduct_lt
from .schemes import (
    SchemeSpec,
    dealias_mask,
    dj_eps_multiplier,
    eps_laplacian_rate,
    killed_mode_rule,
)
from .torus import (
    ModeLattice,
    ScalarField,
    dft_forward,
    dft_inverse,
    holder_norm_batch,
)
from .fields import CoupledOUEnsemble, NoiseSpec

logger = logging.getLogger(__name__)


@dataclass
class SolverConfig:
    dt: float
    T: float
    picard_max_iter: int = 40
    tol: float = 1e-9
    dealias: bool = True
    contraction_alpha: float = -0.6
    use_constants: bool = True

    def __post_init__(self):
        if self.dt <= 0 or self.T <= 0:
            raise ValueError("dt and T must be positive")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")

    @property
    def nsteps(self) -> int:
        return max(1, round(self.T / self.dt))


class OperatorSet:
    """Multipliers of one mode (approximate or continuum) on a lattice."""

    def __init__(self, which: str, scheme: SchemeSpec, lattice: ModeLattice):
        if which not in ("approx", "cont"):
            raise ValueError(f"mode must be 'approx' or 'cont', got {which!r}")
        self.which = which
        self.lattice = lattice
        self.scheme = scheme.finalize()
        if which == "approx":
            self.lam = eps_laplacian_rate(self.scheme, lattice)
            self.dmult = np.stack(
                [
                    np.broadcast_to(
                        dj_eps_multiplier(self.scheme, lattice, j), lattice.shape
                    )
                    for j in (1, 2, 3)
                ]
            )
        else:
            self.lam = lattice.ksq.copy()
            self.dmult = 1j * lattice.k_stack().astype(np.complex128)
        self.proj = lattice.leray_tensor()

    def stepper(self, dt: float):
        """(decay, dt*phi1) factors; killed modes decay to 0 and take no forcing."""
        alive, rate = killed_mode_rule(self.lam)
        decay = np.where(alive, np.exp(-rate * dt), 0.0)
        z = rate * dt
        small = np.abs(z) < 1e-12
        phi1 = np.where(small, 1.0 - z / 2.0, -np.expm1(-z) / np.where(small, 1.0, z))
        return decay, np.where(alive, dt * phi1, 0.0)


@dataclass
class Trajectory:
    times: np.ndarray  # (nt+1,)
    u: np.ndarray  # (nt+1, 3) + lattice.shape, complex
    b: np.ndarray

    def at(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        return self.u[n], self.b[n]

    def zero_like(self) -> "Trajectory":
        return Trajectory(self.times.copy(), np.zeros_like(self.u), np.zeros_like(self.b))


def zero_trajectory(lattice: ModeLattice, times: np.ndarray) -> Trajectory:
    shape = (len(times), 3) + lattice.shape
    return Trajectory(times, np.zeros(shape, np.complex128), np.zeros(shape, np.complex128))


def sample_linear_trajectory(noise: NoiseSpec, config: SolverConfig, which: str) -> Trajectory:
    """Exact stationary OU sampling of (u1, b1) on the solver grid for one mode."""
    ens = CoupledOUEnsemble(noise)
    ens.burn_in_stationary()
    nt = config.nsteps
    times = config.dt * np.arange(nt + 1)
    traj = zero_trajectory(noise.lattice, times)
    kind = which
    traj.u[0] = ens.field("u", kind).coeff
    traj.b[0] = ens.field("b", kind).coeff
    for n in range(nt):
        ens.step(config.dt)
        traj.u[n + 1] = ens.field("u", kind).coeff
        traj.b[n + 1] = ens.field("b", kind).coeff
    return traj


class ProductEngine:
    """Pseudo-spectral MHD products with optional dealiasing."""

    # components 0-5: the symmetric u-equation slots (i1 <= j); 6-8: the
    # antisymmetric b-equation slots (i1 < j)
    _U_INDEX = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
    _B_INDEX = np.array([[0, 6, 7], [6, 0, 8], [7, 8, 0]])
    _B_SIGN = np.array([[0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, -1.0, 0.0]])

    def __init__(self, lattice: ModeLattice, dealias: bool):
        self.lattice = lattice
        self.mask = dealias_mask(lattice) if dealias else None

    def grids(self, coeff: np.ndarray) -> np.ndarray:
        """Real grid samples of a stack of real fields' coefficients."""
        return dft_inverse(self.lattice, coeff).real

    def level_grids(self, traj: Trajectory, nt: int, out: np.ndarray | None = None) -> np.ndarray:
        """Real grids of the (u, b) stack of `traj` at steps 0 .. nt-1, shape
        (nt, 2, 3) + cube, one inverse transform per step, written into `out`
        when given."""
        if out is None:
            out = np.empty((nt, 2, 3) + self.lattice.shape)
        for n in range(nt):
            out[n] = self.grids(np.stack(traj.at(n)))
        return out

    def pair_matrix(self, pairs: list) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients of the MHD product N(x, y) summed over `pairs`.

        Each x, y is a (u, b) stack of grids, shape (2, 3) + cube.  Returns
        (pu, pb), each (3, 3) + cube: pu[i1, j] is the symmetric part of
        x_u^i1 y_u^j - x_b^i1 y_b^j and pb[i1, j] the antisymmetric part of
        x_b^i1 y_u^j - x_u^i1 y_b^j.  The sum is taken on the grid, so the
        nine independent components take one forward transform.
        """
        uu = bu = 0.0
        for (xu, xb), (yu, yb) in pairs:
            uu = uu + xu[:, None] * yu[None, :] - xb[:, None] * yb[None, :]
            bu = bu + xb[:, None] * yu[None, :] - xu[:, None] * yb[None, :]
        sym = 0.5 * (uu + uu.swapaxes(0, 1))
        anti = 0.5 * (bu - bu.swapaxes(0, 1))
        prods = np.concatenate(
            (sym[[0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]], anti[[0, 0, 1], [1, 2, 2]])
        )
        out = dft_forward(self.lattice, prods)
        if self.mask is not None:
            out *= self.mask
        pu = out[self._U_INDEX]
        pb = self._B_SIGN[:, :, None, None, None] * out[self._B_INDEX]
        return pu, pb


def _apply_pdj(ops: OperatorSet, pair: np.ndarray) -> np.ndarray:
    """-1/2 sum_{i1 j} P^{i i1} D_j (pair[i1, j]) as a vector coefficient array."""
    dsum = np.einsum("j...,aj...->a...", ops.dmult, pair)
    return -0.5 * np.einsum("ia...,a...->i...", ops.proj, dsum)


def diamond_constants(times: np.ndarray, scheme: SchemeSpec, lattice: ModeLattice) -> np.ndarray:
    """The diamond tables [i1, l, j] at every step of the time grid, shape
    (nt+1, 2, 2, 3, 3, 3) indexed [n, equation, target flavor] with u = 0 and
    b = 1, from the brackets D = K_a - K_b of `renorm.ck_brackets` (two
    time-batched mode sums): D^T + D for the u-equation and D^T - D for the
    b-equation, ^T = transpose [i1, l, j] -> [j, l, i1].  Stored complex, so
    the fold in `_drift` casts nothing per call (same values; the mixed
    real-complex einsum is 2-3x slower)."""
    D = renorm.ck_brackets(np.asarray(times, dtype=np.float64), scheme, lattice)
    return _bracket_tables(D, b_sign=-1.0).astype(np.complex128)


def _bracket_tables(D: np.ndarray, b_sign: float) -> np.ndarray:
    """D^T + D for the u-equation and D^T + b_sign D for the b-equation, on
    brackets D indexed [..., equation, flavor, i1, l, j]."""
    return np.swapaxes(D, -3, -1) + np.array([1.0, b_sign])[:, None, None, None, None] * D


def _drift(
    eng: ProductEngine,
    ops: OperatorSet,
    g1: np.ndarray,
    g2: np.ndarray | None = None,
    gw: np.ndarray | None = None,
    target: np.ndarray | None = None,
    tables: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Drift (fu, fb) of the next level at one step from the real grids of
    the levels below, each a (u, b) stack of shape (2, 3) + cube.

    Level 2 (y1 only) sums N(y1, y1), level 3 (y1, y2) N(2 y1, y2) and level 4
    (y1, y2 and w = y3 + y4) N(2 (y1 + y2) + w, w) + N(y2, y2).  With the
    step's diamond `tables` (a row of `diamond_constants`) the linear
    terms on `target`, the coefficients of y1 (level 3) or y2 + w (level 4),
    are folded into the pair matrices before the projected derivative.
    """
    if g2 is None:
        pairs = [(g1, g1)]
    elif gw is None:
        pairs = [(2.0 * g1, g2)]
    else:
        pairs = [(2.0 * (g1 + g2) + gw, gw), (g2, g2)]
    pu, pb = eng.pair_matrix(pairs)
    if tables is not None:
        for pm, eq_tables in zip((pu, pb), tables):
            for tab, y in zip(eq_tables, target):
                pm += np.einsum("alj,l...->aj...", tab, y)
    return _apply_pdj(ops, pu), _apply_pdj(ops, pb)


def solve_level2(
    traj1: Trajectory,
    ops: OperatorSet,
    config: SolverConfig,
    forcing_out: list | None = None,
    grids1: np.ndarray | None = None,
) -> Trajectory:
    """Mild solution of the second level driven by Wick squares of the first.

    `grids1` holds the real grids of y1 at steps 0 .. nt-1, as
    `ProductEngine.level_grids` returns them; they are transformed here when
    not given."""
    lattice = ops.lattice
    eng = ProductEngine(lattice, config.dealias)
    nt = config.nsteps
    if len(traj1.times) != nt + 1:
        raise ValueError("linear level not sampled on the solver grid")
    if grids1 is None:
        grids1 = eng.level_grids(traj1, nt)
    out = zero_trajectory(lattice, traj1.times)
    decay, w = ops.stepper(config.dt)
    for n in range(nt):
        fu, fb = _drift(eng, ops, grids1[n])
        if forcing_out is not None:
            forcing_out.append((fu, fb))
        out.u[n + 1] = decay * out.u[n] + w * fu
        out.b[n + 1] = decay * out.b[n] + w * fb
    return out


def solve_level3(
    traj1: Trajectory,
    traj2: Trajectory,
    ops: OperatorSet,
    config: SolverConfig,
    diamonds: np.ndarray | None = None,
    forcing_out: list | None = None,
    grids: np.ndarray | None = None,
) -> Trajectory:
    """Third level: mixed products of the first two levels; in approximate
    mode the diamond products add the constant-weighted linear terms.

    `grids` holds the real grids of y1 and y2 at steps 0 .. nt-1, shape
    (2, nt, 2, 3) + cube; they are transformed here when not given."""
    lattice = ops.lattice
    eng = ProductEngine(lattice, config.dealias)
    nt = config.nsteps
    if grids is None:
        grids = np.stack([eng.level_grids(t, nt) for t in (traj1, traj2)])
    out = zero_trajectory(lattice, traj1.times)
    decay, w = ops.stepper(config.dt)
    for n in range(nt):
        fu, fb = _drift(
            eng, ops, grids[0, n], grids[1, n], target=np.stack(traj1.at(n)),
            tables=None if diamonds is None else diamonds[n],
        )
        if forcing_out is not None:
            forcing_out.append((fu, fb))
        out.u[n + 1] = decay * out.u[n] + w * fu
        out.b[n + 1] = decay * out.b[n] + w * fb
    return out


def solve_K(
    traj1: Trajectory,
    ops: OperatorSet,
    config: SolverConfig,
    forcing_out: list | None = None,
) -> Trajectory:
    """Auxiliary pair dK = (Delta K + y1) dt, K(0) = 0, in mild form."""
    nt = config.nsteps
    out = zero_trajectory(ops.lattice, traj1.times)
    decay, w = ops.stepper(config.dt)
    for n in range(nt):
        if forcing_out is not None:
            forcing_out.append((traj1.u[n], traj1.b[n]))
        out.u[n + 1] = decay * out.u[n] + w * traj1.u[n]
        out.b[n + 1] = decay * out.b[n] + w * traj1.b[n]
    return out


def mild_residual(
    traj: Trajectory, ops: OperatorSet, forcing: list[tuple[np.ndarray, np.ndarray]]
) -> float:
    """Max over steps of the coefficient-l2 residual of the differential form,
    (y_{n+1} - y_n)/dt - (Delta y_n + F_n)."""
    dt = float(traj.times[1] - traj.times[0])
    _, lam = killed_mode_rule(ops.lam)
    worst = 0.0
    for n in range(len(traj.times) - 1):
        fu, fb = forcing[n]
        ru = (traj.u[n + 1] - traj.u[n]) / dt - (-lam * traj.u[n] + fu)
        rb = (traj.b[n + 1] - traj.b[n]) / dt - (-lam * traj.b[n] + fb)
        worst = max(worst, float(np.sqrt(np.sum(np.abs(ru) ** 2 + np.abs(rb) ** 2))))
    return worst


@dataclass
class PicardReport:
    increments: list[float]
    converged: bool
    iterations: int

    def contracting(self) -> bool:
        if len(self.increments) < 2:
            return True
        r = [b / a for a, b in zip(self.increments, self.increments[1:]) if a > 0]
        return bool(r) and max(r) < 1.0


@dataclass
class HierarchyRun:
    which: str
    config: SolverConfig
    levels: dict
    K: Trajectory
    report: PicardReport

    def assembled(self) -> Trajectory:
        t = self.levels[1].times
        u = sum(self.levels[l].u for l in (1, 2, 3, 4))
        b = sum(self.levels[l].b for l in (1, 2, 3, 4))
        return Trajectory(t, u, b)


def _project_initial(lattice: ModeLattice, y0: np.ndarray) -> np.ndarray:
    proj = lattice.leray_tensor()
    return np.einsum("ij...,j...->i...", proj, y0)


def picard_y4(
    traj1: Trajectory,
    traj2: Trajectory,
    traj3: Trajectory,
    u0: np.ndarray,
    b0: np.ndarray,
    ops: OperatorSet,
    config: SolverConfig,
    diamonds: np.ndarray | None = None,
    grids: np.ndarray | None = None,
) -> tuple[Trajectory, PicardReport]:
    """Fixed-point iteration for the remainder level.

    Each sweep integrates the mild equation with forcing assembled entirely
    from the previous iterate (the self-coupling of the renormalized
    resonant product is therefore lagged by one iteration); increments are
    measured in the discrete C^alpha surrogate norm and must decrease
    geometrically below the configured tolerance.

    `grids` holds the real grids of y1 and y2 at steps 0 .. nt-1, shape
    (2, nt, 2, 3) + cube; when not given they are transformed here, once
    for all sweeps, and released on return.
    """
    lattice = ops.lattice
    eng = ProductEngine(lattice, config.dealias)
    nt = config.nsteps
    decay, w = ops.stepper(config.dt)
    times = traj1.times
    if grids is None:
        grids = np.stack([eng.level_grids(t, nt) for t in (traj1, traj2)])
    alpha = config.contraction_alpha

    init_u = _project_initial(lattice, u0) - traj1.u[0]
    init_b = _project_initial(lattice, b0) - traj1.b[0]

    cur = zero_trajectory(lattice, times)
    cur.u[0], cur.b[0] = init_u, init_b
    for n in range(nt):
        cur.u[n + 1] = decay * cur.u[n]
        cur.b[n + 1] = decay * cur.b[n]

    increments: list[float] = []
    converged = False
    it = 0
    for it in range(1, config.picard_max_iter + 1):
        # the sweep overwrites `cur` step by step: step n + 1 of the new
        # iterate needs the new value at n (already written) and the old one
        # (held in `old`); step 0 is the same initial data in every iterate
        old = np.stack(cur.at(0))
        inc = 0.0
        for n in range(nt):
            w_n = np.stack(traj3.at(n)) + old
            fu, fb = _drift(
                eng, ops, grids[0, n], grids[1, n], eng.grids(w_n),
                np.stack(traj2.at(n)) + w_n,
                None if diamonds is None else diamonds[n],
            )
            old = np.stack(cur.at(n + 1))
            cur.u[n + 1] = decay * cur.u[n] + w * fu
            cur.b[n + 1] = decay * cur.b[n] + w * fb
            diff = (np.stack(cur.at(n + 1)) - old).reshape((6,) + lattice.shape)
            inc = max(inc, float(np.max(holder_norm_batch(lattice, diff, alpha))))
        increments.append(inc)
        if inc < config.tol:
            converged = True
            break
    report = PicardReport(increments, converged, it)
    if not converged:
        logger.warning(
            "picard iteration did not contract below %.1e in %d sweeps: increments %s",
            config.tol,
            it,
            ", ".join(f"{x:.2e}" for x in increments[-5:]),
        )
    return cur, report


def paracontrolled_sharp(
    run_levels: dict, K: Trajectory, ops: OperatorSet, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Diagnostic remainder of the paracontrolled ansatz at step n.

    sharp_u = u4 + 1/2 sum P^{i i1} D_j [ pi_lt(u3+u4, K_u)^... ] with the
    four paraproduct slots of the ansatz; the result should be smoother than
    u4 itself (checked as a regression diagnostic, not a solver path).
    """
    lattice = ops.lattice
    u3, b3 = run_levels[3].u[n], run_levels[3].b[n]
    u4, b4 = run_levels[4].u[n], run_levels[4].b[n]
    wu, wb = u3 + u4, b3 + b4
    ku, kb = K.u[n], K.b[n]

    def plt(x, y):
        """The 3 x 3 paraproducts pi_lt(x^i1, y^j)."""
        return np.array([
            [paraproduct_lt(ScalarField(lattice, xi), ScalarField(lattice, yj)).coeff for yj in y]
            for xi in x
        ])

    # the slots are bilinear: u-equation P + P^T, b-equation Q - Q^T
    P = plt(wu, ku) - plt(wb, kb)
    Q = plt(wb, ku) - plt(wu, kb)
    return u4 - _apply_pdj(ops, P + P.swapaxes(0, 1)), b4 - _apply_pdj(ops, Q - Q.swapaxes(0, 1))


def run_hierarchy(
    noise: NoiseSpec | None,
    lattice: ModeLattice,
    scheme: SchemeSpec,
    config: SolverConfig,
    which: str,
    u0: np.ndarray,
    b0: np.ndarray,
) -> HierarchyRun:
    """Drive all levels; a None noise spec runs the deterministic limit."""
    ops = OperatorSet(which, scheme, lattice)
    nt = config.nsteps
    times = config.dt * np.arange(nt + 1)
    if noise is None:
        traj1 = zero_trajectory(lattice, times)
    else:
        traj1 = sample_linear_trajectory(noise, config, which)
    use_k = config.use_constants and which == "approx" and noise is not None
    diamonds = diamond_constants(times, scheme, lattice) if use_k else None
    eng = ProductEngine(lattice, config.dealias)
    grids = np.empty((2, nt, 2, 3) + lattice.shape)  # y1 and y2, shared by levels 2-4
    eng.level_grids(traj1, nt, grids[0])
    traj2 = solve_level2(traj1, ops, config, grids1=grids[0])
    eng.level_grids(traj2, nt, grids[1])
    traj3 = solve_level3(traj1, traj2, ops, config, diamonds, grids=grids)
    ktraj = solve_K(traj1, ops, config)
    traj4, report = picard_y4(traj1, traj2, traj3, u0, b0, ops, config, diamonds, grids)
    levels = {1: traj1, 2: traj2, 3: traj3, 4: traj4}
    return HierarchyRun(which, config, levels, ktraj, report)


# -- drift-coefficient bookkeeping ----------------------------------------------


@dataclass
class DriftTables:
    """The bracketed constant combinations of the corrected system.

    u_from_u etc. are the assembled (3, 3, 3) tensors [i, i1, j]; `slots`
    lists every scalar constant instance entering the four brackets as
    (kind, k, flavor, sign, h-product, placement) (the count audit: 8 per
    bracket, 4 brackets, 32 total).
    """

    u_from_u: np.ndarray
    u_from_b: np.ndarray
    b_from_u: np.ndarray
    b_from_b: np.ndarray
    slots: list

    def count(self) -> int:
        return len(self.slots)


def drift_assembly(scheme: SchemeSpec, t: float, lattice: ModeLattice) -> DriftTables:
    """Assemble the 32 drift coefficients of the corrected equations at one
    time: the single-t view of `diamond_constants`.

    For each equation (u, b) and each target flavor, the bracket is

        C_a + tC_a - C_b - tC_b  (at [i, i1, j])  +  the same at [j, i1, i],

    with (a, b) = (1, 2) for the u-equation and (3, 4) for the b-equation.
    The slots are the signed terms of `renorm.ck_bracket_terms`, each at
    both placements.
    """
    # b_sign +1 gives the b-equation tables in the symmetric form D^T + D; the
    # solver's `diamond_constants` takes -1, D^T - D.  Which is right is open.
    tables = _bracket_tables(renorm.ck_brackets(t, scheme, lattice), b_sign=1.0)
    slots = [
        (kind, k, flavor, sign, combo, place)
        for a, b in renorm.CK_BRACKETS
        for flavor in ("u", "b")
        for kind, k, sign, combo in renorm.ck_bracket_terms(a, b, flavor)
        for place in ("iij", "jii")
    ]
    return DriftTables(tables[0, 0], tables[0, 1], tables[1, 0], tables[1, 1], slots)


def energy(u: np.ndarray, b: np.ndarray) -> float:
    """Coefficient-space energy sum ||u||_{L2}^2 + ||b||_{L2}^2."""
    return float(np.sum(np.abs(u) ** 2) + np.sum(np.abs(b) ** 2))


def taylor_green(lattice: ModeLattice, amplitude: float = 1.0) -> np.ndarray:
    """Divergence-free test field (sin x cos y cos z, -cos x sin y cos z, 0)."""
    x1, x2, x3 = lattice.grid()
    g = np.stack(
        [
            amplitude * np.sin(x1) * np.cos(x2) * np.cos(x3) * np.ones(lattice.shape),
            -amplitude * np.cos(x1) * np.sin(x2) * np.cos(x3) * np.ones(lattice.shape),
            np.zeros(lattice.shape),
        ]
    )
    return dft_forward(lattice, g)


def trajectory_to_csv(traj: Trajectory, lattice: ModeLattice, path, family: str = "u") -> None:
    """Export one family of a trajectory as CSV rows (t, k1, k2, k3, component,
    re, im); zero coefficients are skipped.  Values are written as the repr of
    Python floats, which reads back bit for bit."""
    import csv

    data = traj.u if family == "u" else traj.b
    modes = lattice.mode_table().tolist()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "k1", "k2", "k3", "component", "re", "im"])
        for n, t in enumerate(traj.times.tolist()):
            flat = data[n].reshape(3, -1)
            for comp in range(3):
                nz = np.nonzero(flat[comp])[0]
                w.writerows(
                    [repr(t), *modes[i], comp, repr(c.real), repr(c.imag)]
                    for i, c in zip(nz.tolist(), flat[comp, nz].tolist())
                )


def level_norm_series(run: HierarchyRun, alpha: float = -0.6) -> dict:
    """Hoelder norms of every level at every stored time (u and b families),
    one batched block pass over the six components per level and time."""
    lattice_n = run.levels[1].u.shape[-1]
    lattice = ModeLattice((lattice_n - 1) // 2)
    out = {}
    for l, traj in run.levels.items():
        norms = np.array([
            holder_norm_batch(lattice, np.concatenate(traj.at(n)), alpha)
            for n in range(len(traj.times))
        ])
        out[f"level{l}_u"] = np.max(norms[:, :3], axis=1).tolist()
        out[f"level{l}_b"] = np.max(norms[:, 3:], axis=1).tolist()
    return out
