"""Mild-solution hierarchy for the split systems.

The solution splits into a Gaussian level y1, forced linear levels y2, y3,
an auxiliary smoothing pair K, and a Picard fixed point for the remainder
y4.  Each level is one (u, b) stack: a `Trajectory` holds one array of shape
(nt+1, 2, 3) + cube, and the solver steps, folds and projects both equations
of a level together.  Levels 2, 3 and K share one step loop, `_mild`; each
level is integrated in mild form with a first-order exponential integrator,

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

NORM_ALPHA = -0.6  # C^alpha exponent of the Picard increments and `level_norm_series`


@dataclass
class SolverConfig:
    dt: float
    T: float
    picard_max_iter: int = 40
    tol: float = 1e-9
    dealias: bool = True
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
        self.scheme = scheme
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


class Trajectory:
    """A (u, b) trajectory held as one complex array `y` of shape
    (nt+1, 2, 3) + lattice.shape, indexed [step, field (u = 0, b = 1),
    component]; `u` and `b` are views of it.  `Trajectory(times, u, b)`
    stacks two arrays, `Trajectory(times, y=y)` wraps `y` without a copy."""

    def __init__(self, times: np.ndarray, u=None, b=None, *, y: np.ndarray | None = None):
        self.times = times
        self.y = np.stack((u, b), axis=1) if y is None else y

    @property
    def u(self) -> np.ndarray:
        return self.y[:, 0]

    @property
    def b(self) -> np.ndarray:
        return self.y[:, 1]

    def at(self, n: int) -> np.ndarray:
        return self.y[n]


def zero_trajectory(lattice: ModeLattice, times: np.ndarray) -> Trajectory:
    return Trajectory(times, y=np.zeros((len(times), 2, 3) + lattice.shape, np.complex128))


def sample_linear_trajectory(noise: NoiseSpec, config: SolverConfig, which: str) -> Trajectory:
    """Exact stationary OU sampling of (u1, b1) on the solver grid for one mode."""
    ens = CoupledOUEnsemble(noise)
    ens.burn_in_stationary()
    nt = config.nsteps
    traj = zero_trajectory(noise.lattice, config.dt * np.arange(nt + 1))
    for n in range(nt + 1):
        if n:
            ens.step(config.dt)
        traj.y[n] = [ens.field(f, which).coeff for f in ("u", "b")]
    return traj


class ProductEngine:
    """Pseudo-spectral MHD products with optional dealiasing."""

    # the slots [equation, i1, j] of the nine transformed components:
    # 0-5 the symmetric u-equation slots (i1 <= j), 6-8 the antisymmetric
    # b-equation slots (i1 < j), whose lower triangle takes a sign
    _INDEX = np.array([[[0, 1, 2], [1, 3, 4], [2, 4, 5]], [[0, 6, 7], [6, 0, 8], [7, 8, 0]]])
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
            out[n] = self.grids(traj.y[n])
        return out

    def pair_matrix(self, pairs: list) -> np.ndarray:
        """Coefficients of the MHD product N(x, y) summed over `pairs`.

        Each x, y is a (u, b) stack of grids, shape (2, 3) + cube.  Returns
        p, shape (2, 3, 3) + cube: p[0, i1, j] is the symmetric part of
        x_u^i1 y_u^j - x_b^i1 y_b^j and p[1, i1, j] the antisymmetric part of
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
        p = out[self._INDEX]
        p[1] *= self._B_SIGN[:, :, None, None, None]
        return p


def _apply_pdj(ops: OperatorSet, pair: np.ndarray) -> np.ndarray:
    """-1/2 sum_{i1 j} P^{i i1} D_j (pair[e, i1, j]) for both equations e, a
    (2, 3) + cube coefficient array."""
    dsum = np.einsum("j...,eaj...->ea...", ops.dmult, pair)
    return -0.5 * np.einsum("ia...,ea...->ei...", ops.proj, dsum)


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
) -> np.ndarray:
    """Drift of the next level at one step, a (u, b) stack of shape (2, 3) +
    cube, from the real grids of the levels below, each a (u, b) stack.

    Level 2 (y1 only) sums N(y1, y1), level 3 (y1, y2) N(2 y1, y2) and level 4
    (y1, y2 and w = y3 + y4) N(2 (y1 + y2) + w, w) + N(y2, y2).  With the
    step's diamond `tables` (a row of `diamond_constants`) the linear
    terms on `target`, the coefficients of y1 (level 3) or y2 + w (level 4),
    are folded into the pair matrices before the projected derivative: one
    matrix product of the tables, as rows (equation, i1, j) and columns
    (flavor, l), with the six rows of `target`.
    """
    if g2 is None:
        pairs = [(g1, g1)]
    elif gw is None:
        pairs = [(2.0 * g1, g2)]
    else:
        pairs = [(2.0 * (g1 + g2) + gw, gw), (g2, g2)]
    p = eng.pair_matrix(pairs)
    if tables is not None:
        fold = tables.transpose(0, 2, 4, 1, 3).reshape(18, 6)
        p += (fold @ target.reshape(6, -1)).reshape(p.shape)
    return _apply_pdj(ops, p)


def _mild(ops: OperatorSet, config: SolverConfig, times: np.ndarray, drift,
          forcing_out: list | None) -> Trajectory:
    """Mild solution from zero data of dy = (Delta y + F) dt, with F at step n
    the (u, b) stack drift(n), appended to `forcing_out` when given."""
    out = zero_trajectory(ops.lattice, times)
    decay, w = ops.stepper(config.dt)
    for n in range(config.nsteps):
        f = drift(n)
        if forcing_out is not None:
            forcing_out.append(f)
        out.y[n + 1] = decay * out.y[n] + w * f
    return out


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
    eng = ProductEngine(ops.lattice, config.dealias)
    nt = config.nsteps
    if len(traj1.times) != nt + 1:
        raise ValueError("linear level not sampled on the solver grid")
    if grids1 is None:
        grids1 = eng.level_grids(traj1, nt)
    return _mild(ops, config, traj1.times, lambda n: _drift(eng, ops, grids1[n]), forcing_out)


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
    eng = ProductEngine(ops.lattice, config.dealias)
    if grids is None:
        grids = np.stack([eng.level_grids(t, config.nsteps) for t in (traj1, traj2)])

    def drift(n):
        tables = None if diamonds is None else diamonds[n]
        return _drift(eng, ops, grids[0, n], grids[1, n], target=traj1.y[n], tables=tables)

    return _mild(ops, config, traj1.times, drift, forcing_out)


def solve_K(
    traj1: Trajectory,
    ops: OperatorSet,
    config: SolverConfig,
    forcing_out: list | None = None,
) -> Trajectory:
    """Auxiliary pair dK = (Delta K + y1) dt, K(0) = 0, in mild form."""
    return _mild(ops, config, traj1.times, lambda n: traj1.y[n], forcing_out)


def mild_residual(traj: Trajectory, ops: OperatorSet, forcing: list) -> float:
    """Max over steps of the coefficient-l2 residual of the differential form,
    (y_{n+1} - y_n)/dt - (Delta y_n + F_n), with F_n the (u, b) stack
    forcing[n]."""
    dt = float(traj.times[1] - traj.times[0])
    _, lam = killed_mode_rule(ops.lam)
    worst = 0.0
    for n in range(len(traj.times) - 1):
        r = (traj.y[n + 1] - traj.y[n]) / dt - (-lam * traj.y[n] + forcing[n])
        worst = max(worst, float(np.sqrt(np.sum(np.abs(r) ** 2))))
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
        y = self.levels[1].y + self.levels[2].y
        for l in (3, 4):
            y += self.levels[l].y
        return Trajectory(self.levels[1].times, y=y)


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
    measured in the discrete C^alpha surrogate norm, alpha = `NORM_ALPHA`,
    and must decrease geometrically below the configured tolerance.

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

    cur = zero_trajectory(lattice, times)
    y0 = np.stack((u0, b0))
    cur.y[0] = np.einsum("ij...,ej...->ei...", lattice.leray_tensor(), y0) - traj1.y[0]
    for n in range(nt):
        cur.y[n + 1] = decay * cur.y[n]

    increments: list[float] = []
    converged = False
    it = 0
    for it in range(1, config.picard_max_iter + 1):
        # the sweep overwrites `cur` step by step: step n + 1 of the new
        # iterate needs the new value at n (already written) and the old one
        # (held in `old`); step 0 is the same initial data in every iterate
        old = cur.y[0]
        inc = 0.0
        for n in range(nt):
            w_n = traj3.y[n] + old
            f = _drift(
                eng, ops, grids[0, n], grids[1, n], eng.grids(w_n), traj2.y[n] + w_n,
                None if diamonds is None else diamonds[n],
            )
            old = cur.y[n + 1].copy()
            cur.y[n + 1] = decay * cur.y[n] + w * f
            diff = (cur.y[n + 1] - old).reshape((6,) + lattice.shape)
            inc = max(inc, float(np.max(holder_norm_batch(lattice, diff, NORM_ALPHA))))
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


def paracontrolled_sharp(run_levels: dict, K: Trajectory, ops: OperatorSet, n: int) -> np.ndarray:
    """Diagnostic remainder of the paracontrolled ansatz at step n.

    sharp_u = u4 + 1/2 sum P^{i i1} D_j [ pi_lt(u3+u4, K_u)^... ] with the
    four paraproduct slots of the ansatz; the result should be smoother than
    u4 itself (checked as a regression diagnostic, not a solver path).
    Returns the (u, b) stack (sharp_u, sharp_b).
    """
    lattice = ops.lattice
    y4 = run_levels[4].y[n]
    wu, wb = run_levels[3].y[n] + y4
    ku, kb = K.y[n]

    def plt(x, y):
        """The 3 x 3 paraproducts pi_lt(x^i1, y^j)."""
        return np.array([
            [paraproduct_lt(ScalarField(lattice, xi), ScalarField(lattice, yj)).coeff for yj in y]
            for xi in x
        ])

    # the slots are bilinear: u-equation P + P^T, b-equation Q - Q^T
    P = plt(wu, ku) - plt(wb, kb)
    Q = plt(wb, ku) - plt(wu, kb)
    return y4 - _apply_pdj(ops, np.stack((P + P.swapaxes(0, 1), Q - Q.swapaxes(0, 1))))


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


def level_norm_series(run: HierarchyRun) -> dict:
    """`NORM_ALPHA` Hoelder norms of every level at every stored time (u and b
    families), one batched block pass over the six components per level and time."""
    lattice = ModeLattice((run.levels[1].y.shape[-1] - 1) // 2)
    out = {}
    for l, traj in run.levels.items():
        norms = np.array([
            holder_norm_batch(lattice, traj.y[n].reshape((6,) + lattice.shape), NORM_ALPHA)
            for n in range(len(traj.times))
        ])
        out[f"level{l}_u"] = np.max(norms[:, :3], axis=1).tolist()
        out[f"level{l}_b"] = np.max(norms[:, 3:], axis=1).tolist()
    return out
