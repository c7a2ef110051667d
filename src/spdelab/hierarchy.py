"""Mild-solution hierarchy for the split systems.

The solution splits into a Gaussian level y1, forced linear levels y2, y3
and the remainder y4, the fixed point of the Picard map; the auxiliary
smoothing pair K of the paracontrolled ansatz is solved on request
(`solve_K`), not as part of a run.  Each level is one (u, b) stack: a
`Trajectory` holds one array of shape (nt+1, 2, 3, n, n, N+1), the half
layout of `torus.half_spectrum` (the fields are real), and the solver
steps, folds and projects both equations of a level together on it.  Full
coefficient cubes appear only at the edge: `Trajectory.u`, `.b` and `.at`
mirror them out by `torus.full_spectrum`, and `Trajectory(times, u, b)`
and the initial data of `run_hierarchy` take them in.  Levels 2, 3 and 4
and K run through one step loop, `_mild`, a first-order exponential
integrator of the mild form,

    y(t+dt) = e^{-lam dt} y(t) + dt phi1(lam dt) F(t),
    phi1(z) = (1 - e^{-z}) / z,

where lam(k) = |k|^2 f(eps k) in approximate mode and |k|^2 in continuum
mode.

Each level's drift is one bilinear product.  For (u, b) pairs x, y let
N(x, y) be the symmetric part of x_u (x) y_u - x_b (x) y_b (the u-equation,
6 components) and the antisymmetric part of x_b (x) y_u - x_u (x) y_b (the
b-equation, 3 components).  Level 2 is driven by N(y1, y1), level 3 by
N(2 y1, y2) and level 4 by N(2 (y1 + y2) + w, w) + N(y2, y2), w = y3 + y4.
The products are summed on the grid, transformed once by the operator set's
one `ProductEngine` and hit with -1/2 P D_j.  The transform is the band
analysis of `torus.HalfBand`: it computes only the modes the 2/3 rule keeps
(max_i |k_i| <= 2N/3), so it is the dealiasing too.  In approximate mode
the diamond products of mixed levels add constant-weighted linear terms on
y1 (level 3) and y2 + w (level 4), built from the second-chaos constant
tensors and folded into the same pair matrices.  The Wick constants of the
level-2 squares never appear: they only shift the k = 0 mode, where the
Leray symbol vanishes.

Work done once per run: the diamond tables at every step, from two
time-batched mode sums over the whole time grid (one per wiring, with the
signs and cutoff products of the 16 constants read from one table); the real
grids of y1 and y2 at every step, in one array that levels 2, 3 and 4 share
and no result keeps.  y1 is white-noise driven and fills the half layout,
so its grids take one `half_inverse`; y2 is driven by N(y1, y1) alone and
starts at 0, so its spectra live on the band and its grids are synthesised
there (`HalfBand.inverse`, by the small matrix products of the
Littlewood-Paley blocks).  Level 4 is one `_mild`
call in Gauss-Seidel order: the drift at step n reads the state just
computed at step n.  The step is explicit, so that forward-stepped solution
is the fixed point of the Picard (Jacobi) map, whose drift reads a given
iterate: applying the map to it returns it bit for bit, and the report's
fixed-point residual is given in closed form (0.0 for finite data, NaN
otherwise).  Per step: the grid of w by `half_inverse` (w = y3 + y4 carries
the initial data, which are not band-limited) and one band analysis.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import constants as renorm
from .bony import paraproduct_lt
from .schemes import (
    SchemeSpec,
    dj_eps_multiplier,
    eps_laplacian_rate,
    killed_mode_rule,
)
from .torus import (
    HalfBand,
    ModeLattice,
    ScalarField,
    full_spectrum,
    half_forward,
    half_inverse,
    half_spectrum,
    holder_norm_half,
)
from .fields import CoupledOUEnsemble, NoiseSpec

logger = logging.getLogger(__name__)

NORM_ALPHA = -0.6  # C^alpha exponent of `level_norm_series`
NORM_STEPS = 16  # stored steps per block pass of `level_norm_series`


@dataclass
class SolverConfig:
    dt: float
    T: float
    tol: float = 1e-9
    use_constants: bool = True

    def __post_init__(self):
        if not (0 < self.dt < np.inf and 0 < self.T < np.inf):  # nan fails too
            raise ValueError("dt and T must be positive and finite")
        if not 0 < self.tol < np.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.nsteps < 1 or abs(self.T / self.dt - self.nsteps) > 1e-9 * self.T / self.dt:
            raise ValueError(f"T = {self.T:g} is not a whole number of steps dt = {self.dt:g}")

    @property
    def nsteps(self) -> int:
        return round(self.T / self.dt)


class OperatorSet:
    """Multipliers of one mode (approximate or continuum) on the half layout:
    the rate lam, D_j and P."""

    def __init__(self, which: str, scheme: SchemeSpec, lattice: ModeLattice):
        if which not in ("approx", "cont"):
            raise ValueError(f"mode must be 'approx' or 'cont', got {which!r}")
        self.which = which
        self.lattice = lattice
        self.scheme = scheme
        if which == "approx":
            lam = eps_laplacian_rate(self.scheme, lattice)
            dmult = np.stack(np.broadcast_arrays(
                *(dj_eps_multiplier(self.scheme, lattice, j) for j in (1, 2, 3))))
        else:
            lam = lattice.ksq
            dmult = 1j * lattice.k_stack().astype(np.complex128)
        self.lam = half_spectrum(lattice, lam)
        self.dmult = half_spectrum(lattice, dmult)
        self.proj = half_spectrum(lattice, lattice.leray_tensor())
        self.engine = ProductEngine(lattice)

    def stepper(self, dt: float):
        """(decay, dt*phi1) factors on the half layout; killed modes decay to 0
        and take no forcing."""
        alive, rate = killed_mode_rule(self.lam)
        decay = np.where(alive, np.exp(-rate * dt), 0.0)
        z = rate * dt
        small = np.abs(z) < 1e-12
        phi1 = np.where(small, 1.0 - z / 2.0, -np.expm1(-z) / np.where(small, 1.0, z))
        return decay, np.where(alive, dt * phi1, 0.0)


class Trajectory:
    """A (u, b) trajectory of real fields held as one complex array `y` of
    shape (nt+1, 2, 3, n, n, N+1), indexed [step, field (u = 0, b = 1),
    component] and then the half layout of `torus.half_spectrum`.

    `u`, `b` and `at(n)` return full coefficient cubes, shape (nt+1, 3) +
    cube and (2, 3) + cube, mirrored out by `torus.full_spectrum`: they are
    new arrays, not views.  `Trajectory(times, u, b)` cuts two full-cube
    arrays to the half layout; `Trajectory(times, y=y)` wraps `y` without a
    copy."""

    def __init__(self, times: np.ndarray, u=None, b=None, *, y: np.ndarray | None = None):
        self.times = times
        if y is None:
            y = half_spectrum(ModeLattice(u.shape[-1] // 2), np.stack((u, b), axis=1))
        self.y = y

    def _full(self, half: np.ndarray) -> np.ndarray:
        return full_spectrum(ModeLattice(self.y.shape[-1] - 1), half)

    @property
    def u(self) -> np.ndarray:
        return self._full(self.y[:, 0])

    @property
    def b(self) -> np.ndarray:
        return self._full(self.y[:, 1])

    def at(self, n: int) -> np.ndarray:
        return self._full(self.y[n])

    def every(self, k: int) -> Trajectory:
        """Every k-th step from step 0, as views of `times` and `y`."""
        return Trajectory(self.times[::k], y=self.y[::k])


def zero_trajectory(lattice: ModeLattice, times: np.ndarray) -> Trajectory:
    shape = (len(times), 2, 3, lattice.n, lattice.n, lattice.N + 1)
    return Trajectory(times, y=np.zeros(shape, np.complex128))


def sample_linear_trajectory(noise: NoiseSpec, config: SolverConfig, which: str) -> Trajectory:
    """Exact stationary OU sampling of (u1, b1) on the solver grid for one mode.

    The noise spec's dt sets the burn-in law, so it must be the solver's."""
    if noise.dt != config.dt:
        raise ValueError(f"noise spec dt {noise.dt:g} differs from the solver dt {config.dt:g}")
    ens = CoupledOUEnsemble(noise)
    ens.burn_in_stationary()
    nt = config.nsteps
    traj = zero_trajectory(noise.lattice, config.dt * np.arange(nt + 1))
    for n in range(nt + 1):
        if n:
            ens.step(config.dt)
        traj.y[n, 0] = ens.half_field("u", which)
        traj.y[n, 1] = ens.half_field("b", which)
    return traj


class ProductEngine:
    """Pseudo-spectral MHD products on one lattice by real transforms, 2/3-rule dealiased.

    The 2/3 rule keeps the modes max_i |k_i| <= 2N/3, the band of radius
    floor(2N/3) (28 % of the half layout at N = 8): `pair_matrix` analyses
    its products on that band alone (`torus.HalfBand.forward`), so the band
    is the dealiasing and no mask pass runs.  Level 2 is driven by N(y1, y1)
    alone and starts at 0, so its spectra live on the band too, and
    `band_grids` synthesises its grids there (`HalfBand.inverse`).  The
    grids of y1 and of the per-step w = y3 + y4 (`grids`, `level_grids`)
    stay on the full `half_inverse`: neither is band-limited."""

    # the slots [equation, i1, j] of the nine transformed components:
    # 0-5 the symmetric u-equation slots (i1 <= j), 6-8 the antisymmetric
    # b-equation slots (i1 < j), whose lower triangle takes a sign
    _INDEX = np.array([[[0, 1, 2], [1, 3, 4], [2, 4, 5]], [[0, 6, 7], [6, 0, 8], [7, 8, 0]]])
    _SYM = ([0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2])  # (i1, j) of slots 0-5
    _ANTI = ([0, 0, 1], [1, 2, 2])  # (i1, j) of slots 6-8
    _B_SIGN = np.array([[0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, -1.0, 0.0]])

    def __init__(self, lattice: ModeLattice):
        self.lattice = lattice
        self.band = HalfBand(lattice, 2 * lattice.N // 3)

    def grids(self, half: np.ndarray) -> np.ndarray:
        """Real grid samples of a stack of real fields' half spectra."""
        return half_inverse(self.lattice, half)

    def level_grids(self, traj: Trajectory, nt: int) -> np.ndarray:
        """Real grids of the (u, b) stack of `traj` at steps 0 .. nt-1, shape
        (nt, 2, 3) + cube, by one inverse transform of the whole stack."""
        return self.grids(traj.y[:nt])

    def band_grids(self, traj: Trajectory, nt: int) -> np.ndarray:
        """`level_grids` of a trajectory whose spectra live on the 2/3-rule
        band, level 2's, synthesised on the band alone."""
        return self.band.inverse(traj.y[:nt])

    def pair_matrix(self, pairs: list) -> np.ndarray:
        """Half-layout coefficients of the MHD product N(x, y) summed over `pairs`.

        Each x, y is a (u, b) stack of grids, shape (2, 3) + cube.  Returns
        p, shape (2, 3, 3, n, n, N+1): p[0, i1, j] is the symmetric part of
        x_u^i1 y_u^j - x_b^i1 y_b^j and p[1, i1, j] the antisymmetric part of
        x_b^i1 y_u^j - x_u^i1 y_b^j, each 0 off the 2/3-rule band.  The sum
        is taken on the grid, so the nine independent components take one
        band analysis; only those nine are symmetrised.
        """
        uu = bu = 0.0
        for (xu, xb), (yu, yb) in pairs:
            uu = uu + xu[:, None] * yu[None, :] - xb[:, None] * yb[None, :]
            bu = bu + xb[:, None] * yu[None, :] - xu[:, None] * yb[None, :]
        (si, sj), (ai, aj) = self._SYM, self._ANTI
        prods = np.empty((9,) + uu.shape[2:])
        np.add(uu[si, sj], uu[sj, si], out=prods[:6])
        np.subtract(bu[ai, aj], bu[aj, ai], out=prods[6:])
        prods *= 0.5
        p = self.band.forward(prods)[self._INDEX]
        p[1] *= self._B_SIGN[:, :, None, None, None]
        return p


def _level_grids(ops: OperatorSet, traj1: Trajectory, traj2: Trajectory, nt: int) -> np.ndarray:
    """The real grids of y1 and y2 at steps 0 .. nt-1, shape (2, nt, 2, 3) +
    cube, as `run_hierarchy` builds them for levels 3 and 4."""
    return np.stack([ops.engine.level_grids(traj1, nt), ops.engine.band_grids(traj2, nt)])


def _apply_pdj(ops: OperatorSet, pair: np.ndarray) -> np.ndarray:
    """-1/2 sum_{i1 j} P^{i i1} D_j (pair[e, i1, j]) for both equations e:
    half spectra in, the (u, b) stack of half spectra (2, 3, n, n, N+1) out."""
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
    ops: OperatorSet,
    g1: np.ndarray,
    g2: np.ndarray | None = None,
    gw: np.ndarray | None = None,
    target: np.ndarray | None = None,
    tables: np.ndarray | None = None,
) -> np.ndarray:
    """Drift of the next level at one step, a (u, b) stack of half spectra,
    from the real grids of the levels below, each a (u, b) stack.

    Level 2 (y1 only) sums N(y1, y1), level 3 (y1, y2) N(2 y1, y2) and level 4
    (y1, y2 and w = y3 + y4) N(2 (y1 + y2) + w, w) + N(y2, y2).  With the
    step's diamond `tables` (a row of `diamond_constants`) the linear
    terms on `target`, the coefficients of y1 (level 3) or y2 + w (level 4),
    are folded into the pair matrices before the projected derivative: one
    matrix product of the tables, as rows (equation, i1, j) and columns
    (flavor, l), with the six half-spectrum rows of `target`.
    """
    if g2 is None:
        pairs = [(g1, g1)]
    elif gw is None:
        pairs = [(2.0 * g1, g2)]
    else:
        pairs = [(2.0 * (g1 + g2) + gw, gw), (g2, g2)]
    p = ops.engine.pair_matrix(pairs)
    if tables is not None:
        fold = tables.transpose(0, 2, 4, 1, 3).reshape(18, 6)
        p += (fold @ target.reshape(6, -1)).reshape(p.shape)
    return _apply_pdj(ops, p)


def _mild(ops: OperatorSet, config: SolverConfig, times: np.ndarray, drift,
          forcing_out: list | None, y0: np.ndarray | None = None) -> Trajectory:
    """Mild solution of dy = (Delta y + F) dt from the (u, b) stack y0 (zero
    when not given), with F at step n the (u, b) stack drift(n, y[n]) of the
    step and the state just computed there, appended to `forcing_out` when
    given."""
    out = zero_trajectory(ops.lattice, times)
    if y0 is not None:
        out.y[0] = y0
    decay, w = ops.stepper(config.dt)
    for n in range(config.nsteps):
        f = drift(n, out.y[n])
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
    nt = config.nsteps
    if len(traj1.times) != nt + 1:
        raise ValueError("linear level not sampled on the solver grid")
    if grids1 is None:
        grids1 = ops.engine.level_grids(traj1, nt)
    return _mild(ops, config, traj1.times, lambda n, _: _drift(ops, grids1[n]), forcing_out)


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
    (2, nt, 2, 3) + cube; when not given they are built here as a run
    builds them (`_level_grids`: y2 on the 2/3-rule band, where level 2
    lives), so the result has the bits of a run."""
    if grids is None:
        grids = _level_grids(ops, traj1, traj2, config.nsteps)

    def drift(n, _):
        tables = None if diamonds is None else diamonds[n]
        return _drift(ops, grids[0, n], grids[1, n], target=traj1.y[n], tables=tables)

    return _mild(ops, config, traj1.times, drift, forcing_out)


def solve_K(
    traj1: Trajectory,
    ops: OperatorSet,
    config: SolverConfig,
    forcing_out: list | None = None,
) -> Trajectory:
    """Auxiliary pair dK = (Delta K + y1) dt, K(0) = 0, in mild form."""
    return _mild(ops, config, traj1.times, lambda n, _: traj1.y[n], forcing_out)


def mild_residual(traj: Trajectory, ops: OperatorSet, forcing: list) -> float:
    """Max over steps of the coefficient-l2 residual of the differential form,
    (y_{n+1} - y_n)/dt - (Delta y_n + F_n), with F_n the (u, b) stack of half
    spectra forcing[n].  The residual is formed on the half layout and
    mirrored to the full cube for its norm, so every mode counts once."""
    dt = float(traj.times[1] - traj.times[0])
    _, lam = killed_mode_rule(ops.lam)
    worst = 0.0
    for n in range(len(traj.times) - 1):
        r = (traj.y[n + 1] - traj.y[n]) / dt - (-lam * traj.y[n] + forcing[n])
        r = full_spectrum(ops.lattice, r)
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


@contextmanager
def _phase(timings: dict, name: str):
    """Time the block: its wall seconds go to timings[name]."""
    t0 = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - t0


@dataclass
class HierarchyRun:
    which: str
    config: SolverConfig
    levels: dict
    report: PicardReport
    timings: dict  # wall seconds per phase, in the order the phases ran

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
    """The remainder level, and its report as the Picard fixed point.

    y4 starts from the Leray-projected data minus y1(0), with the full
    cubes u0 and b0 cut to the half layout once, and is one `_mild` call in
    Gauss-Seidel order: the drift at step n reads the state just computed
    at step n and no other step.  The step is explicit, so this
    forward-stepped solution is the fixed point of the Picard (Jacobi) map
    Phi, whose drift reads a given iterate's y4[n]: Phi(y4) repeats the
    sweep from the same start with the same arithmetic and returns y4 bit
    for bit.  So no second sweep runs: the report's one increment is the
    residual |Phi(y4) - y4| in closed form, 0.0 when y4 is finite at steps
    1 .. nt, else NaN (NaN - NaN and inf - inf are NaN), which does not
    converge.

    `grids` holds the real grids of y1 and y2 at steps 0 .. nt-1, shape
    (2, nt, 2, 3) + cube; when not given they are built here as a run
    builds them (`_level_grids`) and released on return.
    """
    if grids is None:
        grids = _level_grids(ops, traj1, traj2, config.nsteps)
    y0 = half_spectrum(ops.lattice, np.stack((u0, b0)))
    y0 = np.einsum("ij...,ej...->ei...", ops.proj, y0) - traj1.y[0]

    def drift(n, y4_n):
        w_n = traj3.y[n] + y4_n
        return _drift(ops, grids[0, n], grids[1, n], ops.engine.grids(w_n), traj2.y[n] + w_n,
                      None if diamonds is None else diamonds[n])

    y4 = _mild(ops, config, traj1.times, drift, None, y0)
    residual = 0.0 if np.isfinite(y4.y[1:]).all() else np.nan
    report = PicardReport([residual], residual < config.tol, 1)
    if not report.converged:
        logger.warning("level 4 is not finite: fixed-point residual %.2e, tolerance %.1e",
                       residual, config.tol)
    return y4, report


def paracontrolled_sharp(run_levels: dict, K: Trajectory, ops: OperatorSet, n: int) -> np.ndarray:
    """Diagnostic remainder of the paracontrolled ansatz at step n.

    sharp_u = u4 + 1/2 sum P^{i i1} D_j [ pi_lt(u3+u4, K_u)^... ] with the
    four paraproduct slots of the ansatz; the result should be smoother than
    u4 itself (checked as a regression diagnostic, not a solver path).
    Returns the (u, b) stack (sharp_u, sharp_b) of full coefficient cubes.
    """
    lattice = ops.lattice
    y4 = run_levels[4].y[n]
    wu, wb = full_spectrum(lattice, run_levels[3].y[n] + y4)
    ku, kb = K.at(n)

    def plt(x, y):
        """The 3 x 3 paraproducts pi_lt(x^i1, y^j), on the half layout."""
        return half_spectrum(lattice, np.array([
            [paraproduct_lt(ScalarField(lattice, xi), ScalarField(lattice, yj)).coeff for yj in y]
            for xi in x
        ]))

    # the slots are bilinear: u-equation P + P^T, b-equation Q - Q^T
    P = plt(wu, ku) - plt(wb, kb)
    Q = plt(wb, ku) - plt(wu, kb)
    sharp = y4 - _apply_pdj(ops, np.stack((P + P.swapaxes(0, 1), Q - Q.swapaxes(0, 1))))
    return full_spectrum(lattice, sharp)


def run_hierarchy(
    noise: NoiseSpec | None,
    lattice: ModeLattice,
    scheme: SchemeSpec,
    config: SolverConfig,
    which: str,
    u0: np.ndarray,
    b0: np.ndarray,
) -> HierarchyRun:
    """Drive all levels; a None noise spec runs the deterministic limit.

    A noise spec must be built on the run's scheme and lattice; u0 and b0
    are full coefficient cubes.  The run's `timings` hold the seconds of
    each level and the diamond tables."""
    if noise is not None and (noise.scheme != scheme or noise.lattice.N != lattice.N):
        raise ValueError("noise spec scheme or lattice differs from the run's")
    ops = OperatorSet(which, scheme, lattice)
    nt = config.nsteps
    times = config.dt * np.arange(nt + 1)
    timings = {}
    with _phase(timings, "level1_s"):
        traj1 = (zero_trajectory(lattice, times) if noise is None
                 else sample_linear_trajectory(noise, config, which))
    use_k = config.use_constants and which == "approx" and noise is not None
    with _phase(timings, "diamonds_s"):
        diamonds = diamond_constants(times, scheme, lattice) if use_k else None
    grids = np.empty((2, nt, 2, 3) + lattice.shape)  # y1 and y2, shared by levels 2-4
    with _phase(timings, "level2_s"):
        grids[0] = ops.engine.level_grids(traj1, nt)
        traj2 = solve_level2(traj1, ops, config, grids1=grids[0])
    with _phase(timings, "level3_s"):
        grids[1] = ops.engine.band_grids(traj2, nt)
        traj3 = solve_level3(traj1, traj2, ops, config, diamonds, grids=grids)
    with _phase(timings, "level4_s"):
        traj4, report = picard_y4(traj1, traj2, traj3, u0, b0, ops, config, diamonds, grids)
    return HierarchyRun(which, config, {1: traj1, 2: traj2, 3: traj3, 4: traj4}, report, timings)


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
    g = np.stack(np.broadcast_arrays(amplitude * np.sin(x1) * np.cos(x2) * np.cos(x3),
                                     -amplitude * np.cos(x1) * np.sin(x2) * np.cos(x3), 0.0 * x1))
    return full_spectrum(lattice, half_forward(lattice, g))


def trajectory_to_csv(traj: Trajectory, lattice: ModeLattice, path, family: str = "u") -> None:
    """Export one family of a trajectory as CSV rows (t, k1, k2, k3, component,
    re, im) with CRLF line ends, as `csv.writer` writes them; zero coefficients
    are skipped.  Values are written as the repr of Python floats, which reads
    back bit for bit."""
    data = traj.u if family == "u" else traj.b
    modes = [f"{k1},{k2},{k3}" for k1, k2, k3 in lattice.mode_table().tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("t,k1,k2,k3,component,re,im\r\n")
        for n, t in enumerate(traj.times.tolist()):
            flat = data[n].reshape(3, -1)
            for comp in range(3):
                nz = np.nonzero(flat[comp])[0]
                fh.write("".join(
                    f"{t!r},{modes[i]},{comp},{c.real!r},{c.imag!r}\r\n"
                    for i, c in zip(nz.tolist(), flat[comp, nz].tolist())
                ))


def level_norm_series(run: HierarchyRun) -> dict:
    """`NORM_ALPHA` Hoelder norms of every level at every stored time (u and b
    families), by batched block passes over the half spectra of each level,
    `NORM_STEPS` stored steps at a time (a field's norm does not depend on
    its batch)."""
    lattice = ModeLattice(run.levels[1].y.shape[-1] - 1)
    batch = 6 * NORM_STEPS
    out = {}
    for l, traj in run.levels.items():
        y = traj.y.reshape((-1,) + traj.y.shape[-3:])
        norms = np.concatenate([
            holder_norm_half(lattice, y[i : i + batch], NORM_ALPHA) for i in range(0, len(y), batch)
        ]).reshape(len(traj.times), 6)
        out[f"level{l}_u"] = np.max(norms[:, :3], axis=1).tolist()
        out[f"level{l}_b"] = np.max(norms[:, 3:], axis=1).tolist()
    return out
