"""Mild-solution hierarchy: level solvers, Picard remainder, drift tables."""

import csv
import itertools
import os
import pickle
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spdelab import constants as renorm
from spdelab.fields import NoiseSpec
from spdelab.hierarchy import (
    NORM_ALPHA,
    OperatorSet,
    ProductEngine,
    SolverConfig,
    Trajectory,
    diamond_constants,
    drift_assembly,
    energy,
    level_norm_series,
    mild_residual,
    paracontrolled_sharp,
    picard_y4,
    run_hierarchy,
    sample_linear_trajectory,
    solve_K,
    solve_level2,
    solve_level3,
    taylor_green,
    trajectory_to_csv,
    zero_trajectory,
)
from spdelab.hierarchy import _drift, _level_grids, _mild
from spdelab.schemes import (
    SchemeSpec,
    dealias_mask,
    dj_eps_multiplier,
    eps_laplacian_rate,
    killed_mode_rule,
)
from spdelab.torus import (
    ModeLattice,
    ScalarField,
    VectorField,
    dft_forward,
    dft_inverse,
    full_spectrum,
    half_spectrum,
    holder_norm,
    holder_norm_batch,
    holder_norm_half,
    random_vector_field,
)


@pytest.fixture(scope="module")
def lat():
    return ModeLattice(4)


@pytest.fixture(scope="module")
def scheme():
    return SchemeSpec(eps=1.0, a=1.0, b=0.0)


@pytest.fixture(scope="module")
def mixed_scheme():
    return SchemeSpec(
        eps=1.0, a=1.0, b=0.0, h_kind_u="smooth_bump", h_kind_b="indicator"
    )


def _noise(lat, scheme, dt, T, seed=5):
    return NoiseSpec(seed=seed, dt=dt, T=T, lattice=lat, scheme=scheme)


def _full(traj):
    """The full-cube (u, b) stack of a trajectory, shape (nt+1, 2, 3) + cube."""
    return np.stack((traj.u, traj.b), axis=1)


def _frozen(times, c):
    """A trajectory whose u is the full cube c at every step and whose b is 0."""
    u = np.broadcast_to(c, (len(times),) + c.shape)
    return Trajectory(times, u, np.zeros_like(u))


class TestLinearLevels:
    def test_zero_noise_levels_vanish(self, lat, scheme):
        cfg = SolverConfig(dt=1e-3, T=0.01)
        times = cfg.dt * np.arange(cfg.nsteps + 1)
        t1 = zero_trajectory(lat, times)
        ops = OperatorSet("cont", scheme, lat)
        t2 = solve_level2(t1, ops, cfg)
        t3 = solve_level3(t1, t2, ops, cfg)
        K = solve_K(t1, ops, cfg)
        for tr in (t2, t3, K):
            assert np.max(np.abs(tr.u)) == 0.0 and np.max(np.abs(tr.b)) == 0.0

    def test_frozen_single_mode_level2(self, lat, scheme):
        # constant-in-time forcing: exponential integrator reproduces the
        # closed-form mild solution exactly per mode
        cfg = SolverConfig(dt=1e-3, T=0.05)
        times = cfg.dt * np.arange(cfg.nsteps + 1)
        ops = OperatorSet("cont", scheme, lat)
        c = np.zeros((3,) + lat.shape, np.complex128)
        c[1, lat.N + 1, lat.N, lat.N] = 0.5
        c[1, lat.N - 1, lat.N, lat.N] = 0.5
        t1 = _frozen(times, c)
        t2 = solve_level2(t1, ops, cfg)
        # forcing is the grid square of u1 projected; compute it once directly
        forcing = []
        probe = solve_level2(t1, ops, cfg, forcing_out=forcing)
        fu0 = forcing[0][0]
        lam = np.where(np.isfinite(ops.lam), ops.lam, 0.0)
        T = times[-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(lam > 0, (1 - np.exp(-lam * T)) / np.where(lam > 0, lam, 1), T)
        expected = factor * fu0  # on the half layout, as the forcing and the state
        assert np.max(np.abs(t2.y[-1, 0] - expected)) < 1e-12 * max(np.max(np.abs(expected)), 1.0)

    def test_K_frozen_mode_analytic(self, lat, scheme):
        cfg = SolverConfig(dt=1e-3, T=0.03)
        times = cfg.dt * np.arange(cfg.nsteps + 1)
        ops = OperatorSet("cont", scheme, lat)
        c = np.zeros((3,) + lat.shape, np.complex128)
        c[1, lat.N + 1, lat.N, lat.N] = 1.0
        c[1, lat.N - 1, lat.N, lat.N] = 1.0
        K = solve_K(_frozen(times, c), ops, cfg)
        lam = 1.0
        exact = (1 - np.exp(-lam * times[-1])) / lam
        got = K.u[-1][1, lat.N + 1, lat.N, lat.N]
        assert abs(got - exact) < 1e-13

    def test_levels_divergence_free_and_real(self, lat, mixed_scheme):
        cfg = SolverConfig(dt=2e-3, T=0.02)
        noise = _noise(lat, mixed_scheme, cfg.dt, cfg.T)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            t1 = sample_linear_trajectory(noise, cfg, "approx")
            ops = OperatorSet("approx", mixed_scheme, lat)
            t2 = solve_level2(t1, ops, cfg)
            t3 = solve_level3(t1, t2, ops, cfg)
        for tr in (t2, t3):
            assert np.max(np.abs(tr.u)) > 0
            for n in (0, len(tr.times) // 2, -1):
                v = VectorField(lat, tr.u[n])
                assert v.divergence_defect() < 1e-12
                assert v.hermitian_defect() < 1e-12

    @pytest.mark.parametrize("dt, T, steps", [
        (1e-3, 0.016, 16), (1e-3, 0.004, 4), (0.1, 0.3, 3),
        (1e-3, 0.0015, None), (1e-3, 0.0004, None), (2e-3, 0.005, None),
        (1e-3, np.inf, None), (np.nan, 0.01, None),
    ])
    def test_T_whole_number_of_steps(self, dt, T, steps):
        if steps is None:
            with pytest.raises(ValueError):
                SolverConfig(dt=dt, T=T)
        else:
            assert SolverConfig(dt=dt, T=T).nsteps == steps

    @pytest.mark.parametrize("tol", [0.0, -1e-9, np.nan, np.inf, -np.inf])
    def test_tol_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            SolverConfig(dt=1e-3, T=0.01, tol=tol)

    def test_grid_mismatch_rejected(self, lat, scheme):
        cfg = SolverConfig(dt=1e-3, T=0.01)
        bad = zero_trajectory(lat, np.arange(3) * cfg.dt)
        ops = OperatorSet("cont", scheme, lat)
        with pytest.raises(ValueError):
            solve_level2(bad, ops, cfg)


def _full_rate(ops):
    """The rate lam of `ops`'s mode on the full cube, from the scheme and the
    lattice (the operator set holds it on the half layout)."""
    lat = ops.lattice
    return eps_laplacian_rate(ops.scheme, lat) if ops.which == "approx" else lat.ksq


def _full_factors(ops, dt):
    """The step's decay and weight dt phi1(lam dt) on the full cube."""
    alive, rate = killed_mode_rule(_full_rate(ops))
    weight = np.where(rate > 0, -np.expm1(-rate * dt) / np.where(rate > 0, rate, 1.0), dt)
    return np.where(alive, np.exp(-rate * dt), 0.0), np.where(alive, weight, 0.0)


def _half_forward_longdouble(lat, grid):
    """`half_forward` by direct sums in extended precision (`np.longdouble`),
    rounded to complex128 once at the end: a reference whose own error sits
    far below that of any double-precision transform."""
    two_pi = 8 * np.arctan(np.longdouble(1))
    j = np.arange(lat.n)
    # exp(-i k x) at x = 2 pi j / n, the phase index k j reduced mod n
    e = np.exp(-1j * two_pi / lat.n * (np.outer(j, j) % lat.n))
    c = grid.astype(np.longdouble) @ e[: lat.N + 1].T  # x3 -> k3 = 0 .. N
    c = np.einsum("...yk,ly->...lk", c, e)  # x2 -> k2, FFT order
    c = np.einsum("...xlk,mx->...mlk", c, e)  # x1 -> k1, FFT order
    return (c * (two_pi**1.5 / lat.n**3)).astype(np.complex128)


def _pair_matrix_18(engine, pairs):
    """`ProductEngine.pair_matrix` by the 18-product form: the whole 3 x 3
    symmetric u-equation and antisymmetric b-equation matrices, each entry
    transformed in extended precision and dealiased."""
    uu = bu = 0.0
    for (xu, xb), (yu, yb) in pairs:
        uu = uu + xu[:, None] * yu[None, :] - xb[:, None] * yb[None, :]
        bu = bu + xb[:, None] * yu[None, :] - xu[:, None] * yb[None, :]
    prods = np.stack((0.5 * (uu + uu.swapaxes(0, 1)), 0.5 * (bu - bu.swapaxes(0, 1))))
    lat = engine.lattice
    return _half_forward_longdouble(lat, prods) * half_spectrum(lat, dealias_mask(lat))


def _full_cube_levels(noise, lat, scheme, cfg, which, u0, b0):
    """Levels 1-4 of `run_hierarchy` by a step loop on full coefficient
    cubes, shape (nt+1, 2, 3) + cube each: full-cube decay and weight, the
    grids and fold targets cut from the full state and every drift mirrored
    back by `full_spectrum` before the step."""
    ops = OperatorSet(which, scheme, lat)
    decay, weight = _full_factors(ops, cfg.dt)
    t1 = sample_linear_trajectory(noise, cfg, which)
    K = diamond_constants(t1.times, scheme, lat) if which == "approx" else None
    y1 = _full(t1)

    def grids(c):
        return ops.engine.grids(half_spectrum(lat, c))

    def integrate(drift, init):
        out = np.zeros_like(y1)
        out[0] = init
        for n in range(cfg.nsteps):
            out[n + 1] = decay * out[n] + weight * full_spectrum(lat, drift(n, out[n]))
        return out

    y2 = integrate(lambda n, _: _drift(ops, grids(y1[n])), 0.0)
    y3 = integrate(lambda n, _: _drift(ops, grids(y1[n]), grids(y2[n]),
                                       target=half_spectrum(lat, y1[n]),
                                       tables=None if K is None else K[n]), 0.0)

    def drift4(n, y4_n):
        w = y3[n] + y4_n
        return _drift(ops, grids(y1[n]), grids(y2[n]), grids(w), half_spectrum(lat, y2[n] + w),
                      None if K is None else K[n])

    init = np.einsum("ij...,ej...->ei...", lat.leray_tensor(), np.stack((u0, b0))) - y1[0]
    return {1: y1, 2: y2, 3: y3, 4: integrate(drift4, init)}


class TestTrajectoryLayout:
    def test_field_views_write_through(self, lat):
        # the state is the half layout; u, b and at(n) mirror it to full cubes
        traj = zero_trajectory(lat, 1e-3 * np.arange(3))
        assert traj.y.shape == (3, 2, 3, lat.n, lat.n, lat.N + 1)
        h = half_spectrum(lat, random_vector_field(lat, np.random.default_rng(1)).coeff)
        traj.y[1, 0] = h
        traj.y[2, 1] = 2.0 * h
        for n in range(3):
            assert np.array_equal(traj.at(n), full_spectrum(lat, traj.y[n]))
        assert np.array_equal(traj.u, full_spectrum(lat, traj.y[:, 0]))
        assert np.array_equal(traj.b, full_spectrum(lat, traj.y[:, 1]))
        assert np.array_equal(traj.u[1], full_spectrum(lat, h))
        assert np.array_equal(traj.b[2], full_spectrum(lat, 2.0 * h))
        assert not np.shares_memory(traj.at(1), traj.y)

    def test_pair_constructor_stacks(self, lat):
        rng = np.random.default_rng(2)
        times = 1e-3 * np.arange(3)
        # exactly Hermitian cubes, the mirrors of half spectra, come back bit for bit
        u, b = (
            full_spectrum(lat, half_spectrum(lat, np.stack([random_vector_field(lat, rng).coeff
                                                            for _ in times])))
            for _ in range(2)
        )
        traj = Trajectory(times, u, b)
        assert np.array_equal(traj.y, half_spectrum(lat, np.stack((u, b), axis=1)))
        assert np.array_equal(traj.u, u) and np.array_equal(traj.b, b)
        assert Trajectory(times, y=traj.y).y is traj.y

    def test_every_is_a_view(self, lat):
        traj = zero_trajectory(lat, 1e-3 * np.arange(7))
        traj.y[:] = np.random.default_rng(9).standard_normal(traj.y.shape)
        sub = traj.every(3)
        assert np.array_equal(sub.times, traj.times[[0, 3, 6]])
        assert np.array_equal(sub.y, traj.y[[0, 3, 6]])
        assert np.shares_memory(sub.y, traj.y) and np.shares_memory(sub.times, traj.times)

    def test_state_bytes(self, lat, mixed_scheme):
        cfg = SolverConfig(dt=2e-3, T=0.01)
        u0 = taylor_green(lat, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = run_hierarchy(_noise(lat, mixed_scheme, cfg.dt, cfg.T), lat, mixed_scheme, cfg,
                                "approx", u0, 0.3 * u0)
        for traj in run.levels.values():
            assert traj.y.nbytes == (cfg.nsteps + 1) * 6 * lat.n**2 * (lat.N + 1) * 16

    def test_pair_matrix_matches_eighteen_products(self, lat):
        rng = np.random.default_rng(6)
        eng = ProductEngine(lat)
        g = [rng.standard_normal((2, 3) + lat.shape) for _ in range(3)]
        for pairs in ([(g[0], g[0])], [(g[0], g[1])], [(g[0], g[1]), (g[2], g[2])]):
            want = _pair_matrix_18(eng, pairs)
            assert np.max(np.abs(want)) > 0
            assert np.max(np.abs(eng.pair_matrix(pairs) - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("which", ["approx", "cont"])
    def test_mild_residual_matches_full_cube_residual(self, lat, mixed_scheme, which):
        cfg = SolverConfig(dt=2e-3, T=0.01)
        ops = OperatorSet(which, mixed_scheme, lat)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            t1 = sample_linear_trajectory(_noise(lat, mixed_scheme, cfg.dt, cfg.T), cfg, which)
        forcing = []
        t2 = solve_level2(t1, ops, cfg, forcing_out=forcing)
        _, lam = killed_mode_rule(_full_rate(ops))
        y = _full(t2)
        want = max(
            np.sqrt(np.sum(np.abs(
                (y[n + 1] - y[n]) / cfg.dt - (-lam * y[n] + full_spectrum(lat, forcing[n]))
            ) ** 2))
            for n in range(cfg.nsteps)
        )
        assert want > 0
        assert abs(mild_residual(t2, ops, forcing) - want) <= 1e-14 * want

    @pytest.mark.parametrize("which", ["approx", "cont"])
    def test_run_matches_full_cube_step_loop(self, lat, mixed_scheme, which):
        cfg = SolverConfig(dt=2e-3, T=0.01)
        noise = _noise(lat, mixed_scheme, cfg.dt, cfg.T)
        u0 = taylor_green(lat, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = run_hierarchy(noise, lat, mixed_scheme, cfg, which, u0, 0.3 * u0)
            want = _full_cube_levels(noise, lat, mixed_scheme, cfg, which, u0, 0.3 * u0)
        assert np.array_equal(_full(run.levels[1]), want[1])
        for l in (2, 3, 4):
            assert np.max(np.abs(want[l])) > 0
            got = _full(run.levels[l])
            assert np.max(np.abs(got - want[l])) <= 1e-14 * np.max(np.abs(want[l]))

    def test_level_grids_match_per_step_grids(self, lat):
        # one inverse transform of the whole stack, bit for bit the per-step one
        rng = np.random.default_rng(4)
        times = 1e-3 * np.arange(5)
        u, b = (np.stack([random_vector_field(lat, rng).coeff for _ in times]) for _ in range(2))
        traj = Trajectory(times, u, b)
        eng = ProductEngine(lat)
        want = np.stack([eng.grids(traj.y[n]) for n in range(4)])
        assert np.array_equal(eng.level_grids(traj, 4), want)

    def test_forcing_entries_unpack(self, lat, mixed_scheme):
        cfg = SolverConfig(dt=2e-3, T=0.01)
        noise = _noise(lat, mixed_scheme, cfg.dt, cfg.T)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            t1 = sample_linear_trajectory(noise, cfg, "cont")
        ops = OperatorSet("cont", mixed_scheme, lat)
        f2, f3, fK = [], [], []
        t2 = solve_level2(t1, ops, cfg, forcing_out=f2)
        t3 = solve_level3(t1, t2, ops, cfg, forcing_out=f3)
        K = solve_K(t1, ops, cfg, forcing_out=fK)
        for traj, forcing in ((t2, f2), (t3, f3), (K, fK)):
            assert len(forcing) == cfg.nsteps
            pairs = []
            for f in forcing:
                fu, fb = f
                assert fu.shape == fb.shape == (3, lat.n, lat.n, lat.N + 1)
                pairs.append((fu, fb))
            # the residual reads (fu, fb) pairs and stacked entries alike
            assert mild_residual(traj, ops, pairs) == mild_residual(traj, ops, forcing)


class TestBandEngine:
    """The product engine transforms only the 2/3-rule band."""

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 8, 9, 16])
    def test_band_is_the_dealias_support(self, N):
        # no mask multiply is lost: the band holds exactly the modes it keeps
        lat = ModeLattice(N)
        eng = ProductEngine(lat)
        assert eng.band.r == 2 * N // 3
        assert np.array_equal(eng.band.support(), half_spectrum(lat, dealias_mask(lat)))

    @pytest.mark.parametrize("which", ["approx", "cont"])
    def test_level2_spectra_vanish_off_the_band(self, lat, mixed_scheme, which):
        cfg = SolverConfig(dt=2e-3, T=0.01)
        u0 = taylor_green(lat, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = run_hierarchy(_noise(lat, mixed_scheme, cfg.dt, cfg.T), lat, mixed_scheme, cfg,
                                which, u0, 0.3 * u0)
        inside = ProductEngine(lat).band.support()
        y2 = run.levels[2].y
        assert np.all(y2[..., ~inside] == 0.0)
        assert np.max(np.abs(y2[..., inside])) > 0
        # the band is a proper part of the layout: the noise of y1 fills the rest
        assert np.max(np.abs(run.levels[1].y[..., ~inside])) > 0

    @pytest.mark.parametrize("which", ["approx", "cont"])
    def test_band_grids_match_level_grids(self, lat, mixed_scheme, which):
        cfg = SolverConfig(dt=2e-3, T=0.01)
        ops = OperatorSet(which, mixed_scheme, lat)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            t1 = sample_linear_trajectory(_noise(lat, mixed_scheme, cfg.dt, cfg.T), cfg, which)
        t2 = solve_level2(t1, ops, cfg)
        want = ops.engine.level_grids(t2, cfg.nsteps)
        got = ops.engine.band_grids(t2, cfg.nsteps)
        assert np.max(np.abs(want)) > 0
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        grids = _level_grids(ops, t1, t2, cfg.nsteps)
        assert np.array_equal(grids[0], ops.engine.level_grids(t1, cfg.nsteps))
        assert np.array_equal(grids[1], got)

    def test_one_blas_thread_gives_the_same_bits(self):
        # every band product stays below the BLAS threading size, so the
        # pair matrix and the level-2 grids at N = 16 read the same bits
        # with one BLAS thread
        code = (
            "import pickle, sys\n"
            "import numpy as np\n"
            "from spdelab.hierarchy import ProductEngine\n"
            "from spdelab.torus import ModeLattice\n"
            "eng = ProductEngine(ModeLattice(16))\n"
            "pairs, half = pickle.loads(sys.stdin.buffer.read())\n"
            "out = (eng.pair_matrix(pairs), eng.band.inverse(half))\n"
            "sys.stdout.buffer.write(pickle.dumps(out))\n"
        )
        lat = ModeLattice(16)
        eng = ProductEngine(lat)
        rng = np.random.default_rng(12)
        g = [rng.standard_normal((2, 3) + lat.shape) for _ in range(3)]
        pairs = [(g[0], g[1]), (g[2], g[2])]
        half = eng.band.forward(rng.standard_normal((4, 2, 3) + lat.shape))
        src = str(Path(renorm.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        done = subprocess.run([sys.executable, "-c", code], input=pickle.dumps((pairs, half)),
                              env=env, capture_output=True)
        assert done.returncode == 0, done.stderr.decode()
        p, grids = pickle.loads(done.stdout)
        assert p.tobytes() == eng.pair_matrix(pairs).tobytes()
        assert grids.tobytes() == eng.band.inverse(half).tobytes()


class TestDiamondPaths:
    def test_plain_path_equals_zeroed_constants(self, lat, mixed_scheme):
        cfg = SolverConfig(dt=2e-3, T=0.02)
        noise = _noise(lat, mixed_scheme, cfg.dt, cfg.T)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            t1 = sample_linear_trajectory(noise, cfg, "cont")
        ops = OperatorSet("cont", mixed_scheme, lat)
        t2 = solve_level2(t1, ops, cfg)
        plain = solve_level3(t1, t2, ops, cfg, diamonds=None)
        zeroK = np.zeros((cfg.nsteps + 1, 2, 2, 3, 3, 3), np.complex128)
        withzero = solve_level3(t1, t2, ops, cfg, diamonds=zeroK)
        assert np.max(np.abs(plain.u - withzero.u)) == 0.0

    def test_constants_change_level3(self, lat, mixed_scheme):
        cfg = SolverConfig(dt=2e-3, T=0.02)
        noise = _noise(lat, mixed_scheme, cfg.dt, cfg.T)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            t1 = sample_linear_trajectory(noise, cfg, "approx")
            ops = OperatorSet("approx", mixed_scheme, lat)
            t2 = solve_level2(t1, ops, cfg)
            times = cfg.dt * np.arange(cfg.nsteps + 1)
            K = diamond_constants(times, mixed_scheme, lat)
            with_consts = solve_level3(t1, t2, ops, cfg, diamonds=K)
            plain = solve_level3(t1, t2, ops, cfg, diamonds=None)
        assert np.max(np.abs(with_consts.u - plain.u)) > 0


def _to_grid(coeff):
    n = coeff.shape[-1]
    spec = np.fft.ifftshift(coeff, axes=(-3, -2, -1))
    return (np.fft.ifftn(spec, axes=(-3, -2, -1)) * n**3 / (2 * np.pi) ** 1.5).real


def _to_coeff(grid):
    n = grid.shape[-1]
    spec = np.fft.fftn(grid, axes=(-3, -2, -1))
    return np.fft.fftshift(spec, axes=(-3, -2, -1)) * (2 * np.pi) ** 1.5 / n**3


def _full_symbols(ops):
    """The D_j and Leray symbols of `ops`'s mode on the full cube, built from
    the scheme and the lattice (the operator set holds them on the half
    layout)."""
    lat = ops.lattice
    if ops.which == "approx":
        dmult = np.stack([
            np.broadcast_to(dj_eps_multiplier(ops.scheme, lat, j), lat.shape) for j in (1, 2, 3)
        ])
    else:
        dmult = 1j * lat.k_stack()
    return dmult, lat.leray_tensor()


def _expanded_drift(lat, ops, pairs, corrections=()):
    """Drift from ordered pairs (x, y) of (u, b) coefficient stacks, one
    complex full-cube transform per ordered product, with the full-cube
    symbols of `_full_symbols`:
    u-equation x_u^i1 y_u^j - x_b^i1 y_b^j, b-equation x_b^i1 y_u^j - x_u^i1 y_b^j.
    corrections: (equation, tensor [i1, l, j], target coefficients)."""
    dmult, proj = _full_symbols(ops)
    k = np.abs(np.arange(-lat.N, lat.N + 1))
    keep = k <= 2 * lat.N / 3
    mask = keep[:, None, None] & keep[None, :, None] & keep[None, None, :]

    def prod(a, b):
        return _to_coeff(_to_grid(a)[:, None] * _to_grid(b)[None, :])

    pm = {"u": 0.0, "b": 0.0}
    for x, y in pairs:
        pm["u"] = pm["u"] + prod(x[0], y[0]) - prod(x[1], y[1])
        pm["b"] = pm["b"] + prod(x[1], y[0]) - prod(x[0], y[1])
    out = {}
    for eq in ("u", "b"):
        acc = np.einsum("j...,aj...->a...", dmult, pm[eq] * mask)
        for eq_c, tensor, target in corrections:
            if eq_c == eq:
                acc = acc + np.einsum("alj,j...,l...->a...", tensor, dmult, target)
        out[eq] = -0.5 * np.einsum("ia...,a...->i...", proj, acc)
    return out["u"], out["b"]


def _expanded_k(scheme, lat, t):
    """K_k = C_k + tilde(C_k) per (k, flavor) at one time, one sum each."""
    return {
        (k, f): (renorm.ck(k, f, t, scheme, lat) + renorm.ck_tilde(k, f, t, scheme, lat)).real
        for k in (1, 2, 3, 4)
        for f in ("u", "b")
    }


def _expanded_corrections(scheme, lat, t, target):
    """The diamond terms of the u- and b-equations wired slot by slot from
    the 16 sums of `_expanded_k`:
    u: K1^{j l i1} + K1^{i1 l j} - K2^{j l i1} - K2^{i1 l j},
    b: K3^{j l i1} + K4^{i1 l j} - K4^{j l i1} - K3^{i1 l j}."""
    def T(A):
        return np.transpose(A, (2, 1, 0))

    K = _expanded_k(scheme, lat, float(t))
    out = []
    for f, y in zip(("u", "b"), target):
        k1, k2, k3, k4 = (K[(k, f)] for k in (1, 2, 3, 4))
        out.append(("u", T(k1) + k1 - T(k2) - k2, y))
        out.append(("b", T(k3) + k4 - T(k4) - k3, y))
    return out


class TestFusedDrift:
    @pytest.mark.parametrize("which", ["approx", "cont"])
    def test_matches_ordered_pair_expansion(self, lat, mixed_scheme, which):
        cfg = SolverConfig(dt=2e-3, T=0.01)
        noise = _noise(lat, mixed_scheme, cfg.dt, cfg.T)
        times = cfg.dt * np.arange(cfg.nsteps + 1)
        ops = OperatorSet(which, mixed_scheme, lat)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            t1 = sample_linear_trajectory(noise, cfg, which)
            K = diamond_constants(times, mixed_scheme, lat) if which == "approx" else None
        f2, f3 = [], []
        t2 = solve_level2(t1, ops, cfg, forcing_out=f2)
        t3 = solve_level3(t1, t2, ops, cfg, diamonds=K, forcing_out=f3)
        rng = np.random.default_rng(3)
        eng = ops.engine
        for n in range(cfg.nsteps):
            y1, y2, y3 = (t.at(n) for t in (t1, t2, t3))
            y4 = np.stack(
                [0.2 * random_vector_field(lat, rng, 2.5, True).coeff for _ in range(2)]
            )
            w = y3 + y4
            corr3 = corr4 = ()
            if K is not None:
                corr3 = _expanded_corrections(mixed_scheme, lat, times[n], y1)
                corr4 = _expanded_corrections(mixed_scheme, lat, times[n], y2 + w)
            cases = (
                (f2[n], _expanded_drift(lat, ops, [(y1, y1)])),
                (f3[n], _expanded_drift(lat, ops, [(y1, y2), (y2, y1)], corr3)),
                (
                    _drift(
                        ops, *(eng.grids(half_spectrum(lat, c)) for c in (y1, y2, w)),
                        half_spectrum(lat, y2 + w), None if K is None else K[n],
                    ),
                    _expanded_drift(
                        lat, ops,
                        [(y1, w), (w, y1), (y2, y2), (y2, w), (w, y2), (w, w)],
                        corr4,
                    ),
                ),
            )
            for got, want in cases:
                for g, e in zip(full_spectrum(lat, got), want):
                    # y2 and the diamond constants vanish at t = 0, so the
                    # level-3 drift starts at zero
                    assert n == 0 or np.max(np.abs(e)) > 0
                    assert np.max(np.abs(g - e)) <= 1e-12 * np.max(np.abs(e))

    def test_u_tables_match_drift_assembly(self, lat, mixed_scheme):
        times = 2e-3 * np.arange(4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            K = diamond_constants(times, mixed_scheme, lat)
            ref = drift_assembly(mixed_scheme, float(times[2]), lat)
        tables = K[2]
        for got, want in zip(tables[0], (ref.u_from_u, ref.u_from_b)):
            assert np.max(np.abs(want)) > 0
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _complex_grids(engine, half):
    """`ProductEngine.grids` on the complex full-cube reference path: the
    mirrored cube by `dft_inverse`, real part."""
    return dft_inverse(engine.lattice, full_spectrum(engine.lattice, half)).real


def _complex_drift(ops, g1, g2=None, gw=None, target=None, tables=None):
    """`_drift` on the complex full-cube path: the nine summed products by
    one `dft_forward`, the full-cube 2/3 mask, the fold on the mirrored
    target and the full-cube symbols of `_full_symbols`; the result is cut
    to the half layout the solver steps."""
    lat = ops.lattice
    if g2 is None:
        pairs = [(g1, g1)]
    elif gw is None:
        pairs = [(2.0 * g1, g2)]
    else:
        pairs = [(2.0 * (g1 + g2) + gw, gw), (g2, g2)]
    uu = bu = 0.0
    for (xu, xb), (yu, yb) in pairs:
        uu = uu + xu[:, None] * yu[None, :] - xb[:, None] * yb[None, :]
        bu = bu + xb[:, None] * yu[None, :] - xu[:, None] * yb[None, :]
    sym = 0.5 * (uu + uu.swapaxes(0, 1))
    anti = 0.5 * (bu - bu.swapaxes(0, 1))
    prods = np.concatenate((sym[[0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]], anti[[0, 0, 1], [1, 2, 2]]))
    p = (dft_forward(lat, prods) * dealias_mask(lat))[ProductEngine._INDEX]
    p[1] *= ProductEngine._B_SIGN[:, :, None, None, None]
    if tables is not None:
        fold = tables.transpose(0, 2, 4, 1, 3).reshape(18, 6)
        p += (fold @ full_spectrum(lat, target).reshape(6, -1)).reshape(p.shape)
    dmult, proj = _full_symbols(ops)
    dsum = np.einsum("j...,eaj...->ea...", dmult, p)
    return half_spectrum(lat, -0.5 * np.einsum("ia...,ea...->ei...", proj, dsum))


class TestComplexPathReference:
    """The half-layout solver against a complex full-cube reference path."""

    @pytest.mark.parametrize("which", ["approx", "cont"])
    def test_drift_matches_complex_path(self, lat, mixed_scheme, which):
        cfg = SolverConfig(dt=2e-3, T=0.01)
        ops = OperatorSet(which, mixed_scheme, lat)
        u0 = taylor_green(lat, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = run_hierarchy(_noise(lat, mixed_scheme, cfg.dt, cfg.T), lat, mixed_scheme, cfg,
                                which, u0, 0.3 * u0)
            K = diamond_constants(run.levels[1].times, mixed_scheme, lat) if which == "approx" else None
        eng = ops.engine
        for n in range(1, cfg.nsteps):
            y1, y2, y3, y4 = (run.levels[l].y[n] for l in (1, 2, 3, 4))
            w = y3 + y4
            tables = None if K is None else K[n]
            for args in ((y1,), (y1, y2, None, y1), (y1, y2, w, y2 + w)):
                grids, target = [None if c is None else eng.grids(c) for c in args[:3]], args[3:]
                ref = [None if c is None else _complex_grids(eng, c) for c in args[:3]]
                for g, r in zip(grids, ref):
                    assert g is None or np.max(np.abs(g - r)) <= 1e-13 * np.max(np.abs(r))
                got = _drift(ops, *grids, *target, tables=tables if target else None)
                want = _complex_drift(ops, *ref, *target, tables=tables if target else None)
                assert np.max(np.abs(want)) > 0
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("which", ["approx", "cont"])
    def test_run_matches_complex_path(self, lat, mixed_scheme, which, monkeypatch):
        import spdelab.hierarchy as hierarchy

        cfg = SolverConfig(dt=2e-3, T=0.01)
        noise = _noise(lat, mixed_scheme, cfg.dt, cfg.T)
        u0 = taylor_green(lat, 0.5)

        def run():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                return run_hierarchy(noise, lat, mixed_scheme, cfg, which, u0, 0.3 * u0)

        got = run()
        monkeypatch.setattr(hierarchy.ProductEngine, "grids", _complex_grids)
        monkeypatch.setattr(hierarchy, "_drift", _complex_drift)
        want = run()
        assert got.levels[1].y.tobytes() == want.levels[1].y.tobytes()
        assert got.report.increments == want.report.increments == [0.0]
        for l in (2, 3, 4):
            ref = want.levels[l].y
            assert np.max(np.abs(ref)) > 0
            assert np.max(np.abs(got.levels[l].y - ref)) <= 1e-13 * np.max(np.abs(ref))


def _reference_levels(lat, ops, cfg, t1, scheme, u0, b0):
    """Levels 2-4 on full coefficient cubes, shape (nt+1, 2, 3) + cube each,
    with every drift rebuilt from coefficients by `_expanded_drift` at every
    step (no cached grids, diamond terms from `_expanded_corrections` of
    `scheme` at the step, none when `scheme` is None); level 4 steps
    forward, its drift reading its own y4[n]."""
    decay, w = _full_factors(ops, cfg.dt)
    y1 = _full(t1)

    def corr(n, target):
        if scheme is None:
            return ()
        return _expanded_corrections(scheme, lat, t1.times[n], target)

    def integrate(drift, init):
        out = np.zeros_like(y1)
        out[0] = init
        for n in range(cfg.nsteps):
            out[n + 1] = decay * out[n] + w * np.stack(drift(n, out[n]))
        return out

    y2 = integrate(lambda n, _: _expanded_drift(lat, ops, [(y1[n], y1[n])]), 0.0)
    y3 = integrate(
        lambda n, _: _expanded_drift(lat, ops, [(y1[n], y2[n]), (y2[n], y1[n])], corr(n, y1[n])),
        0.0,
    )
    init = np.einsum("ij...,ej...->ei...", lat.leray_tensor(), np.stack((u0, b0))) - y1[0]

    def drift4(n, y4_n):
        wn = y3[n] + y4_n
        pairs = [(y1[n], wn), (wn, y1[n]), (y2[n], y2[n]), (y2[n], wn), (wn, y2[n]), (wn, wn)]
        return _expanded_drift(lat, ops, pairs, corr(n, y2[n] + wn))

    return {2: y2, 3: y3, 4: integrate(drift4, init)}


class TestCachedSweeps:
    """The once-per-run grids, tables and constants against uncached paths."""

    def _levels(self, lat, scheme, which, cfg):
        noise = _noise(lat, scheme, cfg.dt, cfg.T)
        times = cfg.dt * np.arange(cfg.nsteps + 1)
        ops = OperatorSet(which, scheme, lat)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            t1 = sample_linear_trajectory(noise, cfg, which)
            K = diamond_constants(times, scheme, lat) if which == "approx" else None
        return noise, ops, t1, K

    @staticmethod
    def _jacobi_sweep(ops, cfg, t1, t2, t3, y4, K):
        """One sweep of the Picard (Jacobi) map: the drift reads y4[n], not
        the state it steps."""
        eng = ops.engine

        def drift(n, _):
            w = t3.y[n] + y4.y[n]
            return _drift(ops, eng.grids(t1.y[n]), eng.grids(t2.y[n]), eng.grids(w), t2.y[n] + w,
                          None if K is None else K[n])

        return _mild(ops, cfg, t1.times, drift, None, y4.y[0])

    @pytest.mark.parametrize("which", ["approx", "cont"])
    def test_increments_match_per_field_norms(self, lat, mixed_scheme, which):
        cfg = SolverConfig(dt=2e-3, T=0.01, tol=1e-14)
        _, ops, t1, K = self._levels(lat, mixed_scheme, which, cfg)
        t2 = solve_level2(t1, ops, cfg)
        t3 = solve_level3(t1, t2, ops, cfg, K)
        u0 = taylor_green(lat, 0.5)
        y4, report = picard_y4(t1, t2, t3, u0, 0.3 * u0, ops, cfg, K)
        jacobi = self._jacobi_sweep(ops, cfg, t1, t2, t3, y4, K)
        want = max(
            float(np.max(holder_norm_batch(lat, getattr(jacobi, fam)[n] - getattr(y4, fam)[n],
                                           NORM_ALPHA)))
            for n in range(1, len(t1.times))
            for fam in ("u", "b")
        )
        assert report.iterations == 1 and report.converged
        # the one increment is the fixed-point residual |Phi(y4) - y4|
        (residual,) = report.increments
        assert abs(residual - want) <= 1e-12
        assert residual == 0.0 and not np.signbit(residual)

    @pytest.mark.parametrize("which", ["approx", "cont"])
    def test_trajectory_matches_uncached_reference(self, lat, mixed_scheme, which):
        cfg = SolverConfig(dt=2e-3, T=0.01, tol=1e-12)
        noise, ops, t1, K = self._levels(lat, mixed_scheme, which, cfg)
        u0 = taylor_green(lat, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = run_hierarchy(noise, lat, mixed_scheme, cfg, which, u0, 0.3 * u0)
        assert run.report.converged and run.report.iterations == 1
        ref = _reference_levels(lat, ops, cfg, t1, None if K is None else mixed_scheme, u0, 0.3 * u0)
        want = _full(t1) + sum(ref[l] for l in (2, 3, 4))
        got = _full(run.assembled())
        for fam in (0, 1):
            assert np.max(np.abs(got[:, fam] - want[:, fam])) <= 1e-14 * np.max(np.abs(want[:, fam]))

    @pytest.mark.parametrize("which", ["approx", "cont"])
    def test_result_is_fixed_point_of_jacobi_map(self, lat, mixed_scheme, which):
        # one sweep whose drift reads the result's y4[n], not the state it
        # steps, returns the result: the forward solution is what the Jacobi
        # iteration converges to
        cfg = SolverConfig(dt=2e-3, T=0.01, tol=1e-12)
        _, ops, t1, K = self._levels(lat, mixed_scheme, which, cfg)
        t2 = solve_level2(t1, ops, cfg)
        t3 = solve_level3(t1, t2, ops, cfg, K)
        u0 = taylor_green(lat, 0.5)
        y4, report = picard_y4(t1, t2, t3, u0, 0.3 * u0, ops, cfg, K)
        assert report.converged
        jacobi = self._jacobi_sweep(ops, cfg, t1, t2, t3, y4, K)
        assert np.max(np.abs(y4.y[1:] - y4.y[0])) > 0
        assert np.max(np.abs(jacobi.y - y4.y)) <= 1e-15 * np.max(np.abs(y4.y))

    def test_diamond_constants_match_per_time_loop(self, lat, mixed_scheme):
        times = 2e-3 * np.arange(6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            K = diamond_constants(times, mixed_scheme, lat)
            batched = renorm.ck_brackets(times, mixed_scheme, lat)
            for n, t in enumerate(times):
                D = renorm.ck_brackets(float(t), mixed_scheme, lat)
                assert np.array_equal(batched[n], D)
                single = drift_assembly(mixed_scheme, float(t), lat)
                assert np.array_equal(K[n, 0], np.stack([single.u_from_u, single.u_from_b]))
                assert np.array_equal(K[n, 1], np.swapaxes(D[1], -3, -1) - D[1])

    def test_level_norm_series_matches_per_field_norms(self, lat, mixed_scheme):
        cfg = SolverConfig(dt=2e-3, T=0.01, tol=1e-8)
        noise = _noise(lat, mixed_scheme, cfg.dt, cfg.T)
        u0 = taylor_green(lat, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = run_hierarchy(noise, lat, mixed_scheme, cfg, "approx", u0, 0.3 * u0)
        alpha = -0.6
        series = level_norm_series(run)
        for l, traj in run.levels.items():
            for fam in ("u", "b"):
                want = np.array([
                    max(holder_norm(ScalarField(lat, c), alpha) for c in getattr(traj, fam)[n])
                    for n in range(len(traj.times))
                ])
                got = np.array(series[f"level{l}_{fam}"])
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    def test_level_norm_series_batches_are_bit_exact(self, lat, mixed_scheme, monkeypatch):
        # a bounded number of stored steps per block pass; every norm equals
        # the one of a call on its field alone
        import spdelab.hierarchy as hier

        cfg = SolverConfig(dt=2e-3, T=0.01, tol=1e-8)
        noise = _noise(lat, mixed_scheme, cfg.dt, cfg.T)
        u0 = taylor_green(lat, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = run_hierarchy(noise, lat, mixed_scheme, cfg, "approx", u0, 0.3 * u0)
        batches = []

        def counting(lattice, half, alpha):
            batches.append(len(half))
            return holder_norm_half(lattice, half, alpha)

        monkeypatch.setattr(hier, "NORM_STEPS", 4)
        monkeypatch.setattr(hier, "holder_norm_half", counting)
        series = level_norm_series(run)
        assert batches == [24, 12] * 4  # 6 stored steps in batches of 4 steps
        for l, traj in run.levels.items():
            y = traj.y.reshape((-1,) + traj.y.shape[-3:])
            alone = np.array([holder_norm_half(lat, f[None], NORM_ALPHA)[0] for f in y])
            alone = alone.reshape(len(traj.times), 2, 3).max(axis=2)
            assert series[f"level{l}_u"] == alone[:, 0].tolist()
            assert series[f"level{l}_b"] == alone[:, 1].tolist()


class TestMildResiduals:
    def test_richardson_halving(self, lat, mixed_scheme):
        # same realization at both resolutions: sample fine, subsample coarse
        fine = SolverConfig(dt=1e-3, T=0.02)
        coarse = SolverConfig(dt=2e-3, T=0.02)
        noise = _noise(lat, mixed_scheme, fine.dt, fine.T)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            t1f = sample_linear_trajectory(noise, fine, "cont")
        t1c = Trajectory(t1f.times[::2], t1f.u[::2], t1f.b[::2])
        ops = OperatorSet("cont", mixed_scheme, lat)
        resids = {}
        for tag, cfg, tr1 in (("fine", fine, t1f), ("coarse", coarse, t1c)):
            forcing = []
            t2 = solve_level2(tr1, ops, cfg, forcing_out=forcing)
            resids[tag] = mild_residual(t2, ops, forcing)
        ratio = resids["coarse"] / resids["fine"]
        assert 1.4 <= ratio <= 2.6  # halving dt halves the residual within 30%

    def test_richardson_level3_and_K(self, lat, mixed_scheme):
        fine = SolverConfig(dt=1e-3, T=0.02)
        coarse = SolverConfig(dt=2e-3, T=0.02)
        noise = _noise(lat, mixed_scheme, fine.dt, fine.T)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            t1f = sample_linear_trajectory(noise, fine, "cont")
        t1c = Trajectory(t1f.times[::2], t1f.u[::2], t1f.b[::2])
        ops = OperatorSet("cont", mixed_scheme, lat)
        out = {}
        for tag, cfg, tr1 in (("fine", fine, t1f), ("coarse", coarse, t1c)):
            f2 = []
            t2 = solve_level2(tr1, ops, cfg, forcing_out=f2)
            f3 = []
            t3 = solve_level3(tr1, t2, ops, cfg, forcing_out=f3)
            fK = []
            K = solve_K(tr1, ops, cfg, forcing_out=fK)
            out[tag] = (mild_residual(t3, ops, f3), mild_residual(K, ops, fK))
        for i in range(2):
            ratio = out["coarse"][i] / out["fine"][i]
            assert 1.4 <= ratio <= 2.6


class TestTimeStepConvergence:
    """The discrete hierarchy converges in dt at first order: levels 2-4 at
    four step sizes against the finest run, under one level-1 path sampled
    at the finest step and subsampled."""

    @pytest.mark.parametrize("which", ["approx", "cont"])
    def test_first_order_in_dt(self, lat, which):
        scheme = SchemeSpec(eps=0.5, a=1.0, b=0.0, h_kind_u="smooth_bump", h_kind_b="indicator")
        fine = SolverConfig(dt=1.25e-4, T=0.016)
        u0 = taylor_green(lat, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            t1 = sample_linear_trajectory(_noise(lat, scheme, fine.dt, fine.T, seed=3), fine, which)

            def final(k):
                cfg = SolverConfig(dt=k * fine.dt, T=fine.T)
                tr1 = t1.every(k)
                K = diamond_constants(tr1.times, scheme, lat) if which == "approx" else None
                levels = _levels_from(tr1, u0, 0.5 * u0, OperatorSet(which, scheme, lat), cfg, K)
                return [levels[l].y[-1] for l in (2, 3, 4)]

            ref = final(1)
            steps = [2, 4, 8, 16]
            errs = np.array([
                [np.linalg.norm(y - r) / np.linalg.norm(r) for y, r in zip(final(k), ref)]
                for k in steps
            ])
        for l in range(3):
            slope = np.polyfit(np.log(steps), np.log(errs[:, l]), 1)[0]
            assert 0.8 <= slope <= 1.5, (l + 2, slope, errs[:, l])


@pytest.fixture(scope="module")
def det_run():
    lat = ModeLattice(4)
    scheme = SchemeSpec(eps=0.5)
    cfg = SolverConfig(dt=1e-3, T=0.05, tol=1e-10)
    u0 = taylor_green(lat, 1.0)
    b0 = np.zeros_like(u0)
    return lat, run_hierarchy(None, lat, scheme, cfg, "cont", u0, b0)


class TestDeterministicRun:

    def test_picard_contracts(self, det_run):
        _, run = det_run
        assert run.report.converged
        assert run.report.contracting()

    def test_energy_nonincreasing(self, det_run):
        lat, run = det_run
        y = run.assembled()
        es = [energy(y.u[n], y.b[n]) for n in range(len(y.times))]
        assert all(a >= b - 1e-12 for a, b in zip(es, es[1:]))

    def test_b_stays_zero(self, det_run):
        _, run = det_run
        assert np.max(np.abs(run.assembled().b)) == 0.0

    def test_divergence_free(self, det_run):
        lat, run = det_run
        y = run.assembled()
        worst = max(
            VectorField(lat, y.u[n]).divergence_defect() for n in range(len(y.times))
        )
        assert worst < 1e-12

    def test_zero_data_zero_noise(self, lat):
        scheme = SchemeSpec(eps=0.5)
        cfg = SolverConfig(dt=1e-3, T=0.01)
        z = np.zeros((3,) + lat.shape, np.complex128)
        run = run_hierarchy(None, lat, scheme, cfg, "cont", z, z)
        y = run.assembled()
        assert np.max(np.abs(y.u)) == 0.0 and np.max(np.abs(y.b)) == 0.0


class TestOneEnginePerRun:
    def test_one_engine_and_no_K(self, lat, mixed_scheme, monkeypatch):
        import spdelab.hierarchy as hierarchy

        built = []

        class Counted(ProductEngine):
            def __init__(self, lattice):
                built.append(lattice)
                super().__init__(lattice)

        monkeypatch.setattr(hierarchy, "ProductEngine", Counted)
        monkeypatch.setattr(hierarchy, "solve_K", lambda *a, **k: pytest.fail("a run solved K"))
        cfg = SolverConfig(dt=2e-3, T=0.01, tol=1e-8)
        u0 = taylor_green(lat, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = run_hierarchy(_noise(lat, mixed_scheme, cfg.dt, cfg.T), lat, mixed_scheme, cfg,
                                "approx", u0, 0.3 * u0)
        assert built == [lat] and run.report.converged
        assert not hasattr(run, "K")

    def test_one_transform_path(self, lat, mixed_scheme, monkeypatch):
        # the solver transforms on the real half layout only; no binding of
        # the complex full-cube transforms is reached in either mode
        import sys

        import spdelab.hierarchy as hierarchy
        import spdelab.torus as torus

        assert not {"dft_forward", "dft_inverse"} & set(vars(hierarchy))
        originals = {torus.dft_forward, torus.dft_inverse}
        for mod in [m for name, m in sys.modules.items() if name.startswith("spdelab")]:
            for name, val in list(vars(mod).items()):
                if any(val is f for f in originals):
                    monkeypatch.setattr(mod, name, lambda *a, **k: pytest.fail("a complex transform"))
        assert torus.dft_forward not in originals
        cfg = SolverConfig(dt=2e-3, T=0.01, tol=1e-8)
        u0 = taylor_green(lat, 0.2)
        for which in ("approx", "cont"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                run = run_hierarchy(_noise(lat, mixed_scheme, cfg.dt, cfg.T), lat, mixed_scheme,
                                    cfg, which, u0, 0.3 * u0)
            assert run.report.converged

    def test_nan_increment_does_not_converge(self, lat, scheme):
        cfg = SolverConfig(dt=1e-3, T=0.005)
        u0 = taylor_green(lat, 1.0)
        u0[0, lat.N + 1, lat.N, lat.N] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run = run_hierarchy(None, lat, scheme, cfg, "cont", u0, 0.0 * u0)
        assert not run.report.converged and run.report.iterations == 1
        (residual,) = run.report.increments
        assert np.isnan(residual)

    def test_inf_without_nan_does_not_converge(self, lat, scheme, monkeypatch):
        # y4 holding +inf and no NaN: |Phi(y4) - y4| is inf - inf, NaN
        import spdelab.hierarchy as hierarchy

        def mild_with_inf(ops, config, times, drift, forcing_out, y0=None):
            out = _mild(ops, config, times, drift, forcing_out, y0)
            if y0 is not None:  # level 4 only
                out.y[-1, 0, 0, 0, 0, 1] = np.inf  # k = (0, 0, 1) in the half layout
            return out

        monkeypatch.setattr(hierarchy, "_mild", mild_with_inf)
        cfg = SolverConfig(dt=1e-3, T=0.005)
        u0 = taylor_green(lat, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run = run_hierarchy(None, lat, scheme, cfg, "cont", u0, 0.0 * u0)
        assert np.isposinf(run.levels[4].y.real).any() and not np.isnan(run.levels[4].y).any()
        assert not run.report.converged and run.report.iterations == 1
        (residual,) = run.report.increments
        assert np.isnan(residual)

    @pytest.mark.parametrize("which", ["approx", "cont"])
    def test_one_product_per_level_and_step(self, lat, mixed_scheme, which, monkeypatch):
        # levels 2, 3 and 4 take one pair matrix a step each (one pair for
        # levels 2 and 3, two for level 4): level 4 runs one sweep
        calls = []
        pair_matrix = ProductEngine.pair_matrix

        def counted(self, pairs):
            calls.append(len(pairs))
            return pair_matrix(self, pairs)

        monkeypatch.setattr(ProductEngine, "pair_matrix", counted)
        cfg = SolverConfig(dt=2e-3, T=0.01, tol=1e-8)
        u0 = taylor_green(lat, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = run_hierarchy(_noise(lat, mixed_scheme, cfg.dt, cfg.T), lat, mixed_scheme, cfg,
                                which, u0, 0.3 * u0)
        assert run.report.converged and run.report.increments == [0.0]
        assert calls == [1] * (2 * cfg.nsteps) + [2] * cfg.nsteps


class TestNoiseAgreesWithRun:
    """A noise spec drives a run only when it was built for that run."""

    def test_noise_dt_must_be_solver_dt(self, lat, mixed_scheme):
        cfg = SolverConfig(dt=2e-3, T=0.01)
        noise = _noise(lat, mixed_scheme, 1e-3, cfg.T)
        u0 = taylor_green(lat)
        with pytest.raises(ValueError, match="noise spec dt"):
            sample_linear_trajectory(noise, cfg, "approx")
        with pytest.raises(ValueError, match="noise spec dt"):
            run_hierarchy(noise, lat, mixed_scheme, cfg, "cont", u0, 0 * u0)

    def test_noise_scheme_must_be_run_scheme(self, lat, mixed_scheme):
        cfg = SolverConfig(dt=2e-3, T=0.01)
        run_scheme = mixed_scheme.with_eps(0.5)
        noise = _noise(lat, mixed_scheme.with_eps(0.25), cfg.dt, cfg.T)
        u0 = taylor_green(lat)
        with pytest.raises(ValueError, match="noise spec scheme"):
            run_hierarchy(noise, lat, run_scheme, cfg, "approx", u0, 0 * u0)

    def test_noise_lattice_must_be_run_lattice(self, lat, mixed_scheme):
        cfg = SolverConfig(dt=2e-3, T=0.01)
        noise = _noise(ModeLattice(lat.N - 1), mixed_scheme, cfg.dt, cfg.T)
        u0 = taylor_green(lat)
        with pytest.raises(ValueError, match="noise spec scheme or lattice"):
            run_hierarchy(noise, lat, mixed_scheme, cfg, "cont", u0, 0 * u0)


def _levels_from(t1, u0, b0, ops, cfg, diamonds):
    """Levels 2-4 of a run driven by the level 1 `t1`, as `run_hierarchy`
    solves them."""
    t2 = solve_level2(t1, ops, cfg)
    t3 = solve_level3(t1, t2, ops, cfg, diamonds)
    t4, report = picard_y4(t1, t2, t3, u0, b0, ops, cfg, diamonds)
    assert report.converged
    return {2: t2, 3: t3, 4: t4}


def _permuted(c, p):
    """Vector fields c, shape (..., 3) + cube, with axes and components
    permuted: component and axis i of the result are component and axis p[i]
    of c, so the divergence is kept."""
    lead = c.ndim - 4
    c = np.take(c, p, axis=lead)
    return np.transpose(c, tuple(range(lead + 1)) + tuple(lead + 1 + q for q in p))


class TestPathwiseInvariants:
    """Oracles of the solver that need no reference implementation."""

    @pytest.mark.parametrize("which", ["approx", "cont"])
    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (2.0, 0.5)])
    def test_axis_permutation_covariance(self, lat, which, a, b):
        # mixed cutoffs: with h_u = h_b level 3 is rounding noise
        scheme = SchemeSpec(eps=0.5, a=a, b=b, h_kind_u="smooth_bump", h_kind_b="indicator")
        cfg = SolverConfig(dt=2e-3, T=0.008, tol=1e-12)
        times = cfg.dt * np.arange(cfg.nsteps + 1)
        ops = OperatorSet(which, scheme, lat)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            t1 = sample_linear_trajectory(_noise(lat, scheme, cfg.dt, cfg.T), cfg, which)
            K = diamond_constants(times, scheme, lat) if which == "approx" else None
        u0 = taylor_green(lat, 0.5)
        b0 = 0.3 * random_vector_field(lat, np.random.default_rng(8), 2.5, True).coeff
        ref = _levels_from(t1, u0, b0, ops, cfg, K)
        for p in itertools.permutations(range(3)):
            if p == (0, 1, 2):
                continue
            t1p = Trajectory(times, _permuted(t1.u, p), _permuted(t1.b, p))
            got = _levels_from(t1p, _permuted(u0, p), _permuted(b0, p), ops, cfg, K)
            for l in (2, 3, 4):
                have = _full(ref[l])
                want = _permuted(have, p)
                assert np.max(np.abs(want - have)) > 0
                assert np.max(np.abs(_full(got[l]) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (2.0, 0.5)])
    def test_equal_cutoffs_cancel_level3_drift(self, lat, a, b):
        # identified noise with h_u = h_b gives u1 = b1: level 2 vanishes and
        # the diamond terms of level 3 cancel between the two flavors
        scheme = SchemeSpec(eps=0.5, a=a, b=b)
        cfg = SolverConfig(dt=2e-3, T=0.008)
        times = cfg.dt * np.arange(cfg.nsteps + 1)
        ops = OperatorSet("approx", scheme, lat)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            t1 = sample_linear_trajectory(_noise(lat, scheme, cfg.dt, cfg.T), cfg, "approx")
            K = diamond_constants(times, scheme, lat)
        assert np.array_equal(t1.u, t1.b) and np.max(np.abs(K[1:])) > 0
        t2 = solve_level2(t1, ops, cfg)
        forcing = []
        solve_level3(t1, t2, ops, cfg, K, forcing_out=forcing)
        assert np.max(np.abs(forcing)) < 1e-15 * np.max(np.abs(t1.y))

    def test_symmetric_scheme_constants_change_nothing(self, lat):
        # a = b: the drift tables vanish, so the constants leave the run as
        # it is, to rounding
        scheme = SchemeSpec(eps=0.5, a=1.0, b=1.0, h_kind_u="smooth_bump", h_kind_b="indicator")
        cfg = SolverConfig(dt=2e-3, T=0.008, tol=1e-12)
        noise = _noise(lat, scheme, cfg.dt, cfg.T)
        u0 = taylor_green(lat, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with_k, without = (
                run_hierarchy(noise, lat, scheme, replace(cfg, use_constants=use), "approx",
                              u0, 0.3 * u0).levels
                for use in (True, False)
            )
        for l in (2, 3, 4):
            scale = np.max(np.abs(without[l].y))
            assert scale > 0
            assert np.max(np.abs(with_k[l].y - without[l].y)) <= 1e-14 * scale


class TestWithoutConstants:
    def test_level3_drops_only_the_diamond_terms(self, lat, mixed_scheme):
        cfg = SolverConfig(dt=2e-3, T=0.01, tol=1e-8)
        noise = _noise(lat, mixed_scheme, cfg.dt, cfg.T)
        u0 = taylor_green(lat, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            runs = [
                run_hierarchy(noise, lat, mixed_scheme, replace(cfg, use_constants=use), "approx",
                              u0, 0.3 * u0)
                for use in (True, False)
            ]
        with_k, without = (r.levels for r in runs)
        for l in (1, 2):
            assert with_k[l].y.tobytes() == without[l].y.tobytes()
        ops = OperatorSet("approx", mixed_scheme, lat)
        plain = solve_level3(without[1], without[2], ops, cfg, diamonds=None)
        assert plain.y.tobytes() == without[3].y.tobytes()
        assert np.max(np.abs(with_k[3].y - without[3].y)) > 0


class TestStochasticRun:
    def test_full_run_approx(self, lat, mixed_scheme):
        cfg = SolverConfig(dt=2e-3, T=0.02, tol=1e-8)
        noise = _noise(lat, mixed_scheme, cfg.dt, cfg.T)
        u0 = taylor_green(lat, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = run_hierarchy(noise, lat, mixed_scheme, cfg, "approx", u0, 0.3 * u0)
        assert run.report.converged
        y = run.assembled()
        for n in (0, -1):
            v = VectorField(lat, y.u[n])
            assert v.divergence_defect() < 1e-12
            assert v.hermitian_defect() < 1e-12

    def test_paracontrolled_sharp_diagnostic(self, lat, mixed_scheme):
        cfg = SolverConfig(dt=2e-3, T=0.02, tol=1e-8)
        noise = _noise(lat, mixed_scheme, cfg.dt, cfg.T)
        u0 = taylor_green(lat, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = run_hierarchy(noise, lat, mixed_scheme, cfg, "approx", u0, 0.0 * u0)
        ops = OperatorSet("approx", mixed_scheme, lat)
        K = solve_K(run.levels[1], ops, cfg)
        su, sb = paracontrolled_sharp(run.levels, K, ops, n=len(run.levels[4].times) - 1)
        assert np.all(np.isfinite(su)) and np.all(np.isfinite(sb))
        # the remainder differs from u4 by the paraproduct part
        assert np.max(np.abs(su - run.levels[4].u[-1])) > 0


def _csv_writer_reference(traj, lattice, path):
    """The `csv.writer` export of the u family, the byte-level reference."""
    data = traj.u
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


class TestTrajectoryCsv:
    def test_round_trip_bit_for_bit(self, tmp_path):
        lat = ModeLattice(2)
        rng = np.random.default_rng(3)
        times = 0.1 * np.arange(4)
        shape = (len(times), 2, 3, lat.n, lat.n, lat.N + 1)
        y = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        y = y + 1j * rng.standard_normal(shape)
        y[rng.random(shape) < 0.4] = 0.0
        y.real[rng.random(shape) < 0.2] = 0.0  # purely imaginary entries stay
        y.flat[:3] = [5e-324, -5e-324j, 1.7976931348623157e308]  # k = (0, 0, 0 .. 2)
        traj = Trajectory(times, y=y)
        u = traj.u  # the exported family: the mirrored full cubes
        path = tmp_path / "u.csv"
        trajectory_to_csv(traj, lat, path, "u")

        back = np.zeros_like(u)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            n = int(np.flatnonzero(times == float(row["t"]))[0])
            k = [int(row[c]) + lat.N for c in ("k1", "k2", "k3")]
            c = complex(float(row["re"]), float(row["im"]))
            assert c != 0
            back[(n, int(row["component"]), *k)] = c
        assert len(rows) == np.count_nonzero(u)
        assert np.array_equal(back, u)
        # the bytes, CRLF line ends included, are those `csv.writer` writes
        _csv_writer_reference(traj, lat, tmp_path / "want.csv")
        assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestDriftTables:
    def test_count_audit(self, scheme, lat):
        tables = drift_assembly(scheme, 1.0, lat)
        assert tables.count() == 32

    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (2.0, 0.5), (1.0, 1.0)])
    def test_tables_match_sixteen_sums(self, lat, a, b):
        spec = SchemeSpec(
            eps=1.0, a=a, b=b, h_kind_u="smooth_bump", h_kind_b="indicator"
        )
        times = np.array([0.01, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            solver = diamond_constants(times, spec, lat)
            for n, t in enumerate(times):
                K = _expanded_k(spec, lat, float(t))
                single = drift_assembly(spec, float(t), lat)
                got, want = [], []
                for e, (eq, (ka, kb), sign) in enumerate((("u", (1, 2), 1.0), ("b", (3, 4), -1.0))):
                    for f, fl in enumerate(("u", "b")):
                        D = K[(ka, fl)] - K[(kb, fl)]
                        DT = np.transpose(D, (2, 1, 0))
                        got += [solver[n, e, f], getattr(single, f"{eq}_from_{fl}")]
                        want += [DT + sign * D, DT + D]
                for g, w in zip(got, want):
                    if a == b:
                        assert np.max(np.abs(g)) < 1e-12
                    else:
                        assert np.max(np.abs(w)) > 0
                        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))

    def test_b_equation_mirrors_u_equation(self, scheme, lat):
        # C3u = C2b, C4u = C1b, C3b = C2u, C4b = C1u transfer the b-equation
        # brackets onto the u-equation families
        t = 1.0
        c = {
            (k, f): renorm.ck(k, f, t, scheme, lat).real
            + renorm.ck_tilde(k, f, t, scheme, lat).real
            for k in (1, 2, 3, 4)
            for f in ("u", "b")
        }
        tables = drift_assembly(scheme, t, lat)
        direct = c[(3, "u")] - c[(4, "u")]
        direct = direct + np.transpose(direct, (2, 1, 0))
        assert np.allclose(tables.b_from_u, direct)
        # untilded parts agree across equations by estimate-124 equalities
        cu = renorm.ck(3, "u", t, scheme, lat)
        cb = renorm.ck(2, "b", t, scheme, lat)
        assert np.max(np.abs(cu - cb)) < 1e-12

    def test_symmetric_scheme_tables_vanish(self, lat):
        spec = SchemeSpec(eps=1.0, a=1.0, b=1.0)
        tables = drift_assembly(spec, 1.0, lat)
        for arr in (tables.u_from_u, tables.u_from_b, tables.b_from_u, tables.b_from_b):
            assert np.max(np.abs(arr)) < 1e-12

    def test_symmetric_scheme_limits_vanish(self):
        spec = SchemeSpec(eps=1.0, a=1.0, b=1.0)
        val, _ = renorm.ck2_limit("u", False, spec)
        valt, _ = renorm.ck2_limit("b", True, spec)
        assert np.max(np.abs(val)) < 1e-12
        assert np.max(np.abs(valt)) < 1e-12


class TestPicardFailureReporting:
    def test_non_contraction_reported(self, lat):
        # no silent failure: data that blow up leave the run unconverged
        scheme = SchemeSpec(eps=0.5)
        cfg = SolverConfig(dt=5e-3, T=0.2, tol=1e-14)
        u0 = taylor_green(lat, 1e4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = run_hierarchy(None, lat, scheme, cfg, "cont", u0, np.zeros_like(u0))
        assert not run.report.converged and run.report.iterations == 1
        assert not np.any(np.isfinite(run.report.increments))
