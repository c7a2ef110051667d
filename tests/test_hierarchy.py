"""Mild-solution hierarchy: level solvers, Picard remainder, drift tables."""

import csv
import warnings
from dataclasses import replace

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
from spdelab.hierarchy import _drift
from spdelab.schemes import SchemeSpec
from spdelab.torus import (
    ModeLattice,
    ScalarField,
    VectorField,
    holder_norm,
    random_vector_field,
    vector_holder_norm,
)


@pytest.fixture(scope="module")
def lat():
    return ModeLattice(4)


@pytest.fixture(scope="module")
def scheme():
    return SchemeSpec(eps=1.0, a=1.0, b=0.0).finalize()


@pytest.fixture(scope="module")
def mixed_scheme():
    return SchemeSpec(
        eps=1.0, a=1.0, b=0.0, h_kind_u="smooth_bump", h_kind_b="indicator"
    ).finalize()


def _noise(lat, scheme, dt, T, seed=5):
    return NoiseSpec(seed=seed, dt=dt, T=T, lattice=lat, scheme=scheme)


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
        cfg = SolverConfig(dt=1e-3, T=0.05, dealias=False)
        times = cfg.dt * np.arange(cfg.nsteps + 1)
        ops = OperatorSet("cont", scheme, lat)
        t1 = zero_trajectory(lat, times)
        c = np.zeros((3,) + lat.shape, np.complex128)
        c[1, lat.N + 1, lat.N, lat.N] = 0.5
        c[1, lat.N - 1, lat.N, lat.N] = 0.5
        for n in range(len(times)):
            t1.u[n] = c
        t2 = solve_level2(t1, ops, cfg)
        # forcing is the grid square of u1 projected; compute it once directly
        forcing = []
        probe = solve_level2(t1, ops, cfg, forcing_out=forcing)
        fu0 = forcing[0][0]
        lam = np.where(np.isfinite(ops.lam), ops.lam, 0.0)
        T = times[-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(lam > 0, (1 - np.exp(-lam * T)) / np.where(lam > 0, lam, 1), T)
        expected = factor * fu0
        assert np.max(np.abs(t2.u[-1] - expected)) < 1e-12 * max(np.max(np.abs(expected)), 1.0)

    def test_K_frozen_mode_analytic(self, lat, scheme):
        cfg = SolverConfig(dt=1e-3, T=0.03)
        times = cfg.dt * np.arange(cfg.nsteps + 1)
        ops = OperatorSet("cont", scheme, lat)
        t1 = zero_trajectory(lat, times)
        c = np.zeros((3,) + lat.shape, np.complex128)
        c[1, lat.N + 1, lat.N, lat.N] = 1.0
        c[1, lat.N - 1, lat.N, lat.N] = 1.0
        for n in range(len(times)):
            t1.u[n] = c
        K = solve_K(t1, ops, cfg)
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

    def test_grid_mismatch_rejected(self, lat, scheme):
        cfg = SolverConfig(dt=1e-3, T=0.01)
        bad = zero_trajectory(lat, np.arange(3) * cfg.dt)
        ops = OperatorSet("cont", scheme, lat)
        with pytest.raises(ValueError):
            solve_level2(bad, ops, cfg)


class TestTrajectoryLayout:
    def test_field_views_write_through(self, lat):
        traj = zero_trajectory(lat, 1e-3 * np.arange(3))
        assert traj.y.shape == (3, 2, 3) + lat.shape
        c = random_vector_field(lat, np.random.default_rng(1)).coeff
        traj.u[1] = c
        traj.b[2] = 2.0 * c
        assert np.array_equal(traj.y[1, 0], c) and np.array_equal(traj.y[2, 1], 2.0 * c)
        assert np.shares_memory(traj.at(1), traj.y)

    def test_pair_constructor_stacks(self, lat):
        rng = np.random.default_rng(2)
        times = 1e-3 * np.arange(3)
        u, b = (np.stack([random_vector_field(lat, rng).coeff for _ in times]) for _ in range(2))
        traj = Trajectory(times, u, b)
        assert np.array_equal(traj.y, np.stack((u, b), axis=1))
        assert np.array_equal(traj.u, u) and np.array_equal(traj.b, b)
        assert Trajectory(times, y=traj.y).y is traj.y

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
                assert fu.shape == fb.shape == (3,) + lat.shape
                pairs.append((fu, fb))
            # the residual reads (fu, fb) pairs and stacked entries alike
            assert mild_residual(traj, ops, pairs) == mild_residual(traj, ops, forcing)


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


def _expanded_drift(lat, ops, pairs, corrections=()):
    """Drift from ordered pairs (x, y) of (u, b) coefficient stacks, one
    transform per ordered product:
    u-equation x_u^i1 y_u^j - x_b^i1 y_b^j, b-equation x_b^i1 y_u^j - x_u^i1 y_b^j.
    corrections: (equation, tensor [i1, l, j], target coefficients)."""
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
        acc = np.einsum("j...,aj...->a...", ops.dmult, pm[eq] * mask)
        for eq_c, tensor, target in corrections:
            if eq_c == eq:
                acc = acc + np.einsum("alj,j...,l...->a...", tensor, ops.dmult, target)
        out[eq] = -0.5 * np.einsum("ia...,a...->i...", ops.proj, acc)
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
        eng = ProductEngine(lat, cfg.dealias)
        for n in range(cfg.nsteps):
            y1, y2, y3 = (t.y[n] for t in (t1, t2, t3))
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
                        eng, ops, eng.grids(y1), eng.grids(y2), eng.grids(w), y2 + w,
                        None if K is None else K[n],
                    ),
                    _expanded_drift(
                        lat, ops,
                        [(y1, w), (w, y1), (y2, y2), (y2, w), (w, y2), (w, w)],
                        corr4,
                    ),
                ),
            )
            for got, want in cases:
                for g, e in zip(got, want):
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


def _reference_levels(lat, ops, cfg, t1, scheme, u0, b0, sweeps):
    """Levels 2-4 with every drift rebuilt from coefficients by
    `_expanded_drift` at every step of every Picard sweep (no cached grids,
    diamond terms from `_expanded_corrections` of `scheme` at the step, none
    when `scheme` is None), a fresh iterate per sweep."""
    decay, w = ops.stepper(cfg.dt)

    def y(tr, n):
        return tr.y[n]

    def corr(n, target):
        if scheme is None:
            return ()
        return _expanded_corrections(scheme, lat, t1.times[n], target)

    def integrate(drift, init):
        out = zero_trajectory(lat, t1.times)
        out.u[0], out.b[0] = init
        for n in range(cfg.nsteps):
            fu, fb = drift(n)
            out.u[n + 1] = decay * out.u[n] + w * fu
            out.b[n + 1] = decay * out.b[n] + w * fb
        return out

    zero = np.zeros_like(u0)
    t2 = integrate(lambda n: _expanded_drift(lat, ops, [(y(t1, n), y(t1, n))]), (zero, zero))
    t3 = integrate(
        lambda n: _expanded_drift(
            lat, ops, [(y(t1, n), y(t2, n)), (y(t2, n), y(t1, n))], corr(n, y(t1, n))
        ),
        (zero, zero),
    )
    proj = lat.leray_tensor()
    init = tuple(
        np.einsum("ij...,j...->i...", proj, z0) - z1 for z0, z1 in ((u0, t1.u[0]), (b0, t1.b[0]))
    )
    t4 = integrate(lambda n: (0.0, 0.0), init)
    for _ in range(sweeps):
        prev = t4

        def drift4(n):
            y1, y2, wn = y(t1, n), y(t2, n), y(t3, n) + y(prev, n)
            pairs = [(y1, wn), (wn, y1), (y2, y2), (y2, wn), (wn, y2), (wn, wn)]
            return _expanded_drift(lat, ops, pairs, corr(n, y2 + wn))

        t4 = integrate(drift4, init)
    return {2: t2, 3: t3, 4: t4}


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

    @pytest.mark.parametrize("which", ["approx", "cont"])
    def test_increments_match_per_field_norms(self, lat, mixed_scheme, which):
        cfg = SolverConfig(dt=2e-3, T=0.01, tol=1e-14)
        _, ops, t1, K = self._levels(lat, mixed_scheme, which, cfg)
        t2 = solve_level2(t1, ops, cfg)
        t3 = solve_level3(t1, t2, ops, cfg, K)
        u0 = taylor_green(lat, 0.5)
        sweeps = 3
        # iterate k is the result of a run stopped after k sweeps
        iterates = [
            picard_y4(t1, t2, t3, u0, 0.3 * u0, ops, replace(cfg, picard_max_iter=k), K)[0]
            for k in range(sweeps + 1)
        ]
        report = picard_y4(t1, t2, t3, u0, 0.3 * u0, ops, replace(cfg, picard_max_iter=sweeps), K)[1]
        alpha = NORM_ALPHA
        want = [
            max(
                vector_holder_norm(VectorField(lat, getattr(b, fam)[n] - getattr(a, fam)[n]), alpha)
                for n in range(len(t1.times))
                for fam in ("u", "b")
            )
            for a, b in zip(iterates, iterates[1:])
        ]
        assert report.iterations == sweeps and min(want) > 0
        got = np.array(report.increments)
        assert np.max(np.abs(got - want) / want) < 1e-12

    @pytest.mark.parametrize("which", ["approx", "cont"])
    def test_trajectory_matches_uncached_reference(self, lat, mixed_scheme, which):
        cfg = SolverConfig(dt=2e-3, T=0.01, tol=1e-12)
        noise, ops, t1, K = self._levels(lat, mixed_scheme, which, cfg)
        u0 = taylor_green(lat, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = run_hierarchy(noise, lat, mixed_scheme, cfg, which, u0, 0.3 * u0)
        assert run.report.converged and run.report.iterations >= 3
        ref = _reference_levels(
            lat, ops, cfg, t1, None if K is None else mixed_scheme, u0, 0.3 * u0,
            run.report.iterations,
        )
        y = run.assembled()
        for fam in ("u", "b"):
            want = getattr(t1, fam) + sum(getattr(ref[l], fam) for l in (2, 3, 4))
            got = getattr(y, fam)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

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


class TestMildResiduals:
    def test_richardson_halving(self, lat, mixed_scheme):
        # same realization at both resolutions: sample fine, subsample coarse
        fine = SolverConfig(dt=1e-3, T=0.02, dealias=True)
        coarse = SolverConfig(dt=2e-3, T=0.02, dealias=True)
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


@pytest.fixture(scope="module")
def det_run():
    lat = ModeLattice(4)
    scheme = SchemeSpec(eps=0.5).finalize()
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
        scheme = SchemeSpec(eps=0.5).finalize()
        cfg = SolverConfig(dt=1e-3, T=0.01)
        z = np.zeros((3,) + lat.shape, np.complex128)
        run = run_hierarchy(None, lat, scheme, cfg, "cont", z, z)
        y = run.assembled()
        assert np.max(np.abs(y.u)) == 0.0 and np.max(np.abs(y.b)) == 0.0


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
        su, sb = paracontrolled_sharp(run.levels, run.K, ops, n=len(run.levels[4].times) - 1)
        assert np.all(np.isfinite(su)) and np.all(np.isfinite(sb))
        # the remainder differs from u4 by the paraproduct part
        assert np.max(np.abs(su - run.levels[4].u[-1])) > 0


class TestTrajectoryCsv:
    def test_round_trip_bit_for_bit(self, tmp_path):
        lat = ModeLattice(2)
        rng = np.random.default_rng(3)
        times = 0.1 * np.arange(4)
        shape = (len(times), 3) + lat.shape
        u = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        u = u + 1j * rng.standard_normal(shape)
        u[rng.random(shape) < 0.4] = 0.0
        u.real[rng.random(shape) < 0.2] = 0.0  # purely imaginary entries stay
        u.flat[:3] = [5e-324, -5e-324j, 1.7976931348623157e308]
        traj = Trajectory(times, u, np.zeros_like(u))
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


class TestDriftTables:
    def test_count_audit(self, scheme, lat):
        tables = drift_assembly(scheme, 1.0, lat)
        assert tables.count() == 32

    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (2.0, 0.5), (1.0, 1.0)])
    def test_tables_match_sixteen_sums(self, lat, a, b):
        spec = SchemeSpec(
            eps=1.0, a=a, b=b, h_kind_u="smooth_bump", h_kind_b="indicator"
        ).finalize()
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
        spec = SchemeSpec(eps=1.0, a=1.0, b=1.0).finalize()
        tables = drift_assembly(spec, 1.0, lat)
        for arr in (tables.u_from_u, tables.u_from_b, tables.b_from_u, tables.b_from_b):
            assert np.max(np.abs(arr)) < 1e-12

    def test_symmetric_scheme_limits_vanish(self):
        spec = SchemeSpec(eps=1.0, a=1.0, b=1.0).finalize()
        val, _ = renorm.ck2_limit("u", False, spec)
        valt, _ = renorm.ck2_limit("b", True, spec)
        assert np.max(np.abs(val)) < 1e-12
        assert np.max(np.abs(valt)) < 1e-12


class TestPicardFailureReporting:
    def test_non_contraction_reported(self, lat):
        # huge data and a too-coarse tolerance: no silent failure
        scheme = SchemeSpec(eps=0.5).finalize()
        cfg = SolverConfig(dt=5e-3, T=0.2, tol=1e-14, picard_max_iter=3)
        u0 = taylor_green(lat, 40.0)
        run = run_hierarchy(None, lat, scheme, cfg, "cont", u0, np.zeros_like(u0))
        assert not run.report.converged
        assert run.report.iterations == 3
        assert len(run.report.increments) == 3
