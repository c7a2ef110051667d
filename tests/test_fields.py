"""Coupled OU ensembles and covariance oracles."""

import numpy as np
import pytest

from spdelab.fields import (
    CoupledOUEnsemble,
    NoiseSpec,
    PairLaw,
    covariance_closed_form,
    mc_covariance,
    philox_rng,
)
from spdelab.schemes import SchemeSpec, eps_laplacian_rate, eval_f_tilde
from spdelab.torus import ModeLattice, full_spectrum, half_spectrum


@pytest.fixture(scope="module")
def small_spec():
    lattice = ModeLattice(2)
    scheme = SchemeSpec(eps=0.25)
    return NoiseSpec(seed=42, dt=0.05, T=1.0, lattice=lattice, scheme=scheme)


class TestClosedForms:
    def test_approx_equal_time(self):
        scheme = SchemeSpec(eps=0.25)
        k = np.array([1.0, 2.0, 0.0])
        ksq = 5.0
        f = float(eval_f_tilde(scheme, scheme.eps * k))
        from spdelab.schemes import eval_h

        hu = float(eval_h(scheme, "u", scheme.eps * k))
        proj = np.eye(3) - np.outer(k, k) / ksq
        got = covariance_closed_form(k, 0.7, 0.7, "uu", "approx", scheme)
        assert np.max(np.abs(got - hu**2 / (2 * ksq * f) * proj)) < 1e-14

    def test_cont_bb_with_lag(self):
        scheme = SchemeSpec(eps=0.25)
        k = np.array([0.0, 1.0, 1.0])
        tau = 0.3
        from spdelab.schemes import eval_h

        hb = float(eval_h(scheme, "b", scheme.eps * k))
        proj = np.eye(3) - np.outer(k, k) / 2.0
        want = np.exp(-2.0 * tau) * hb**2 / 4.0 * proj
        got = covariance_closed_form(k, 0.1, 0.1 + tau, "bb", "cont", scheme)
        assert np.max(np.abs(got - want)) < 1e-14

    def test_cross_uu(self):
        scheme = SchemeSpec(eps=0.25)
        k = np.array([1.0, 0.0, 0.0])
        f = float(eval_f_tilde(scheme, scheme.eps * k))
        from spdelab.schemes import eval_h

        hu = float(eval_h(scheme, "u", scheme.eps * k))
        proj = np.eye(3) - np.diag([1.0, 0.0, 0.0])
        s, t = 0.9, 0.4  # t <= s
        want = np.exp(-1.0 * (s - t)) * hu**2 / (1.0 * (f + 1.0)) * proj
        got = covariance_closed_form(k, t, s, "uu", "cross", scheme)
        assert np.max(np.abs(got - want)) < 1e-14

    def test_mixed_pair_independent_noise(self):
        scheme = SchemeSpec(eps=0.25)
        got = covariance_closed_form((1, 0, 0), 0.0, 0.0, "ub", "approx", scheme, identified=False)
        assert np.max(np.abs(got)) == 0.0

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError):
            covariance_closed_form((0, 0, 0), 0.0, 0.0, "uu", "approx", SchemeSpec())


class TestEnsemble:
    def test_cutoff_mode_stays_zero(self):
        lattice = ModeLattice(4)
        scheme = SchemeSpec(eps=2.0, h_kind_u="indicator", h_kind_b="indicator")
        spec = NoiseSpec(seed=1, dt=0.05, T=1.0, lattice=lattice, scheme=scheme)
        ens = CoupledOUEnsemble(spec)
        ens.burn_in_stationary()
        for _ in range(5):
            ens.step()
        # |eps k| > L0/2 = 3 <=> |k| > 1.5: all modes with |k| >= 2 carry no noise
        u = ens.field("u", "approx")
        r = np.sqrt(lattice.ksq)
        assert np.max(np.abs(u.coeff[:, r > 1.5])) == 0.0

    def test_reality_and_divergence(self, small_spec):
        ens = CoupledOUEnsemble(small_spec)
        ens.burn_in_stationary()
        for _ in range(3):
            ens.step()
        for fam in ("u", "b"):
            for kind in ("approx", "cont"):
                fld = ens.field(fam, kind)
                assert fld.hermitian_defect() < 1e-12
                assert fld.divergence_defect() < 1e-12
                assert np.max(np.abs(fld.mean_mode())) == 0.0

    def test_stationary_single_mode_long_run(self):
        # time-average variance over 10^5 exact steps vs closed form (batch means)
        lattice = ModeLattice(1)
        scheme = SchemeSpec(eps=0.25)
        spec = NoiseSpec(seed=3, dt=0.05, T=1.0, lattice=lattice, scheme=scheme)
        ens = CoupledOUEnsemble(spec)
        ens.burn_in_stationary()
        k_idx = (lattice.N + 1, lattice.N, lattice.N)
        nsteps = 100_000
        vals = np.empty((nsteps, 3))
        for n in range(nsteps):
            ens.step()
            snap = ens.field("u", "approx").coeff[:, k_idx[0], k_idx[1], k_idx[2]]
            vals[n] = np.abs(snap) ** 2
        want = np.diag(covariance_closed_form((1, 0, 0), 0.0, 0.0, "uu", "approx", scheme))
        batches = np.array_split(vals, 50)
        means = np.stack([b.mean(axis=0) for b in batches])
        est = means.mean(axis=0)
        se = means.std(axis=0, ddof=1) / np.sqrt(len(batches))
        assert np.all(np.abs(est - want) <= 3.0 * np.maximum(se, 1e-12))

    def test_burn_in_is_invariant_law(self, small_spec):
        est = mc_covariance(small_spec, (1, 0, 0), "uu", "approx", samples=4000)
        assert est.within(3.0)
        # the second moments (va, vc, c) of the burn-in law are a fixed point
        # of the step, on every mode: killed modes (|eps k_j| > L0 = 6 for
        # |k_j| >= 4) and k = 0 included
        lattice = ModeLattice(4)
        law = PairLaw.on_lattice(SchemeSpec(eps=2.0), lattice)
        assert not law.alive.all()
        for dt in (0.05, 0.25):
            sd_a, load, resid = law.loadings(dt)
            moments = (sd_a**2, load**2 + resid**2, sd_a * load)
            da, dc, sa, sc = law.step_factors(dt)
            va, vc, c = moments
            stepped = (da**2 * va + sa**2, dc**2 * vc + sc**2, da * dc * c + sa * sc)
            for got, want in zip(stepped, moments):
                assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


class TestMonteCarlo:
    def test_matches_closed_form_all_kinds(self, small_spec):
        for pair in ("uu", "ub", "bb"):
            for kind in ("approx", "cont", "cross"):
                est = mc_covariance(small_spec, (1, 1, 0), pair, kind, samples=3000)
                assert est.within(3.5), (pair, kind)

    def test_lagged_covariance(self, small_spec):
        est = mc_covariance(small_spec, (1, 0, 0), "uu", "approx", samples=4000, lag=0.2)
        assert est.within(3.5)

    def test_seed_reproducibility(self, small_spec):
        a = mc_covariance(small_spec, (1, 0, 0), "uu", "cont", samples=500)
        b = mc_covariance(small_spec, (1, 0, 0), "uu", "cont", samples=500)
        assert np.array_equal(a.estimate, b.estimate)

    def test_clt_scaling(self, small_spec):
        a = mc_covariance(small_spec, (1, 0, 0), "uu", "cont", samples=4000)
        b = mc_covariance(small_spec, (1, 0, 0), "uu", "cont", samples=8000)
        # compare a representative transverse entry
        ra = a.stderr[1, 1]
        rb = b.stderr[1, 1]
        assert abs(ra / rb - np.sqrt(2.0)) < 0.2 * np.sqrt(2.0)

    def test_sample_floor(self, small_spec):
        with pytest.raises(ValueError):
            mc_covariance(small_spec, (1, 0, 0), "uu", "cont", samples=10)


class TestSharedNoiseCoupling:
    def test_discrete_cross_converges_to_continuous(self):
        law = PairLaw(3.2, 2.0)
        cont = law.cross()
        gaps = [abs(law.cross(dt) - cont) for dt in (0.2, 0.1, 0.05)]
        assert gaps[0] > gaps[1] > gaps[2]
        # at least first-order decay under halving
        assert gaps[1] <= 0.6 * gaps[0]
        assert gaps[2] <= 0.6 * gaps[1]

    def test_mc_cross_matches_discrete_formula(self):
        lattice = ModeLattice(2)
        scheme = SchemeSpec(eps=0.5)
        spec = NoiseSpec(seed=11, dt=0.25, T=1.0, lattice=lattice, scheme=scheme)
        k = np.array([1.0, 1.0, 0.0])
        est = mc_covariance(spec, k, "uu", "cross", samples=6000, pair_cross="discrete")
        f = float(eval_f_tilde(scheme, scheme.eps * k))
        lam_a, lam_c = 2.0 * f, 2.0
        from spdelab.schemes import eval_h

        hu = float(eval_h(scheme, "u", scheme.eps * k))
        proj = np.eye(3) - np.outer(k, k) / 2.0
        want = float(PairLaw(lam_a, lam_c).cross(spec.dt))
        want_mat = hu**2 * want * proj
        gap = np.abs(est.estimate - want_mat)
        assert np.all(gap <= 3.5 * np.maximum(est.stderr, 1e-300))

    def test_philox_streams_independent(self):
        a = philox_rng(7, 0).standard_normal(4)
        b = philox_rng(7, 1).standard_normal(4)
        c = philox_rng(7, 0).standard_normal(4)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)


def _drew(rng: np.random.Generator, seed: int, count: int) -> bool:
    """Whether rng is where philox_rng(seed) is after `count` standard normals."""
    ref = philox_rng(seed)
    ref.standard_normal(count)
    got, want = rng.bit_generator.state, ref.bit_generator.state

    def same(a, b):
        if isinstance(a, dict):
            return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
        return np.array_equal(a, b)

    return same(got, want)


class TestHalfLayoutDraw:
    """The lattice law draws on the half layout from one real transform of
    the same white noise that the complex full-cube draw transformed."""

    @pytest.mark.parametrize("N, eps", [(2, 0.25), (4, 2.0), (8, 0.5)])
    def test_matches_full_cube_draw(self, N, eps):
        lattice = ModeLattice(N)
        scheme = SchemeSpec(eps=eps)
        law = PairLaw.on_lattice(scheme, lattice)
        full = PairLaw(eps_laplacian_rate(scheme, lattice), lattice.ksq, lattice.leray_tensor())
        axes = (-3, -2, -1)
        for dt in (None, 0.05):
            w = philox_rng(6).standard_normal((2, 3) + lattice.shape)
            z = np.fft.fftshift(np.fft.fftn(w, axes=axes), axes=axes) / lattice.n**1.5
            want = full.pair(*np.einsum("ij...,fj...->fi...", lattice.leray_tensor(), z), dt)
            got = law.draw(philox_rng(6), dt)
            for g, cube in zip(got, want):
                assert g.shape == (3, lattice.n, lattice.n, N + 1)
                gap = np.max(np.abs(g - half_spectrum(lattice, cube)))
                assert gap <= 1e-15 * np.max(np.abs(cube))

    def test_ensemble_fields_mirror_the_half_state(self, small_spec):
        ens = CoupledOUEnsemble(small_spec)
        ens.burn_in_stationary()
        ens.step()
        lat = small_spec.lattice
        assert ens.Y.shape == (1, 2, 3, lat.n, lat.n, lat.N + 1)
        for fam in ("u", "b"):
            for kind in ("approx", "cont"):
                half = ens.half_field(fam, kind)
                assert np.array_equal(ens.field(fam, kind).coeff, full_spectrum(lat, half))


class TestStreamConsumption:
    """Pins how many normals each draw takes, which fixes the draws of the
    covariance check and the Monte Carlo criteria."""

    @pytest.mark.parametrize("identified", [True, False])
    def test_ensemble_burn_in_and_steps(self, identified):
        lattice = ModeLattice(2)
        scheme = SchemeSpec(eps=0.25)
        spec = NoiseSpec(seed=8, dt=0.05, T=1.0, lattice=lattice, scheme=scheme,
                         identified=identified)
        ens = CoupledOUEnsemble(spec)
        ens.burn_in_stationary()
        m = 3
        for _ in range(m):
            ens.step()
        cubes = (6 + 3 * m) * (1 if identified else 2)
        assert _drew(ens.rng, spec.seed, cubes * lattice.n**3)
        assert not _drew(ens.rng, spec.seed, cubes * lattice.n**3 - 1)

    def test_lattice_law_draw(self):
        lattice = ModeLattice(3)
        law = PairLaw.on_lattice(SchemeSpec(eps=0.25), lattice)
        rng = philox_rng(4)
        law.draw(rng)
        assert _drew(rng, 4, 6 * lattice.n**3)
