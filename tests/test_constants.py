"""Renormalization constant families: identities, symmetries, limits."""

import itertools
import warnings

import numpy as np
import pytest

from spdelab import constants as renorm
from spdelab.fields import NoiseSpec, philox_rng
from spdelab.schemes import SchemeSpec, eval_f, eval_g, killed_mode_rule
from spdelab.torus import ModeLattice, dft_inverse, hermitian_gaussian


@pytest.fixture(scope="module")
def asym_scheme():
    # eps = 1 keeps the whole cutoff support |k| <= 3 inside N = 4
    return SchemeSpec(eps=1.0, a=1.0, b=0.0)


@pytest.fixture(scope="module")
def lat4():
    return ModeLattice(4)


@pytest.fixture(scope="module")
def mixed_scheme():
    return SchemeSpec(
        eps=1.0, a=1.0, b=0.0, h_kind_u="smooth_bump", h_kind_b="indicator"
    )


class TestC0:
    def test_diagonal_and_offdiagonal(self, asym_scheme, lat4):
        c = renorm.c0_matrix("01", asym_scheme, lat4)
        assert renorm.imag_residue(c) < 1e-12
        off = c - np.diag(np.diag(c))
        assert np.max(np.abs(off)) < 1e-12
        d = np.diag(c.real)
        assert np.allclose(d, d[0])
        assert d[0] > 0

    def test_identified_off_kills_mixed(self, asym_scheme, lat4):
        c = renorm.c0_matrix("03", asym_scheme, lat4, identified=False)
        assert np.max(np.abs(c)) == 0.0

    def test_monte_carlo_oracle(self, asym_scheme, lat4):
        # empirical one-point moment of stationary fields vs the constant
        from spdelab.fields import CoupledOUEnsemble

        spec = NoiseSpec(seed=9, dt=0.05, T=1.0, lattice=lat4, scheme=asym_scheme)
        ens = CoupledOUEnsemble(spec)
        want = renorm.c0_matrix("03", asym_scheme, lat4).real
        n = 400
        prods = np.zeros((n, 3, 3))
        for s in range(n):
            ens.burn_in_stationary()
            gu = dft_inverse(lat4, ens.field("u", "approx").coeff).real[:, 0, 0, 0]
            gb = dft_inverse(lat4, ens.field("b", "approx").coeff).real[:, 0, 0, 0]
            prods[s] = np.outer(gu, gb)
        est = prods.mean(axis=0)
        se = prods.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(est - want) <= 3.5 * np.maximum(se, 1e-12))

    def test_truncation_warning(self, asym_scheme):
        with pytest.warns(RuntimeWarning):
            renorm._build_active_modes(asym_scheme.with_eps(0.25), ModeLattice(4))


class TestModeSet:
    @pytest.mark.parametrize("N", [4, 8])
    def test_radial_pair_weight_is_the_partition_products(self, N):
        # eps = 1/8 puts every nonzero mode of the lattice in the mode set
        lat = ModeLattice(N)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ms = renorm._build_active_modes(SchemeSpec(eps=0.125), lat)
        assert ms.k.shape[0] == lat.n**3 - 1
        part = lat.partition()
        ws = [part.weight(j) for j in range(-1, part.jmax + 1)]
        grid = np.zeros(lat.shape)
        for j, w in enumerate(ws):
            for l in (j - 1, j, j + 1):
                if 0 <= l < len(ws):
                    grid += w * ws[l]
        idx = (ms.k + N).astype(int)
        assert np.array_equal(ms.pair_weight, grid[idx[:, 0], idx[:, 1], idx[:, 2]])

    def test_equal_schemes_share_one_entry(self):
        # the cache keys on the scheme itself: equal specs built apart hit one entry
        first = renorm.active_modes(SchemeSpec(eps=1.0, a=1.0, b=0.0), ModeLattice(3))
        again = renorm.active_modes(SchemeSpec(eps=1.0, a=1.0, b=0.0), ModeLattice(3))
        assert again is first
        other = renorm.active_modes(SchemeSpec(eps=1.0, a=1.0, b=0.5), ModeLattice(3))
        assert other is not first

    @pytest.mark.parametrize("N, eps", [(6, 0.5), (4, 0.25)], ids=["saturated", "truncated"])
    def test_orbit_representatives_cover_the_lattice(self, N, eps):
        scheme, lat = SchemeSpec(eps=eps, a=2.0, b=0.5, h_kind_b="indicator"), ModeLattice(N)
        assert renorm.cutoff_saturated(scheme, lat) == (eps == 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            full, reps = renorm.active_modes(scheme, lat), renorm.orbit_modes(scheme, lat)
        assert np.all(full.orbit == 1.0)
        assert reps.orbit.sum() == full.k.shape[0]
        assert np.all(np.diff(reps.k, axis=1) >= 0)
        # the six permutations of a representative give its orbit size distinct
        # modes, and the orbits together give every mode of the full set once
        images = [{tuple(k[list(p)]) for p in itertools.permutations(range(3))} for k in reps.k]
        assert [len(im) for im in images] == reps.orbit.tolist()
        covered = [k for im in images for k in im]
        assert len(covered) == len(set(covered)) and set(covered) == set(map(tuple, full.k))
        # each representative carries the full set's geometry at its mode
        row = {tuple(k): m for m, k in enumerate(full.k)}
        at = np.array([row[tuple(k)] for k in reps.k])
        for name in ("ksq", "proj", "f", "hu", "hb", "ga", "pair_weight"):
            np.testing.assert_allclose(getattr(reps, name), getattr(full, name)[at], rtol=1e-15, atol=0)

    def test_every_mode_set_lives_in_the_cache(self, mixed_scheme, lat4, monkeypatch):
        # clearing _MODE_CACHE must make every constant rebuild its mode sets:
        # the benchmark clears it so that each round pays for its builds
        built, build = [], renorm._build_active_modes
        monkeypatch.setattr(renorm, "_build_active_modes", lambda *a: built.append(build(*a)) or built[-1])

        def every_family():
            renorm.c0_matrix("03", mixed_scheme, lat4)
            renorm.ck_families(0.5, mixed_scheme, lat4)
            renorm.ck(2, "u", 0.5, mixed_scheme, lat4)
            renorm.ck_brackets(0.5, mixed_scheme, lat4)
            renorm.c34(0.5, mixed_scheme, lat4)
            renorm.c22_family(0.5, mixed_scheme, lat4)
            renorm.c13_block(1, 0.5, mixed_scheme, lat4)
            return renorm.active_modes(mixed_scheme, lat4), renorm.orbit_modes(mixed_scheme, lat4)

        renorm._MODE_CACHE.clear()
        first = every_family()
        assert len(built) == 2 and {id(ms) for ms in built} == {id(ms) for ms in first}
        assert all(any(ms is v for v in renorm._MODE_CACHE.values()) for ms in first)
        renorm._MODE_CACHE.clear()
        second = every_family()
        assert len(built) == 4
        assert all(any(ms is v for v in renorm._MODE_CACHE.values()) for ms in second)
        assert all(new is not old for new, old in zip(second, first))


class TestSecondChaosFamilies:
    def test_estimate_124_equalities(self, asym_scheme, lat4):
        t = 1.0
        pairs = (((1, "u"), (4, "b")), ((1, "b"), (4, "u")),
                 ((2, "u"), (3, "b")), ((3, "u"), (2, "b")))
        for (ka, fa), (kb, fb) in pairs:
            va = renorm.ck(ka, fa, t, asym_scheme, lat4)
            vb = renorm.ck(kb, fb, t, asym_scheme, lat4)
            assert np.max(np.abs(va - vb)) < 1e-12

    def test_tilde_sign_relations(self, asym_scheme, lat4):
        t = 1.0
        t1u = renorm.ck_tilde(1, "u", t, asym_scheme, lat4)
        t4b = renorm.ck_tilde(4, "b", t, asym_scheme, lat4)
        assert np.max(np.abs(t1u + t4b)) < 1e-12
        t2u = renorm.ck_tilde(2, "u", t, asym_scheme, lat4)
        t3b = renorm.ck_tilde(3, "b", t, asym_scheme, lat4)
        assert np.max(np.abs(t2u + t3b)) < 1e-12
        chain = [renorm.ck_tilde(1, "b", t, asym_scheme, lat4),
                 renorm.ck_tilde(2, "b", t, asym_scheme, lat4),
                 -renorm.ck_tilde(3, "u", t, asym_scheme, lat4),
                 -renorm.ck_tilde(4, "u", t, asym_scheme, lat4)]
        for other in chain[1:]:
            assert np.max(np.abs(chain[0] - other)) < 1e-12

    def test_time_zero(self, asym_scheme, lat4):
        assert np.max(np.abs(renorm.ck(2, "u", 0.0, asym_scheme, lat4))) == 0.0
        assert np.max(np.abs(renorm.ck_tilde(1, "b", 0.0, asym_scheme, lat4))) == 0.0

    def test_values_real(self, asym_scheme, lat4):
        for k in (1, 2, 3, 4):
            for fl in ("u", "b"):
                v = renorm.ck(k, fl, 1.0, asym_scheme, lat4)
                vt = renorm.ck_tilde(k, fl, 1.0, asym_scheme, lat4)
                assert renorm.imag_residue(v) < 1e-10
                assert renorm.imag_residue(vt) < 1e-10
                assert np.max(np.abs(v)) > 0  # nonzero for a != b

    def test_barred_vanish(self, asym_scheme, lat4):
        for k in (1, 2, 3, 4):
            for fl in ("u", "b"):
                assert np.max(np.abs(renorm.ck(k, fl, 1.0, asym_scheme, lat4, bar=True))) < 1e-12
                assert np.max(np.abs(renorm.ck_tilde(k, fl, 1.0, asym_scheme, lat4, bar=True))) < 1e-12

    @pytest.mark.parametrize("bar", [False, True])
    def test_families_equal_single_calls(self, mixed_scheme, lat4, bar):
        # one sum per (wiring, h-product), signed from the table
        fams = renorm.ck_families(0.5, mixed_scheme, lat4, bar=bar)
        assert len(fams) == 16
        for k in (1, 2, 3, 4):
            for fl in ("u", "b"):
                for kind, fn in (("C", renorm.ck), ("tC", renorm.ck_tilde)):
                    want = fn(k, fl, 0.5, mixed_scheme, lat4, bar=bar)
                    assert fams[(kind, k, fl)].tobytes() == want.tobytes()

    def test_cutoff_saturation(self, asym_scheme):
        a = renorm.ck(2, "u", 1.0, asym_scheme, ModeLattice(4))
        b = renorm.ck(2, "u", 1.0, asym_scheme, ModeLattice(6))
        assert np.max(np.abs(a - b)) < 1e-12
        assert renorm.cutoff_saturated(asym_scheme, ModeLattice(4))
        assert not renorm.cutoff_saturated(asym_scheme.with_eps(0.25), ModeLattice(4))

    def test_symmetric_scheme_vanishes(self, lat4):
        spec = SchemeSpec(eps=1.0, a=1.0, b=1.0)
        assert np.max(np.abs(renorm.ck(2, "u", 1.0, spec, lat4))) < 1e-12
        assert np.max(np.abs(renorm.ck_tilde(1, "u", 1.0, spec, lat4))) < 1e-12


class TestLimits:
    def test_symmetric_scheme_limit_zero(self):
        spec = SchemeSpec(eps=1.0, a=1.0, b=1.0)
        val, err = renorm.ck2_limit("u", False, spec)
        assert np.max(np.abs(val)) < 1e-12

    def test_lattice_approaches_quadrature(self):
        # moderate-eps version of the acceptance check (tight case runs there)
        spec = SchemeSpec(
            eps=1 / 16, a=1.0, b=0.0, h_kind_u="indicator", h_kind_b="indicator"
        )
        val, err = renorm.ck2_limit("u", False, spec)
        lat = ModeLattice(48)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lattice_val = renorm.ck(2, "u", 1.0, spec, lat).real
        rel = np.linalg.norm(lattice_val - val) / np.linalg.norm(val)
        assert rel < 0.05

    def test_quadrature_error_control(self, asym_scheme):
        val, err = renorm.ck2_limit("u", False, asym_scheme, rtol=1e-4)
        assert err <= 1e-4 * np.max(np.abs(val))
        with pytest.raises(renorm.QuadratureError):
            renorm.ck2_limit("u", False, asym_scheme, rtol=1e-16)

    def test_tilde_limit_sign_pairing(self, asym_scheme):
        vu, _ = renorm.ck2_limit("u", True, asym_scheme)
        # tilde u-limit uses +h_b^2; untilded u-limit uses -h_b^2 with a
        # different projection wiring; both must be real and nonzero
        assert np.max(np.abs(vu)) > 0

    def test_integrand_origin_bound(self, asym_scheme):
        # |x|^2 * integrand stays bounded on shrinking shells (Taylor bound)
        from spdelab.schemes import eval_f_tilde, eval_h

        rng = np.random.default_rng(0)
        dirs = rng.standard_normal((200, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        prev = None
        for r in (0.5, 0.05, 0.005):
            x = r * dirs
            ft = eval_f_tilde(asym_scheme, x)
            hb = eval_h(asym_scheme, "b", x)
            cosdiff = np.cos(asym_scheme.a * x) - np.cos(asym_scheme.b * x)
            vals = np.abs(cosdiff).max(axis=1) * hb**2 / (r**2 * ft**2)
            bound = np.max(vals) * r**2 / r**2
            assert np.isfinite(bound)
            if prev is not None:
                assert bound < 2.0 * prev + 1e-12
            prev = bound


class TestC22Family:
    def test_equal_cutoffs_vanish(self, asym_scheme, lat4):
        fam = renorm.c22_family(1.0, asym_scheme, lat4)
        for arr in (fam.C, fam.C_bar, fam.phi, fam.phi_bar):
            assert np.max(np.abs(arr)) < 1e-12

    def test_equal_cutoffs_exactly_zero_with_no_live_rows(self, asym_scheme, lat4, monkeypatch):
        # Y = -(h_u(k1) h_b(k2) - h_u(k2) h_b(k1))^2 is exactly 0 for h_u == h_b,
        # so every pair is skipped before the kernel (eval_g) is evaluated
        assert asym_scheme.h_kind_u == asym_scheme.h_kind_b
        renorm.active_modes(asym_scheme, lat4)  # the mode sets call eval_g themselves
        renorm.orbit_modes(asym_scheme, lat4)
        eval_g, calls = renorm.eval_g, []
        monkeypatch.setattr(renorm, "eval_g", lambda *a: calls.append(a) or eval_g(*a))
        fam = renorm.c22_family(1.0, asym_scheme, lat4)
        assert not calls
        for arr in (fam.C, fam.C_bar, fam.phi, fam.phi_bar):
            assert np.all(arr == 0.0)

    def test_real_and_nonzero(self, mixed_scheme, lat4):
        fam = renorm.c22_family(1.0, mixed_scheme, lat4)
        assert renorm.imag_residue(fam.C) < 1e-10
        assert renorm.imag_residue(fam.phi) < 1e-10
        assert np.max(np.abs(fam.C)) > 0

    def test_diamond_vanishes_at_time_zero(self, mixed_scheme, lat4):
        # u2(0) = 0 forces phi(0) + C(0) = 0 for both branches
        fam = renorm.c22_family(0.0, mixed_scheme, lat4)
        assert np.max(np.abs(fam.phi + fam.C)) < 1e-18
        assert np.max(np.abs(fam.phi_bar + fam.C_bar)) < 1e-18

    def test_phi_difference_decays(self, mixed_scheme, lat4):
        rho = 0.3
        sups = []
        eps_sched = (1.0, 0.75, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for eps in eps_sched:
                spec = mixed_scheme.with_eps(eps)
                vals = [
                    t**rho * np.max(np.abs((f := renorm.c22_family(t, spec, lat4)).phi - f.phi_bar))
                    for t in (0.25, 1.0)
                ]
                sups.append(max(vals))
        slope = np.polyfit(np.log(eps_sched), np.log(sups), 1)[0]
        assert slope > 0

    def test_phi_difference_decays_saturated(self, mixed_scheme):
        # the same check on lattices that hold the whole cutoff support, N = 3/eps
        rho = 0.3
        sups = []
        eps_sched = (1.0, 0.5, 0.25)
        for eps in eps_sched:
            spec, lat = mixed_scheme.with_eps(eps), ModeLattice(round(3 / eps))
            assert renorm.cutoff_saturated(spec, lat)
            vals = [
                t**rho * np.max(np.abs((f := renorm.c22_family(t, spec, lat, budget=10**8)).phi - f.phi_bar))
                for t in (0.25, 1.0)
            ]
            sups.append(max(vals))
        slope = np.polyfit(np.log(eps_sched), np.log(sups), 1)[0]
        assert slope > 0

    @pytest.mark.parametrize(
        "double_sum",
        [renorm.c22_family, lambda t, s, lat, budget: renorm.c13_block(1, t, s, lat, budget)],
        ids=["c22_family", "c13_block"],
    )
    def test_budget(self, mixed_scheme, lat4, double_sum):
        with pytest.raises(renorm.BudgetError):
            double_sum(1.0, mixed_scheme, lat4, budget=10)


class TestC13Blocks:
    def test_identity_residual(self, asym_scheme, lat4):
        blk = renorm.c13_block(1, 1.0, asym_scheme, lat4)
        scale = max(np.max(np.abs(blk.C)), 1e-30)
        assert blk.identity_residual() < 1e-10 * max(scale, 1.0)

    def test_time_zero(self, asym_scheme, lat4):
        blk = renorm.c13_block(1, 0.0, asym_scheme, lat4)
        for arr in (blk.C, blk.C_bar, blk.phi, blk.phi_bar):
            assert np.max(np.abs(arr)) == 0.0

    def test_phi_difference_decays(self, mixed_scheme, lat4):
        rho = 0.3
        sups = []
        eps_sched = (1.0, 0.75, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for eps in eps_sched:
                spec = mixed_scheme.with_eps(eps)
                vals = [
                    t**rho * np.max(np.abs((b := renorm.c13_block(1, t, spec, lat4)).phi - b.phi_bar))
                    for t in (0.25, 1.0)
                ]
                sups.append(max(vals))
        slope = np.polyfit(np.log(eps_sched), np.log(sups), 1)[0]
        assert slope > 0

    def test_phi_difference_decays_saturated(self, mixed_scheme):
        # the same check on lattices that hold the whole cutoff support, N = 3/eps
        rho = 0.3
        sups = []
        eps_sched = (1.0, 0.5, 0.25)
        for eps in eps_sched:
            spec, lat = mixed_scheme.with_eps(eps), ModeLattice(round(3 / eps))
            assert renorm.cutoff_saturated(spec, lat)
            vals = [
                t**rho * np.max(np.abs((b := renorm.c13_block(1, t, spec, lat, budget=10**8)).phi - b.phi_bar))
                for t in (0.25, 1.0)
            ]
            sups.append(max(vals))
        slope = np.polyfit(np.log(eps_sched), np.log(sups), 1)[0]
        assert slope > 0

    def test_all_blocks_real(self, mixed_scheme, lat4):
        for b in (1, 2, 3, 4):
            blk = renorm.c13_block(b, 0.7, mixed_scheme, lat4)
            assert renorm.imag_residue(blk.C) < 1e-10
            assert renorm.imag_residue(blk.phi) < 1e-10

    def test_unimplemented_blocks_stub(self, asym_scheme, lat4):
        with pytest.raises(NotImplementedError):
            renorm.c13_block(5, 1.0, asym_scheme, lat4)


class TestC13Pass:
    """Blocks 1..4 come from one `_c13_pass`, kept with the mode set for the last t."""

    FIELDS = ("C", "C_bar", "phi", "phi_bar", "L")

    @pytest.fixture
    def passes(self, monkeypatch):
        # each pass enumerates its pairs once: count the enumerations
        calls, pair_blocks = [], renorm._pair_blocks
        monkeypatch.setattr(renorm, "_pair_blocks", lambda *a: calls.append(a) or pair_blocks(*a))
        renorm._MODE_CACHE.clear()
        return calls

    def test_four_blocks_one_pass(self, passes, mixed_scheme, lat4):
        blocks = {b: renorm.c13_block(b, 0.4, mixed_scheme, lat4) for b in (3, 1, 4, 2)}
        assert len(passes) == 1
        assert all(np.max(np.abs(blk.C)) > 0 for blk in blocks.values())

    def test_new_t_or_cleared_cache_runs_a_new_pass(self, passes, mixed_scheme, lat4):
        first = renorm.c13_block(2, 0.4, mixed_scheme, lat4)
        renorm.c13_block(3, 0.4, mixed_scheme, lat4)
        assert len(passes) == 1
        renorm.c13_block(2, 0.5, mixed_scheme, lat4)
        renorm.c13_block(1, 0.5, mixed_scheme, lat4)
        assert len(passes) == 2
        again = renorm.c13_block(2, 0.4, mixed_scheme, lat4)  # only the last t is kept
        assert len(passes) == 3
        renorm._MODE_CACHE.clear()
        cold = renorm.c13_block(2, 0.4, mixed_scheme, lat4)
        assert len(passes) == 4
        for n in self.FIELDS:
            np.testing.assert_array_equal(getattr(again, n), getattr(first, n))
            np.testing.assert_array_equal(getattr(cold, n), getattr(first, n))

    def test_checks_run_before_the_cache_is_read(self, passes, mixed_scheme, lat4):
        renorm.c13_block(1, 0.4, mixed_scheme, lat4)
        kept = renorm.active_modes(mixed_scheme, lat4).c13
        with pytest.raises(renorm.BudgetError):
            renorm.c13_block(1, 0.4, mixed_scheme, lat4, budget=10)
        with pytest.raises(NotImplementedError):
            renorm.c13_block(5, 0.4, mixed_scheme, lat4)
        assert renorm.active_modes(mixed_scheme, lat4).c13 is kept

    def test_returned_arrays_are_fresh(self, passes, mixed_scheme, lat4):
        blk = renorm.c13_block(2, 0.4, mixed_scheme, lat4)
        want = {n: getattr(blk, n).copy() for n in self.FIELDS}
        for n in self.FIELDS:
            getattr(blk, n)[...] = 7.0
        again = renorm.c13_block(2, 0.4, mixed_scheme, lat4)
        assert len(passes) == 1
        for n in self.FIELDS:
            np.testing.assert_array_equal(getattr(again, n), want[n])


class TestKilledPairs:
    """At eps = nextafter(1, 2), N = 4 and L0 = 6, the modes +-3 e_j enter the
    mode set through its 1e-12 slack, and the six pairs k1 = k2 = +-3 e_j have
    f(eps k12) = inf: the double sums must drop them."""

    EPS = float(np.nextafter(1.0, 2.0))

    @pytest.fixture(scope="class")
    def edge_scheme(self):
        return SchemeSpec(
            eps=self.EPS, a=2.0, b=0.5, h_kind_u="smooth_bump", h_kind_b="indicator"
        )

    def test_six_killed_pairs_with_zero_cutoffs(self, edge_scheme, lat4):
        assert (edge_scheme.h_kind_u, edge_scheme.h_kind_b) == ("smooth_bump", "indicator")
        ms = renorm.active_modes(edge_scheme, lat4)
        k12 = ms.k[:, None, :] + ms.k[None, :, :]
        lam12 = np.sum(k12**2, axis=-1) * eval_f(edge_scheme, edge_scheme.eps * k12)
        alive, _ = killed_mode_rule(lam12)
        a, b = np.nonzero(~alive)
        assert np.array_equal(ms.k[a], ms.k[b])
        edge = np.concatenate([3.0 * np.eye(3), -3.0 * np.eye(3)])
        assert sorted(map(tuple, ms.k[a])) == sorted(map(tuple, edge))
        assert np.all(ms.hu[a] == 0.0) and np.all(ms.hb[a] == 0.0)

    def test_sums_finite_with_fp_errors_raising(self, edge_scheme, lat4):
        renorm.active_modes(edge_scheme, lat4)  # the partition's smooth step underflows by design
        with np.errstate(all="raise"):
            fam = renorm.c22_family(0.3, edge_scheme, lat4)
            blocks = [renorm.c13_block(b, 0.3, edge_scheme, lat4) for b in (1, 2, 3, 4)]
        arrs = [fam.C, fam.C_bar, fam.phi, fam.phi_bar]
        arrs += [getattr(blk, n) for blk in blocks for n in ("C", "C_bar", "phi", "phi_bar", "L")]
        assert all(np.all(np.isfinite(v)) for v in arrs)
        assert np.max(np.abs(fam.C)) > 0 and np.max(np.abs(blocks[0].C)) > 0

    def test_every_family_from_an_empty_cache_with_fp_errors_raising(self, edge_scheme, lat4):
        # both mode sets are built inside the block, and the partition's
        # smooth step underflows by design
        renorm._MODE_CACHE.clear()
        with np.errstate(all="raise"):
            vals = [renorm.c0_matrix(w, edge_scheme, lat4, bar=bar) for w in ("01", "02", "03") for bar in (False, True)]
            for bar in (False, True):
                vals += renorm.ck_families(0.3, edge_scheme, lat4, bar=bar).values()
            vals.append(renorm.ck_brackets(np.array([0.0, 0.3]), edge_scheme, lat4))
            vals.append(renorm.c34(0.3, edge_scheme, lat4))
            fam = renorm.c22_family(0.3, edge_scheme, lat4)
            vals += [fam.C, fam.C_bar, fam.phi, fam.phi_bar]
            for b in (1, 2, 3, 4):
                blk = renorm.c13_block(b, 0.3, edge_scheme, lat4)
                vals += [blk.C, blk.C_bar, blk.phi, blk.phi_bar, blk.L]
            vals += [renorm.ck2_limit(fl, tl, edge_scheme)[0] for fl in ("u", "b") for tl in (False, True)]
            vals.append(renorm.ck(2, "u", 0.3, SchemeSpec(eps=0.5), ModeLattice(6)))
        assert len(vals) == 6 + 32 + 2 + 4 + 20 + 4 + 1
        assert all(np.all(np.isfinite(v)) for v in vals)

    def test_smooth_cutoffs_match_eps_one(self, lat4):
        edge = SchemeSpec(eps=self.EPS, a=2.0, b=0.5, h_kind_u="smooth_bump", h_kind_b="smooth_bump")
        for b in (1, 2, 3, 4):
            got = renorm.c13_block(b, 0.3, edge, lat4)
            want = renorm.c13_block(b, 0.3, edge.with_eps(1.0), lat4)
            for n in ("C", "C_bar", "phi", "phi_bar", "L"):
                scale = np.max(np.abs(getattr(want, n)))
                assert scale > 0
                assert np.max(np.abs(getattr(got, n) - getattr(want, n))) <= 1e-12 * scale


# -- row-loop reference of the double sums -------------------------------------
#
# The double sums as one row k1 at a time: each row evaluates f, g and the
# Leray symbol of k12 = k1 + k2 itself, and each kernel is contracted with
# one weight at a time.  The library's block enumeration and sum-lattice
# table must reproduce these values to rounding.


def _ref_pair_rows(ms, scheme, weight):
    for a in range(ms.k.shape[0]):
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


def _ref_c22(t, scheme, lattice):
    ms = renorm.active_modes(scheme, lattice)
    C, Cb, ph, phb = np.zeros((4, 3, 3), dtype=np.complex128)

    def weight(a):
        return -((ms.hu[a] * ms.hb - ms.hu * ms.hb[a]) ** 2)

    for a, b, Y, k12, k12sq, P12, lam12, Ga in _ref_pair_rows(ms, scheme, weight):
        P1, P2 = ms.proj[a], ms.proj[b]
        f1, f2 = ms.f[a], ms.f[b]
        k1sq, k2sq = ms.ksq[a], ms.ksq[b]
        Gb = -np.conj(Ga)
        Gi = 1j * k12
        lamsum = lam12 + k1sq * f1 + k2sq * f2
        lam12_b = k12sq
        lamsum_b = k12sq + k1sq + k2sq
        base = Y / (4.0 * k1sq * f1 * k2sq * f2) / lamsum
        base_b = Y / (4.0 * k1sq * k2sq * lamsum_b)
        d_C = base / lam12
        d_Cb = base_b / lam12_b
        d_phi = base * (np.exp(-2.0 * lam12 * t) / lam12
                        + 2.0 * renorm._lagged_integral(lam12, lamsum, t))
        d_phib = base_b * (np.exp(-2.0 * lam12_b * t) / lam12_b
                           + 2.0 * renorm._lagged_integral(lam12_b, lamsum_b, t))

        def bracket(G1, G2, weights):
            u = P12 @ (P1 @ G2[..., None])
            v = np.einsum("mij,mj->mi", P12, np.einsum("mij,mj->mi", P2, G1))
            first = u[..., 0][:, :, None] * v[:, None, :]
            scal = np.einsum("mi,mij,mj->m", G1, P2, G2)
            second = scal[:, None, None] * np.einsum("mia,ab,mjb->mij", P12, P1, P12)
            return np.einsum("m,mij->ij", weights, first - second)

        C += -bracket(Ga, Gb, d_C)
        Cb += -bracket(Gi, Gi, d_Cb)
        ph += bracket(Ga, Gb, d_phi)
        phb += bracket(Gi, Gi, d_phib)

    pref = renorm.TWO_PI_M6 / 4.0
    return {"C": pref * C, "C_bar": pref * Cb, "phi": pref * ph, "phi_bar": pref * phb}


def _ref_c13(block, t, scheme, lattice):
    ms = renorm.active_modes(scheme, lattice)
    sign, bsign, (combo2, combo1) = renorm._C13_TABLE[block]
    h1, h2 = renorm._hh(ms.hu, ms.hb, combo1), renorm._hh(ms.hu, ms.hb, combo2)
    acc = np.zeros((5, 3, 3), dtype=np.complex128)

    def weight(a):
        return h1[a] * h2 * ms.pair_weight

    for a, b, hc, k12, k12sq, P12, lam12, Ga12 in _ref_pair_rows(ms, scheme, weight):
        P1, P2 = ms.proj[a], ms.proj[b]
        f1, f2 = ms.f[a], ms.f[b]
        k1sq, k2sq = ms.ksq[a], ms.ksq[b]

        def tensor(G12, G2):
            inner = np.einsum("ij,mj->mi", P1, G2)
            u = np.einsum("mij,mjk,mk->mi", P2, P12, inner)
            v = np.einsum("mij,mj->mi", P2, G12)
            first = u[:, :, None] * v[:, None, :]
            mat = np.einsum("mij,mjk,mkl->mil", P2, P12, P2)
            scal = np.einsum("mi,ij,mj->m", G2, P1, G12)
            return first + bsign * scal[:, None, None] * mat

        terms = []
        for lam2, lamsum, den, G12, G2 in (
            (k2sq * f2, lam12 + k1sq * f1 + k2sq * f2, 4.0 * k1sq * f1 * k2sq * f2, Ga12, ms.ga[b]),
            (k2sq, k12sq + k1sq + k2sq, 4.0 * k1sq * k2sq, 1j * k12, 1j * ms.k[b]),
        ):
            wts = hc / (den * lamsum)
            T = tensor(G12, G2)
            terms.append(np.einsum("m,mij->ij", wts * renorm._heat_integral(lam2, t), T))
            terms.append(np.einsum("m,mij->ij", wts * -renorm._lagged_integral(lam2, lamsum, t), T))
        cA, phA, cB, phB = terms
        acc += [cA, phA, cB, phB, (cA + phA) - (cB + phB)]

    C, ph, Cb, phb, L = sign * renorm.TWO_PI_M6 * acc
    return {"C": C, "C_bar": Cb, "phi": ph, "phi_bar": phb, "L": L}


def _assert_matches_reference(scheme, lattice, t, blocks=(1, 2, 3, 4)):
    """c22_family and the given c13 blocks against the row loop, array by
    array, to 1e-13 of each array's largest entry (exactly where it is 0)."""
    got = {"c22": renorm.c22_family(t, scheme, lattice)}
    want = {"c22": _ref_c22(t, scheme, lattice)}
    for b in blocks:
        got[b] = renorm.c13_block(b, t, scheme, lattice)
        want[b] = _ref_c13(b, t, scheme, lattice)
    for fam, arrays in want.items():
        for name, ref in arrays.items():
            diff = np.max(np.abs(getattr(got[fam], name) - ref))
            assert diff <= 1e-13 * np.max(np.abs(ref)), (fam, name, t, diff)


class TestBlockEngine:
    """`_pair_blocks` and its `SumLattice` against the row-loop reference."""

    EDGE = dict(eps=TestKilledPairs.EPS, a=2.0, b=0.5, h_kind_u="smooth_bump", h_kind_b="indicator")

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("kind", ["default_cutoffs", "mixed", "edge"])
    def test_matches_row_loop(self, kind, t, asym_scheme, mixed_scheme, lat4):
        scheme = {
            "default_cutoffs": asym_scheme,
            "mixed": mixed_scheme,
            "edge": SchemeSpec(**self.EDGE),
        }[kind]
        _assert_matches_reference(scheme, lat4, t)

    def test_matches_row_loop_saturated_n6(self):
        # M = 924, the benchmark's lattice; blocks 1 and 3 carry the two
        # bracket signs (the row loop takes about 3 s per family here)
        scheme = SchemeSpec(
            eps=0.5, a=1.0, b=0.0, h_kind_u="smooth_bump", h_kind_b="indicator"
        )
        _assert_matches_reference(scheme, ModeLattice(6), 0.6, blocks=(1, 3))

    def test_one_row_blocks(self, mixed_scheme, lat4, monkeypatch):
        monkeypatch.setattr(renorm, "_PAIR_BLOCK", 1)
        renorm._MODE_CACHE.clear()  # else c13_block reads blocks kept from a larger blocking
        _assert_matches_reference(mixed_scheme, lat4, 0.3)

    def test_table_built_lazily_and_kept(self, asym_scheme, mixed_scheme, lat4):
        renorm._MODE_CACHE.clear()
        ms = renorm.active_modes(asym_scheme, lat4)
        renorm.c22_family(1.0, asym_scheme, lat4)  # h_u == h_b: no live pair
        assert ms.sum_lattice is None
        renorm.c13_block(1, 1.0, asym_scheme, lat4)
        table = ms.sum_lattice
        K = int(np.max(np.abs(ms.k)))
        assert table.ksq.shape == ((4 * K + 1) ** 3,)
        assert not table.alive[table.ksq == 0].any()
        renorm.c22_family(1.0, asym_scheme, lat4)
        assert renorm.active_modes(asym_scheme, lat4).sum_lattice is table
        assert renorm.active_modes(mixed_scheme, lat4).sum_lattice is None


class TestC34:
    def test_time_zero(self, asym_scheme, lat4):
        assert np.max(np.abs(renorm.c34(0.0, asym_scheme, lat4))) == 0.0

    def test_real(self, asym_scheme, lat4):
        v = renorm.c34(1.0, asym_scheme, lat4)
        assert renorm.imag_residue(v) < 1e-10

    def test_monotone_toward_limit(self, asym_scheme, lat4):
        ts = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0)
        vals = [renorm.c34(t, asym_scheme, lat4).real for t in ts]
        # diagonal entries (recorded empirically): |value| nondecreasing in t,
        # with shrinking increments toward a finite limit
        diag = np.array([[v[i, i, j, j] for i in range(3) for j in range(3)] for v in vals])
        mags = np.abs(diag)
        assert np.all(mags[1:] >= mags[:-1] - 1e-15)
        incs = np.abs(diag[1:] - diag[:-1]).max(axis=1)
        assert incs[-1] < incs[0]


# -- full-lattice references of the single sums --------------------------------
#
# Each single sum written over every mode of `active_modes`.  The library sums
# over the representatives of `orbit_modes` and symmetrises; the two must agree
# to rounding.


def _ref_ck(full, t, bar, kind, combo, absolute=False):
    """0.5 (2pi)^-3 sum_k w(k) h h' W(k) of one (wiring, h-product); with
    `absolute`, the same sum of absolute values, the rounding scale of a sum
    that vanishes."""
    lam = full.ksq * (1.0 if bar else full.f)
    t = np.asarray(t, dtype=np.float64)[..., None]
    w = -np.expm1(-2.0 * lam * t) / (2.0 * lam) / (2.0 * lam) * renorm._hh(full.hu, full.hb, combo)
    gfac, P = (1j * full.k if bar else full.ga), full.proj
    if absolute:
        w, gfac, P = np.abs(w), np.abs(gfac), np.abs(P)
    if kind == "tC":
        total = np.einsum("...m,maj,mc->...acj", w, P, gfac)
    else:
        total = np.einsum("...m,mab,mc,mcj->...abj", w, P, gfac, P)
    return 0.5 * renorm.TWO_PI_M3 * total


class TestOrbitSums:
    """Every single sum against its full-lattice reference, to 1e-13 of the
    reference's largest entry (of its sum of absolute values where it
    vanishes)."""

    T = 0.6

    @pytest.fixture(
        params=[("finite_difference", 1.0, 0.0), ("finite_difference", 2.0, 0.5),
                ("galerkin", 1.0, 0.0), ("galerkin", 2.0, 0.5)],
        ids=["fd-1-0", "fd-2-0.5", "galerkin-1-0", "galerkin-2-0.5"],
    )
    def case(self, request):
        f_kind, a, b = request.param
        scheme = SchemeSpec(eps=0.5, a=a, b=b, f_kind=f_kind, h_kind_u="smooth_bump", h_kind_b="indicator")
        lat = ModeLattice(6)
        return scheme, lat, renorm.active_modes(scheme, lat)

    @staticmethod
    def assert_close(got, want, scale=None):
        scale = np.max(np.abs(want)) if scale is None else scale
        assert scale > 0
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("bar", [False, True])
    def test_c0_matrix(self, case, bar):
        scheme, lat, full = case
        f = 1.0 if bar else full.f
        for which, hh in (("01", full.hu**2), ("02", full.hb**2), ("03", full.hu * full.hb)):
            want = renorm.TWO_PI_M3 * np.einsum("m,mij->ij", hh / (2.0 * full.ksq * f), full.proj)
            self.assert_close(renorm.c0_matrix(which, scheme, lat, bar=bar), want)

    @pytest.mark.parametrize("bar", [False, True])
    def test_ck_families(self, case, bar):
        scheme, lat, full = case
        got = renorm.ck_families(self.T, scheme, lat, bar=bar)
        for (kind, k, fl), (sign, combo) in renorm._CK_TABLE.items():
            want = sign * _ref_ck(full, self.T, bar, kind, combo)
            scale = np.max(_ref_ck(full, self.T, bar, kind, combo, absolute=True)) if bar else None
            self.assert_close(got[(kind, k, fl)], want, scale)

    def test_ck_brackets_at_times(self, case):
        scheme, lat, full = case
        times = np.array([0.0, 0.1, self.T, 2.0])
        got = renorm.ck_brackets(times, scheme, lat)
        want = np.zeros(got.shape)
        for n, (a, b) in enumerate(renorm.CK_BRACKETS):
            for m, fl in enumerate(("u", "b")):
                for k, s in ((a, 1.0), (b, -1.0)):
                    for kind in ("C", "tC"):
                        sign, combo = renorm._CK_TABLE[(kind, k, fl)]
                        want[:, n, m] += s * sign * _ref_ck(full, times, False, kind, combo).real
        self.assert_close(got, want)

    def test_c34(self, case):
        scheme, lat, full = case
        lam = full.ksq * full.f
        w = full.pair_weight * -np.expm1(-2.0 * lam * self.T) / (2.0 * lam) * full.hb**2 / (2.0 * lam)
        want = renorm.TWO_PI_M3 * np.einsum("m,mab,mc,mcd->abcd", w, full.proj, full.ga, full.proj)
        self.assert_close(renorm.c34(self.T, scheme, lat), want)


# -- the single sums' contraction ----------------------------------------------


def _loop_wired_sum(proj, weight, gfac, tilde):
    """`_wired_sum` one mode at a time: P^(i i1) (gfac . P)^j untilded,
    P^(ij) gfac^(i2) at [i, i2, j] tilde."""
    out = np.zeros(weight.shape[:-1] + (3, 3, 3), dtype=np.result_type(weight, gfac))
    for m in range(proj.shape[0]):
        P, g = proj[m], gfac[m]
        W = P[:, None, :] * g[None, :, None] if tilde else P[:, :, None] * (g @ P)[None, None, :]
        out += weight[..., m, None, None, None] * W
    return out


class TestLerayContraction:
    """`_wired_sum`'s blocked real products against a per-mode loop, at the
    default block, at blocks that do not divide M (7) and at one block that
    takes the weight rows in groups of five (5 M + 1)."""

    @pytest.fixture
    def modes(self, mixed_scheme, lat4):
        ms = renorm.active_modes(mixed_scheme, lat4)
        assert ms.k.shape[0] == 122 and 122 % 7
        return ms

    @staticmethod
    def set_block(monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(renorm, "_MODE_BLOCK", block)

    @pytest.mark.parametrize("block", [None, 7, 611])
    @pytest.mark.parametrize("tilde", [False, True], ids=["untilded", "tilde"])
    @pytest.mark.parametrize("factor", ["complex", "real"])
    @pytest.mark.parametrize("rows", [(), (3, 2, 2)], ids=["scalar", "batched"])
    def test_matches_mode_loop(self, modes, monkeypatch, block, tilde, factor, rows):
        self.set_block(monkeypatch, block)
        rng = np.random.default_rng(11)
        M = modes.k.shape[0]
        weight = rng.uniform(-1.0, 1.0, rows + (M,))
        gfac = rng.standard_normal((M, 3))
        if factor == "complex":
            gfac = gfac + 1j * rng.standard_normal((M, 3))
        got = renorm._wired_sum(modes.proj, weight, gfac, tilde)
        want = _loop_wired_sum(modes.proj, weight, gfac, tilde)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("block", [None, 7, 611])
    def test_c34_matches_mode_loop(self, mixed_scheme, lat4, modes, monkeypatch, block):
        self.set_block(monkeypatch, block)
        t = 0.6
        lam = modes.ksq * modes.f
        w = modes.pair_weight * -np.expm1(-2.0 * lam * t) / (2.0 * lam) * modes.hb**2 / (2.0 * lam)
        want = np.zeros((3, 3, 3, 3), dtype=np.complex128)
        for m in range(modes.k.shape[0]):
            gp = modes.ga[m, :, None] * modes.proj[m]
            want += w[m] * modes.proj[m][:, :, None, None] * gp[None, None]
        want *= renorm.TWO_PI_M3
        got = renorm.c34(t, mixed_scheme, lat4)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    # ck sums over the M = 32 orbit representatives: a block of 97 takes the
    # seven times in row groups of 3, 3 and 1
    @pytest.mark.parametrize("block", [None, 7, 97])
    @pytest.mark.parametrize("fn", [renorm.ck, renorm.ck_tilde], ids=["ck", "ck_tilde"])
    def test_time_batched_rows_are_scalar_calls(self, mixed_scheme, lat4, monkeypatch, block, fn):
        self.set_block(monkeypatch, block)
        assert renorm.orbit_modes(mixed_scheme, lat4).k.shape[0] == 32
        times = np.array([0.0, 0.05, 0.3, 0.6, 1.0, 2.5, 7.0])
        for k, fl in ((1, "u"), (2, "b"), (4, "u")):
            batched = fn(k, fl, times, mixed_scheme, lat4)
            assert batched.shape == (times.size, 3, 3, 3)
            for n, t in enumerate(times):
                assert np.array_equal(batched[n], fn(k, fl, float(t), mixed_scheme, lat4))

    def test_peak_memory_bounded_per_mode(self):
        # no array over the whole mode set beyond a few weight vectors: an
        # (M, 27) complex intermediate alone would be 54 doubles per mode
        import tracemalloc

        scheme = SchemeSpec(eps=3 / 32, a=1.0, b=0.0, h_kind_u="smooth_bump", h_kind_b="indicator")
        lat = ModeLattice(32)
        M = renorm.orbit_modes(scheme, lat).k.shape[0]
        assert M == 23_990
        for fn in (renorm.ck, renorm.ck_tilde):
            tracemalloc.start()
            try:
                fn(2, "u", 1.0, scheme, lat)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 8 * M, (fn.__name__, peak)
