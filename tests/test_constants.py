"""Renormalization constant families: identities, symmetries, limits."""

import warnings

import numpy as np
import pytest

from spdelab import constants as renorm
from spdelab.fields import NoiseSpec, philox_rng
from spdelab.schemes import SchemeSpec
from spdelab.torus import ModeLattice, dft_inverse, hermitian_gaussian


@pytest.fixture(scope="module")
def asym_scheme():
    # eps = 1 keeps the whole cutoff support |k| <= 3 inside N = 4
    return SchemeSpec(eps=1.0, a=1.0, b=0.0).finalize()


@pytest.fixture(scope="module")
def lat4():
    return ModeLattice(4)


@pytest.fixture(scope="module")
def mixed_scheme():
    return SchemeSpec(
        eps=1.0, a=1.0, b=0.0, h_kind_u="smooth_bump", h_kind_b="indicator"
    ).finalize()


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
            renorm._build_active_modes(asym_scheme.with_eps(0.25).finalize(), ModeLattice(4))


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

    def test_cutoff_saturation(self, asym_scheme):
        a = renorm.ck(2, "u", 1.0, asym_scheme, ModeLattice(4))
        b = renorm.ck(2, "u", 1.0, asym_scheme, ModeLattice(6))
        assert np.max(np.abs(a - b)) < 1e-12
        assert renorm.cutoff_saturated(asym_scheme, ModeLattice(4))
        assert not renorm.cutoff_saturated(asym_scheme.with_eps(0.25), ModeLattice(4))

    def test_symmetric_scheme_vanishes(self, lat4):
        spec = SchemeSpec(eps=1.0, a=1.0, b=1.0).finalize()
        assert np.max(np.abs(renorm.ck(2, "u", 1.0, spec, lat4))) < 1e-12
        assert np.max(np.abs(renorm.ck_tilde(1, "u", 1.0, spec, lat4))) < 1e-12


class TestLimits:
    def test_symmetric_scheme_limit_zero(self):
        spec = SchemeSpec(eps=1.0, a=1.0, b=1.0).finalize()
        val, err = renorm.ck2_limit("u", False, spec)
        assert np.max(np.abs(val)) < 1e-12

    def test_lattice_approaches_quadrature(self):
        # moderate-eps version of the acceptance check (tight case runs there)
        spec = SchemeSpec(
            eps=1 / 16, a=1.0, b=0.0, h_kind_u="indicator", h_kind_b="indicator"
        ).finalize()
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
        renorm.active_modes(asym_scheme, lat4)  # the mode set calls eval_g itself
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
                spec = mixed_scheme.with_eps(eps).finalize()
                vals = [
                    t**rho * np.max(np.abs((f := renorm.c22_family(t, spec, lat4)).phi - f.phi_bar))
                    for t in (0.25, 1.0)
                ]
                sups.append(max(vals))
        slope = np.polyfit(np.log(eps_sched), np.log(sups), 1)[0]
        assert slope > 0

    def test_budget(self, mixed_scheme, lat4):
        with pytest.raises(renorm.BudgetError):
            renorm.c22_family(1.0, mixed_scheme, lat4, budget=10)


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
                spec = mixed_scheme.with_eps(eps).finalize()
                vals = [
                    t**rho * np.max(np.abs((b := renorm.c13_block(1, t, spec, lat4)).phi - b.phi_bar))
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

    def test_partial_sum(self, mixed_scheme, lat4):
        total = renorm.c13_partial_sum(0.5, mixed_scheme, lat4, blocks=(1, 2))
        a = renorm.c13_block(1, 0.5, mixed_scheme, lat4)
        b = renorm.c13_block(2, 0.5, mixed_scheme, lat4)
        assert np.allclose(total.C, a.C + b.C)

    def test_unimplemented_blocks_stub(self, asym_scheme, lat4):
        with pytest.raises(NotImplementedError):
            renorm.c13_block(5, 1.0, asym_scheme, lat4)


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
