"""Spectral infrastructure: transforms, partition, norms, serialization."""

import json

import numpy as np
import pytest

from spdelab.torus import (
    FOURIER_SCALE,
    ModeLattice,
    ScalarField,
    besov_norm,
    chi_profile,
    dft_forward,
    dft_inverse,
    field_from_json,
    field_to_json,
    half_forward,
    half_inverse,
    half_spectrum,
    holder_norm,
    holder_norm_batch,
    leray_tensor,
    lp_block,
    parseval_defect,
    random_scalar_field,
    random_vector_field,
    rho_profile,
)


def direct_dft(lattice, grid):
    """O(M^2) transform straight from the defining sum (no FFT)."""
    modes = lattice.mode_table()
    x = 2 * np.pi * np.arange(lattice.n) / lattice.n
    out = np.zeros(lattice.shape, dtype=np.complex128)
    for k1, k2, k3 in modes:
        phase = np.exp(
            -1j * (k1 * x[:, None, None] + k2 * x[None, :, None] + k3 * x[None, None, :])
        )
        out[k1 + lattice.N, k2 + lattice.N, k3 + lattice.N] = np.sum(grid * phase)
    return out * FOURIER_SCALE / lattice.n**3


class TestModeLattice:
    def test_mode_counts(self):
        assert ModeLattice(1).mode_table().shape[0] == 27
        assert ModeLattice(2).mode_table().shape[0] == 125

    def test_zero_mode_once(self):
        modes = ModeLattice(2).mode_table()
        assert np.sum(np.all(modes == 0, axis=1)) == 1

    def test_negation_closure(self):
        modes = ModeLattice(2).mode_table()
        stored = {tuple(m) for m in modes}
        assert all(tuple(-m) in stored for m in modes)

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError):
            ModeLattice(0)


class TestLeray:
    def test_single_zero_vector(self):
        assert np.array_equal(leray_tensor(np.zeros(3)), np.zeros((3, 3)))

    def test_single_unit_vector(self):
        assert np.array_equal(leray_tensor(np.array([1.0, 0.0, 0.0])), np.diag([0.0, 1.0, 1.0]))

    def test_full_lattice(self):
        lat = ModeLattice(3)
        proj = lat.leray_tensor()
        assert proj.shape == (3, 3) + lat.shape
        assert np.array_equal(proj[:, :, lat.N, lat.N, lat.N], np.zeros((3, 3)))
        for k in lat.mode_table()[::7]:
            if not k.any():
                continue
            kk = k.astype(float)
            ref = np.eye(3) - np.outer(kk, kk) / (kk @ kk)
            got = proj[(slice(None), slice(None)) + tuple(k + lat.N)]
            assert np.max(np.abs(got - ref)) < 1e-15


class TestTransforms:
    def test_basis_function(self):
        lat = ModeLattice(3)
        x1, x2, x3 = lat.grid()
        ek = (2 * np.pi) ** -1.5 * np.exp(1j * (x1 + 0 * x2 + 0 * x3))
        c = dft_forward(lat, ek * np.ones(lat.shape))
        assert abs(c[lat.N + 1, lat.N, lat.N] - 1.0) < 1e-12
        c[lat.N + 1, lat.N, lat.N] = 0.0
        assert np.max(np.abs(c)) < 1e-12

    def test_constant_mean_mode(self):
        lat = ModeLattice(2)
        c = dft_forward(lat, np.full(lat.shape, 2.5))
        assert abs(c[lat.N, lat.N, lat.N] - 2.5 * FOURIER_SCALE) < 1e-12

    def test_roundtrip(self):
        lat = ModeLattice(4)
        rng = np.random.default_rng(3)
        f = random_scalar_field(lat, rng)
        back = dft_forward(lat, dft_inverse(lat, f.coeff))
        rel = np.max(np.abs(back - f.coeff)) / np.max(np.abs(f.coeff))
        assert rel < 1e-10

    def test_against_direct_dft_oracle(self):
        # frozen expected values come from the defining sum at N=2
        lat = ModeLattice(2)
        rng = np.random.default_rng(11)
        grid = rng.standard_normal(lat.shape)
        expected = direct_dft(lat, grid)
        got = dft_forward(lat, grid)
        assert np.max(np.abs(got - expected)) < 1e-12
        assert ScalarField(lat, got).is_real(1e-12)

    def test_half_layout_transforms_match_full(self):
        lat = ModeLattice(4)
        rng = np.random.default_rng(12)
        grid = rng.standard_normal((2,) + lat.shape)
        half = half_forward(lat, grid)
        assert half.shape == (2, lat.n, lat.n, lat.N + 1)
        assert np.max(np.abs(half - half_spectrum(lat, dft_forward(lat, grid)))) < 1e-12
        assert np.max(np.abs(half_inverse(lat, half) - grid)) < 1e-12
        f = random_scalar_field(lat, rng)
        back = half_inverse(lat, half_spectrum(lat, f.coeff))
        assert np.max(np.abs(back - dft_inverse(lat, f.coeff).real)) < 1e-12
        with pytest.raises(ValueError):
            half_forward(lat, np.zeros((3, 3, 3)))

    def test_size_mismatch(self):
        lat = ModeLattice(2)
        with pytest.raises(ValueError):
            dft_forward(lat, np.zeros((3, 3, 3)))
        with pytest.raises(ValueError):
            dft_inverse(lat, np.zeros((7, 7, 5), dtype=complex))

    def test_parseval(self):
        lat = ModeLattice(4)
        rng = np.random.default_rng(5)
        for _ in range(5):
            f = random_scalar_field(lat, rng)
            assert parseval_defect(lat, f) < 1e-10


class TestPartition:
    def test_unity(self):
        for N in (1, 4, 8):
            assert ModeLattice(N).partition().unity_defect() < 1e-12

    def test_support_conditions_on_lattice(self):
        lat = ModeLattice(8)
        part = lat.partition()
        # chi only lives at k = 0; overlap with any rho_j vanishes on the grid
        for j in range(part.jmax + 1):
            assert np.max(part.chi * part.rho[j]) == 0.0
        # non-adjacent annuli are disjoint on the grid
        for i in range(part.jmax + 1):
            for j in range(i + 2, part.jmax + 1):
                assert np.max(part.rho[i] * part.rho[j]) == 0.0

    def test_reconstruction_random_fields(self):
        lat = ModeLattice(4)
        part = lat.partition()
        rng = np.random.default_rng(7)
        for _ in range(100):
            f = random_scalar_field(lat, rng)
            total = sum(lp_block(f, j).coeff for j in range(-1, part.jmax + 1))
            assert np.max(np.abs(total - f.coeff)) < 1e-12

    def test_block_support(self):
        lat = ModeLattice(8)
        part = lat.partition()
        coeff = np.zeros(lat.shape, dtype=complex)
        coeff[lat.N + 5, lat.N, lat.N] = 1.0  # |k| = 5
        f = ScalarField(lat, coeff)
        for j in range(-1, part.jmax + 1):
            w = part.weight(j)[lat.N + 5, lat.N, lat.N]
            blk = lp_block(f, j)
            if w == 0.0:
                assert np.max(np.abs(blk.coeff)) == 0.0

    def test_low_block_keeps_constant(self):
        lat = ModeLattice(2)
        coeff = np.zeros(lat.shape, dtype=complex)
        coeff[lat.N, lat.N, lat.N] = 3.0
        f = ScalarField(lat, coeff)
        assert np.max(np.abs(lp_block(f, -1).coeff - coeff)) == 0.0

    def test_zero_mode_only_in_chi_block(self):
        # a constant moves the chi block alone: chi(0) = 1, rho_j(0) = 0
        part = ModeLattice(8).partition()
        assert part.chi[8, 8, 8] == 1.0
        assert all(rho[8, 8, 8] == 0.0 for rho in part.rho)

    def test_lattice_freed_without_cycle_collection(self):
        import gc
        import weakref

        lat = ModeLattice(3)
        lat.partition().half_weights()
        ref = weakref.ref(lat)
        gc.disable()
        try:
            del lat
            assert ref() is None
        finally:
            gc.enable()

    def test_half_weights_layout(self):
        lat = ModeLattice(4)
        part = lat.partition()
        half = part.half_weights()
        assert half.shape == (part.jmax + 2, lat.n, lat.n, lat.N + 1)
        for b, j in enumerate(range(-1, part.jmax + 1)):
            fft_order = np.fft.ifftshift(part.weight(j))
            assert np.array_equal(half[b], fft_order[..., : lat.N + 1])
        assert part.half_weights() is half

    @pytest.mark.parametrize("N", [1, 2, 4, 8, 16])
    def test_half_blocks_cover_support(self, N):
        lat = ModeLattice(N)
        part = lat.partition()
        blocks = part.half_blocks()
        kmax = np.max(np.abs(lat.k_stack()), axis=0)  # largest |k_i| per mode
        for (r, lines, w), j in zip(blocks, range(-1, part.jmax + 1)):
            weight = part.weight(j)
            assert r == int(np.max(kmax[weight != 0.0], initial=0))
            assert np.array_equal(np.fft.fftfreq(lat.n, 1 / lat.n)[lines], np.r_[0 : r + 1, -r:0])
            full = np.fft.ifftshift(weight, axes=(0, 1))[..., lat.N : lat.N + r + 1]
            assert np.array_equal(w, full[np.ix_(lines, lines, np.arange(r + 1))])
        if N == 16:
            assert [r for r, _, _ in blocks] == [0, 1, 3, 7, 15, 16, 16]
        assert part.half_blocks() is blocks

    def test_block_index_range(self):
        lat = ModeLattice(2)
        f = random_scalar_field(lat, np.random.default_rng(0))
        with pytest.raises(ValueError):
            lp_block(f, lat.partition().jmax + 1)


class TestNorms:
    def test_zero_field(self):
        lat = ModeLattice(2)
        f = ScalarField(lat, np.zeros(lat.shape, dtype=complex))
        assert besov_norm(f, 0.5, 2, 2) == 0.0

    def test_scaling(self):
        lat = ModeLattice(4)
        f = random_scalar_field(lat, np.random.default_rng(1))
        g = ScalarField(lat, -2.5 * f.coeff)
        assert abs(holder_norm(g, 0.3) - 2.5 * holder_norm(f, 0.3)) < 1e-12

    def test_single_mode_block_values(self):
        # independent evaluation of the definition for f = e_k at N = 8
        lat = ModeLattice(8)
        k = np.array([0, 5, 0])
        coeff = np.zeros(lat.shape, dtype=complex)
        coeff[lat.N, lat.N + 5, lat.N] = 1.0
        f = ScalarField(lat, coeff)
        alpha = 0.7
        part = lat.partition()
        expected = 0.0
        for j in range(part.jmax + 1):
            w = rho_profile(np.linalg.norm(k) / 2.0**j)
            expected = max(expected, 2.0 ** (j * alpha) * w * (2 * np.pi) ** -1.5)
        got = holder_norm(f, alpha)
        assert abs(got - expected) < 1e-12 * max(expected, 1.0)

    def test_monotonicity_in_alpha(self):
        lat = ModeLattice(4)
        rng = np.random.default_rng(9)
        for _ in range(20):
            f = random_scalar_field(lat, rng, mean_zero=True)
            assert holder_norm(f, 0.2) <= holder_norm(f, 0.8) + 1e-12

    def test_embedding_beta_le_alpha(self):
        # || . ||_beta <= || . ||_alpha at constant 1 for mean-zero fields
        lat = ModeLattice(4)
        rng = np.random.default_rng(10)
        for _ in range(20):
            f = random_scalar_field(lat, rng, mean_zero=True)
            sup = float(np.max(np.abs(f.to_grid().real)))
            assert holder_norm(f, -0.4) <= sup + 1e-12
            assert sup <= 3.0 * holder_norm(f, 0.6) + 1e-12  # finitely many blocks

    def test_exponent_validation(self):
        lat = ModeLattice(2)
        f = random_scalar_field(lat, np.random.default_rng(0))
        with pytest.raises(ValueError):
            besov_norm(f, 0.0, 0.5, 2)
        with pytest.raises(ValueError):
            besov_norm(f, 0.0, 2, -1)


class TestPrunedBlockPass:
    """`holder_norm_batch` transforms each block only on the lines its
    multiplier reaches; it must give the full pass to rounding."""

    @staticmethod
    def full_pass(lat, coeffs, alpha, shift=None):
        """Every block through a full `irfftn` of the half spectrum."""
        part = lat.partition()
        half = half_spectrum(lat, coeffs)
        if shift is not None:
            half = half.copy()
            half[:, 0, 0, 0] -= np.asarray(shift) * FOURIER_SCALE
        grids = np.fft.irfftn(part.half_weights() * half[:, None], s=lat.shape, axes=(-3, -2, -1))
        scale = lat.n**3 / FOURIER_SCALE * 2.0 ** (np.arange(-1, part.jmax + 1) * alpha)
        return np.max(np.max(np.abs(grids), axis=(-3, -2, -1)) * scale, axis=1)

    @pytest.mark.parametrize("N", [4, 8, 16])
    @pytest.mark.parametrize("with_shift", [False, True])
    def test_matches_full_pass_and_per_field(self, N, with_shift):
        lat = ModeLattice(N)
        rng = np.random.default_rng(40 + N)
        fields = [random_scalar_field(lat, rng, decay=d) for d in (0.0, 1.0, 2.5, -0.5)]
        coeffs = np.stack([f.coeff for f in fields])
        shift = np.array([0.7, -2.0, 0.9, 0.1]) if with_shift else None
        for alpha in (-3.0, -1.05, 0.6):
            got = holder_norm_batch(lat, coeffs, alpha, shift)
            if with_shift:
                plain, got = got
                assert np.max(np.abs(plain - self.full_pass(lat, coeffs, alpha)) / plain) < 1e-12
            want = self.full_pass(lat, coeffs, alpha, shift)
            assert np.max(np.abs(got - want) / want) < 1e-12
            moved = coeffs.copy()
            if with_shift:
                moved[:, lat.N, lat.N, lat.N] -= shift * FOURIER_SCALE
            per_field = np.array([holder_norm(ScalarField(lat, c), alpha) for c in moved])
            assert np.max(np.abs(got - per_field) / per_field) < 1e-12


class TestProfiles:
    def test_chi_plateau_and_support(self):
        r = np.array([0.0, 0.3, 0.5, 0.99, 1.0, 2.0])
        v = chi_profile(r)
        assert np.all(v[:3] == 1.0)
        assert v[3] > 0.0
        assert np.all(v[4:] == 0.0)

    def test_rho_annulus(self):
        assert rho_profile(np.array([0.4]))[0] == 0.0
        assert rho_profile(np.array([1.0]))[0] == 1.0
        assert rho_profile(np.array([2.1]))[0] == 0.0


class TestSerialization:
    def test_scalar_roundtrip_exact(self):
        lat = ModeLattice(2)
        f = random_scalar_field(lat, np.random.default_rng(4))
        g = field_from_json(field_to_json(f))
        assert g.lattice.N == 2
        assert np.array_equal(g.coeff, f.coeff)

    def test_vector_roundtrip_exact(self):
        lat = ModeLattice(2)
        v = random_vector_field(lat, np.random.default_rng(6), divergence_free=True)
        w = field_from_json(field_to_json(v))
        assert np.array_equal(w.coeff, v.coeff)
        assert w.is_divergence_free(1e-12)

    @pytest.mark.parametrize("mode", [(-3, 0, 0), (3, 0, 0), (0, 0, -3), (0, 5, 0)])
    def test_mode_outside_box_rejected(self, mode):
        # N = 2: k1 = -3 used to wrap onto k1 = +2, k1 = 3 to raise IndexError
        doc = json.loads(field_to_json(random_scalar_field(ModeLattice(2), np.random.default_rng(1))))
        doc["coeffs"][0].append([*mode, 1.0, 0.0])
        with pytest.raises(ValueError, match="outside the box"):
            field_from_json(json.dumps(doc))

    @pytest.mark.parametrize("components, lists", [(2, 2), (0, 0), (3, 1), (1, 3)])
    def test_component_count_checked(self, components, lists):
        doc = {"N": 2, "components": components, "coeffs": [[] for _ in range(lists)]}
        with pytest.raises(ValueError, match="components"):
            field_from_json(json.dumps(doc))
