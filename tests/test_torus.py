"""Spectral infrastructure: transforms, partition, norms, serialization."""

import json

import numpy as np
import pytest

from spdelab.torus import (
    FOURIER_SCALE,
    HalfBand,
    ModeLattice,
    ScalarField,
    _block_grid,
    besov_norm,
    chi_profile,
    dft_forward,
    dft_inverse,
    field_from_json,
    field_to_json,
    full_spectrum,
    half_forward,
    half_gaussian,
    half_inverse,
    half_spectrum,
    hermitian_gaussian,
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

    @pytest.mark.parametrize("N", [1, 4, 16])
    def test_full_spectrum_is_the_hermitian_mirror(self, N):
        lat = ModeLattice(N)
        rng = np.random.default_rng(13)
        shape = (2,) + lat.shape
        # an exactly Hermitian cube (+ commutes): its half spectrum keeps every mode
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h = half_spectrum(lat, 0.5 * (g + np.conj(ModeLattice.negate(g))))
        assert np.array_equal(half_spectrum(lat, full_spectrum(lat, h)), h)
        c = dft_forward(lat, rng.standard_normal(shape))
        back = full_spectrum(lat, half_spectrum(lat, c))
        assert np.max(np.abs(back - c)) <= 1e-15 * np.max(np.abs(c))
        # any half spectrum mirrors to exactly Hermitian cubes, the raw one of
        # `half_forward` (whose k3 = 0 plane is Hermitian only to rounding) too
        anti = half_spectrum(lat, g)
        for half in (h, half_forward(lat, rng.standard_normal(shape)), anti):
            out = full_spectrum(lat, half)
            assert out.shape == shape
            assert all(ScalarField(lat, f).hermitian_defect() == 0.0 for f in out)
        with pytest.raises(ValueError, match="half shape"):
            full_spectrum(lat, np.zeros(lat.shape, dtype=complex))

    @pytest.mark.parametrize("N", [1, 4, 16])
    def test_gaussian_draws_match_complex_transform(self, N):
        # the complex full-cube draw, fftshift(fftn(w)) / n^1.5 of the same
        # white noise, is the reference of both layouts
        lat = ModeLattice(N)
        w = np.random.default_rng(14).standard_normal((2, 3) + lat.shape)
        ref = np.fft.fftshift(np.fft.fftn(w, axes=(-3, -2, -1)), axes=(-3, -2, -1)) / lat.n**1.5
        half = half_gaussian(lat, np.random.default_rng(14), (2, 3))
        assert half.shape == (2, 3, lat.n, lat.n, N + 1)
        assert np.max(np.abs(half - half_spectrum(lat, ref))) <= 1e-15 * np.max(np.abs(ref))
        full = hermitian_gaussian(lat, np.random.default_rng(14), (2, 3))
        assert np.array_equal(full, full_spectrum(lat, half))
        assert np.max(np.abs(full - ref)) <= 1e-15 * np.max(np.abs(ref))

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
        x = 2 * np.pi * np.arange(lat.n) / lat.n
        for (r, lines, w, e, table), j in zip(blocks, range(-1, part.jmax + 1)):
            weight = part.weight(j)
            assert r == int(np.max(kmax[weight != 0.0], initial=0))
            k = np.fft.fftfreq(lat.n, 1 / lat.n)[lines]
            assert np.array_equal(k, np.r_[0 : r + 1, -r:0])
            full = np.fft.ifftshift(weight, axes=(0, 1))[..., lat.N : lat.N + r + 1]
            assert np.array_equal(w, full[np.ix_(lines, lines, np.arange(r + 1))])
            assert np.array_equal(w, w.transpose(1, 0, 2))  # `_block_grid` reads it swapped
            assert e.shape == (lat.n, 2 * r + 1) and table.shape == (2 * (r + 1), lat.n)
            assert np.max(np.abs(e - np.exp(1j * np.outer(x, k)) / lat.n)) < 1e-15
            k3 = np.arange(r + 1)[:, None]
            weights = np.where(k3 == 0, 1.0, 2.0) / lat.n
            assert np.max(np.abs(table[0::2] - weights * np.cos(k3 * x))) < 1e-15
            assert np.max(np.abs(table[1::2] + weights * np.sin(k3 * x))) < 1e-15
        if N == 16:
            assert [r for r, *_ in blocks] == [0, 1, 3, 7, 15, 16, 16]
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
    """`holder_norm_batch` synthesises each block only on the lines its
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

    @pytest.mark.parametrize("N", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("hermitian_plane", [True, False])
    def test_block_synthesis_matches_irfftn(self, N, hermitian_plane):
        # `_block_grid` builds each block by matrix products; the reference is
        # the full `irfftn` of the masked half spectrum, which also drops an
        # anti-Hermitian part of the k3 = 0 plane
        lat = ModeLattice(N)
        rng = np.random.default_rng(70 + N)
        if hermitian_plane:
            coeffs = np.stack([random_scalar_field(lat, rng).coeff for _ in range(3)])
            half = half_spectrum(lat, coeffs)
        else:
            shape = (3, lat.n, lat.n, N + 1)
            half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for r, lines, w, e, table in lat.partition().half_blocks():
            masked = np.zeros_like(half)
            masked[:, lines[:, None], lines, : r + 1] = half[:, lines[:, None], lines, : r + 1] * w
            want = np.fft.irfftn(masked, s=lat.shape, axes=(-3, -2, -1))
            got = _block_grid(half, r, lines, w, e, table)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            # each field's grid is its own products: the batch does not move it
            alone = np.concatenate([_block_grid(f[None], r, lines, w, e, table) for f in half])
            assert np.array_equal(alone, got)

    def test_zero_field_norm_is_positive_zero(self):
        # max(0.0, -0.0) is -0.0; the norm of a zero field must read +0.0
        lat = ModeLattice(4)
        coeffs = np.zeros((3,) + lat.shape, dtype=complex)
        coeffs[1] = random_scalar_field(lat, np.random.default_rng(4)).coeff
        for shift in (None, np.zeros(3)):
            for norms in np.atleast_2d(holder_norm_batch(lat, coeffs, -0.6, shift)):
                assert norms[0] == 0.0 and norms[2] == 0.0 and norms[1] > 0
                assert not np.any(np.signbit(norms))


def _band_radii(N):
    """The empty band, the 2/3-rule band and the whole half layout."""
    return sorted({0, 2 * N // 3, N})


class TestHalfBand:
    """The band transform pair against the full real transforms."""

    @pytest.mark.parametrize("N", [1, 2, 4, 8, 16])
    def test_forward_is_half_forward_on_the_band(self, N):
        lat = ModeLattice(N)
        grids = np.random.default_rng(80 + N).standard_normal((4,) + lat.shape)
        full = half_forward(lat, grids)
        for r in _band_radii(N):
            band = HalfBand(lat, r)
            inside = band.support()
            got = band.forward(grids)
            assert got.shape == full.shape
            assert np.all(got[..., ~inside] == 0.0)
            want = full * inside
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("N", [1, 2, 4, 8, 16])
    def test_inverse_is_half_inverse_of_band_spectra(self, N):
        lat = ModeLattice(N)
        rng = np.random.default_rng(90 + N)
        half = half_spectrum(lat, np.stack([random_scalar_field(lat, rng).coeff for _ in range(4)]))
        for r in _band_radii(N):
            band = HalfBand(lat, r)
            limited = half * band.support()
            want = half_inverse(lat, limited)
            got = band.inverse(limited.reshape(2, 2, *half.shape[1:]))
            assert got.shape == (2, 2) + lat.shape
            assert np.max(np.abs(got.reshape(want.shape) - want)) <= 1e-14 * np.max(np.abs(want))
            # modes off the band are not read
            assert np.array_equal(band.inverse(half), band.inverse(limited))

    @pytest.mark.parametrize("N", [1, 4, 16])
    def test_support_is_the_box_of_radius_r(self, N):
        lat = ModeLattice(N)
        kmax = half_spectrum(lat, np.max(np.abs(lat.k_stack()), axis=0))
        for r in _band_radii(N):
            assert np.array_equal(HalfBand(lat, r).support(), kmax <= r)

    def test_radius_outside_the_lattice_rejected(self):
        lat = ModeLattice(3)
        for r in (-1, 4):
            with pytest.raises(ValueError):
                HalfBand(lat, r)

    @pytest.mark.parametrize("N", [1, 2, 4, 8, 16])
    def test_half_blocks_matrices_keep_their_bits(self, N):
        # the blocks take their matrices from the helper the band uses; the
        # reference is the construction the blocks had before it
        part = ModeLattice(N).partition()
        n = 2 * N + 1
        freq = np.fft.fftfreq(n, 1.0 / n).round().astype(int)
        m = np.arange(n)
        for r, lines, _, e, table in part.half_blocks():
            want_e = np.exp(2j * np.pi * ((m[:, None] * freq[lines]) % n) / n) / n
            k = np.arange(r + 1)
            angle = 2.0 * np.pi * ((k[:, None] * m) % n) / n
            weight = np.where(k == 0, 1.0, 2.0)[:, None] / n
            want_table = np.stack((weight * np.cos(angle), -weight * np.sin(angle)), axis=1)
            assert np.array_equal(e, want_e)
            assert np.array_equal(table, want_table.reshape(2 * (r + 1), n))


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
