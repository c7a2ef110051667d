"""Spectral representation on the 3-torus.

Fields live in Fourier coefficient space on the truncated integer frequency
box max_j |k_j| <= N.  The transform convention is

    fhat(k) = (2*pi)^(-3/2) * integral f(x) exp(-i x.k) dx,

so the basis functions e_k = (2*pi)^(-3/2) exp(i k.x) have unit coefficients
and the symbol of d/dx_j is +i k^j.  The collocation grid has 2N+1 points per
axis, which makes the discrete transform exact on the truncated frequency set
(odd size: no ambiguous Nyquist mode).

Real fields also have a half layout, the layout of `numpy.fft.rfftn`: FFT
order on the first two frequency axes and k3 = 0 .. N on the last, shape
(n, n, N+1).  `half_forward` and `half_inverse` are the real transforms in
that layout, in the paper's normalization; `half_spectrum` cuts a full
coefficient cube down to it and `full_spectrum`, the Hermitian mirror,
restores the cube.  `HalfBand` is the same pair restricted to the modes
max_i |k_i| <= r, by small separable matrix products (the hierarchy's
product engine transforms its 2/3-rule band with it).

Gaussian noise comes out on the half layout too: `half_gaussian` is one
`rfftn` of grid white noise, and `hermitian_gaussian` mirrors that draw to
full cubes.

Also provides the dyadic (Littlewood-Paley) partition of unity, block
projections, Besov/Hoelder norms evaluated on the physical grid, and a JSON
container for exact field round-trips.  `holder_norm_half` is the one
batched Hoelder path for real fields: it evaluates the blocks of many fields
from their half spectra, each block synthesised on its support by three
small separable matrix products, one per axis, with the matrices cached
with the partition (the chi block is a constant, the k = 0 coefficient).
Every product is per field, so a field's norm does not depend on the batch
it comes in.  `holder_norm_batch` takes full cubes to it; the Monte Carlo
samples and the solver's level norms call it on their half layout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi
FOURIER_SCALE = (2.0 * np.pi) ** 1.5  # (2*pi)^(3/2)


class ModeLattice:
    """Truncated frequency box {k in Z^3 : max_j |k_j| <= N}.

    Coefficients are stored on a shifted cube of shape (2N+1,)*3 where index
    n along each axis corresponds to frequency k = n - N.  The lattice caches
    broadcastable wavevector arrays, |k|^2, the Leray projection symbol and
    the dyadic partition.
    """

    def __init__(self, N: int):
        if N < 1:
            raise ValueError(f"truncation radius must be >= 1, got {N}")
        self.N = int(N)
        self.n = 2 * self.N + 1
        self.shape = (self.n, self.n, self.n)
        ax = np.arange(-self.N, self.N + 1)
        self.k1 = ax[:, None, None].astype(np.float64)
        self.k2 = ax[None, :, None].astype(np.float64)
        self.k3 = ax[None, None, :].astype(np.float64)
        self.ksq = self.k1**2 + self.k2**2 + self.k3**2
        self.kabs = np.sqrt(self.ksq)
        self._partition = None
        self._leray = None

    # -- enumeration ------------------------------------------------------

    def mode_table(self) -> np.ndarray:
        """All modes as an (M, 3) int array, C-ordered over the shifted cube."""
        ax = np.arange(-self.N, self.N + 1)
        g = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)
        return g.reshape(-1, 3)

    def k_stack(self) -> np.ndarray:
        """Wavevectors as a (3,) + shape float array."""
        b = np.broadcast_arrays(self.k1, self.k2, self.k3)
        return np.stack(b, axis=0)

    @staticmethod
    def negate(coeff: np.ndarray) -> np.ndarray:
        """View of the coefficient cube re-indexed k -> -k (last 3 axes)."""
        return coeff[..., ::-1, ::-1, ::-1]

    def grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Collocation points x_m = 2*pi*m/(2N+1), broadcastable."""
        x = TWO_PI * np.arange(self.n) / self.n
        return x[:, None, None], x[None, :, None], x[None, None, :]

    @property
    def cell_volume(self) -> float:
        return (TWO_PI / self.n) ** 3

    # -- cached heavy symbols ----------------------------------------------

    def partition(self) -> "DyadicPartition":
        if self._partition is None:
            self._partition = DyadicPartition(self)
        return self._partition

    def leray_tensor(self) -> np.ndarray:
        """Leray symbol P^{ij}(k) = delta_ij - k_i k_j / |k|^2, shape (3, 3) + cube.

        The zero mode row is set to 0 so projection forces mean-zero fields.
        """
        if self._leray is None:
            self._leray = leray_tensor(self.k_stack())
        return self._leray

    def __repr__(self):
        return f"ModeLattice(N={self.N})"


def leray_tensor(kvec: np.ndarray) -> np.ndarray:
    """Leray symbol for wavevectors of shape (3,) + tail; zero vector -> 0."""
    ksq = np.sum(kvec**2, axis=0)
    safe = np.where(ksq == 0.0, 1.0, ksq)
    proj = -kvec[:, None] * kvec[None, :] / safe
    for i in range(3):
        proj[i, i] += 1.0
    proj[..., ksq == 0.0] = 0.0  # a 0-d mask also serves a single vector
    return proj


# -- fields ----------------------------------------------------------------


@dataclass
class _Field:
    """Complex mode coefficients on a lattice, cube in the last three axes."""

    lattice: ModeLattice
    coeff: np.ndarray

    def copy(self):
        return type(self)(self.lattice, self.coeff.copy())

    def to_grid(self) -> np.ndarray:
        return dft_inverse(self.lattice, self.coeff)

    def hermitian_defect(self) -> float:
        """Max |coeff(-k) - conj(coeff(k))|; zero for real fields."""
        return float(np.max(np.abs(ModeLattice.negate(self.coeff) - np.conj(self.coeff))))

    def is_real(self, tol: float = 1e-12) -> bool:
        return self.hermitian_defect() <= tol


class ScalarField(_Field):
    """coeff of shape lattice.shape."""


class VectorField(_Field):
    """coeff of shape (3,) + lattice.shape."""

    def component(self, i: int) -> ScalarField:
        return ScalarField(self.lattice, self.coeff[i])

    def divergence_defect(self) -> float:
        """Max over modes of |sum_j k_j coeff_j(k)|."""
        lat = self.lattice
        div = lat.k1 * self.coeff[0] + lat.k2 * self.coeff[1] + lat.k3 * self.coeff[2]
        return float(np.max(np.abs(div)))

    def is_divergence_free(self, tol: float = 1e-12) -> bool:
        return self.divergence_defect() <= tol

    def mean_mode(self) -> np.ndarray:
        N = self.lattice.N
        return self.coeff[:, N, N, N]


def random_scalar_field(
    lattice: ModeLattice,
    rng: np.random.Generator,
    decay: float = 0.0,
    mean_zero: bool = False,
) -> ScalarField:
    """Real random field with coefficient law |k|^(-decay) x complex Gaussian."""
    coeff = hermitian_gaussian(lattice, rng)
    if decay != 0.0:
        w = np.where(lattice.ksq == 0.0, 1.0, lattice.kabs) ** (-decay)
        coeff = coeff * w
    if mean_zero:
        N = lattice.N
        coeff[N, N, N] = 0.0
    return ScalarField(lattice, coeff)


def random_vector_field(
    lattice: ModeLattice,
    rng: np.random.Generator,
    decay: float = 0.0,
    divergence_free: bool = False,
) -> VectorField:
    coeff = np.stack(
        [random_scalar_field(lattice, rng, decay, mean_zero=True).coeff for _ in range(3)]
    )
    v = VectorField(lattice, coeff)
    if divergence_free:
        proj = lattice.leray_tensor()
        v = VectorField(lattice, np.einsum("ij...,j...->i...", proj, coeff))
    return v


def half_gaussian(
    lattice: ModeLattice, rng: np.random.Generator, batch: tuple[int, ...] = ()
) -> np.ndarray:
    """Independent real Gaussian fields in the half layout, shape batch +
    (n, n, N+1), each with E[c(k) conj(c(k'))] = delta_{kk'}.

    Built as the unitary real DFT (`rfftn / n^1.5`) of white noise on the
    grid, so all modes (including k = 0, which comes out real) have unit
    variance.  The batch comes from one `standard_normal` call and one
    transform, and takes the stream in the order of single-field calls in C
    order.
    """
    w = rng.standard_normal(tuple(batch) + lattice.shape)
    return np.fft.rfftn(w, axes=(-3, -2, -1)) / lattice.n ** 1.5


def hermitian_gaussian(
    lattice: ModeLattice, rng: np.random.Generator, batch: tuple[int, ...] = ()
) -> np.ndarray:
    """The fields of `half_gaussian` as exactly Hermitian full cubes, shape
    batch + cube (`full_spectrum` of the one draw)."""
    return full_spectrum(lattice, half_gaussian(lattice, rng, batch))


# -- transforms --------------------------------------------------------------


def dft_forward(lattice: ModeLattice, grid: np.ndarray) -> np.ndarray:
    """Grid samples -> coefficients in the paper's normalization."""
    if grid.shape[-3:] != lattice.shape:
        raise ValueError(f"grid shape {grid.shape[-3:]} does not match lattice {lattice.shape}")
    spec = np.fft.fftn(grid, axes=(-3, -2, -1))
    spec = np.fft.fftshift(spec, axes=(-3, -2, -1))
    return spec * (FOURIER_SCALE / lattice.n**3)


def dft_inverse(lattice: ModeLattice, coeff: np.ndarray) -> np.ndarray:
    """Coefficients -> grid samples (complex; take .real for real fields)."""
    if coeff.shape[-3:] != lattice.shape:
        raise ValueError(f"coeff shape {coeff.shape[-3:]} does not match lattice {lattice.shape}")
    spec = np.fft.ifftshift(coeff, axes=(-3, -2, -1))
    return np.fft.ifftn(spec, axes=(-3, -2, -1)) * (lattice.n**3 / FOURIER_SCALE)


def half_spectrum(lattice: ModeLattice, coeff: np.ndarray) -> np.ndarray:
    """Full coefficient cubes (..., n, n, n) of real fields -> their half
    layout (..., n, n, N+1): FFT order on the first two frequency axes,
    k3 = 0 .. N on the last."""
    return np.fft.ifftshift(coeff[..., lattice.N:], axes=(-3, -2))


def full_spectrum(lattice: ModeLattice, half: np.ndarray) -> np.ndarray:
    """Half layouts of real fields -> exactly Hermitian full cubes, c(-k) = conj c(k),
    inverting `half_spectrum`; the k3 = 0 plane mirrors its modes after k = 0 in C order."""
    N = lattice.N
    if half.shape[-3:] != (lattice.n, lattice.n, N + 1):
        raise ValueError(f"half shape {half.shape[-3:]} does not match lattice {lattice.shape}")
    top = np.fft.fftshift(half, axes=(-3, -2))  # k3 = 0 .. N
    full = np.concatenate((np.conj(ModeLattice.negate(top)[..., :N]), top), axis=-1)
    plane = full[..., N]
    plane[..., :N, :] = np.conj(plane[..., :N:-1, ::-1])
    plane[..., N, :N] = np.conj(plane[..., N, :N:-1])
    plane[..., N, N] = plane[..., N, N].real
    return full


def half_forward(lattice: ModeLattice, grid: np.ndarray) -> np.ndarray:
    """Real grid samples -> coefficients in the half layout (`rfftn`), in the
    paper's normalization."""
    if grid.shape[-3:] != lattice.shape:
        raise ValueError(f"grid shape {grid.shape[-3:]} does not match lattice {lattice.shape}")
    return np.fft.rfftn(grid, axes=(-3, -2, -1)) * (FOURIER_SCALE / lattice.n**3)


def half_inverse(lattice: ModeLattice, half: np.ndarray) -> np.ndarray:
    """Half-layout coefficients of real fields -> real grid samples
    (`irfftn`, which drops an anti-Hermitian part of the input)."""
    grid = np.fft.irfftn(half, s=lattice.shape, axes=(-3, -2, -1))
    return grid * (lattice.n**3 / FOURIER_SCALE)


# -- dyadic partition ---------------------------------------------------------


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C^infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def chi_profile(r: np.ndarray) -> np.ndarray:
    """Radial low-frequency bump: 1 on r <= 1/2, 0 on r >= 1, smooth between."""
    return _smooth_step(2.0 * (1.0 - np.asarray(r, dtype=np.float64)))


def rho_profile(r: np.ndarray) -> np.ndarray:
    """Annulus bump chi(r/2) - chi(r), supported on 1/2 <= r <= 2."""
    r = np.asarray(r, dtype=np.float64)
    return chi_profile(r / 2.0) - chi_profile(r)


def dyadic_jmax(N: int) -> int:
    """Index of the last rho block of the partition on a lattice of radius N:
    the smallest j >= 0 with 2^j >= sqrt(3) N, the largest |k| there."""
    return max(0, math.ceil(math.log2(math.sqrt(3.0) * N)))


class DyadicPartition:
    """chi + sum_j rho(2^-j .) sampled on a mode lattice.

    Telescoping makes the partition identity exact (to rounding) at every
    lattice point, and adjacent-only overlap of the rho_j holds exactly on
    the integer lattice.
    """

    def __init__(self, lattice: ModeLattice):
        # no back-reference: a lattice owns its partition, and a cycle would
        # keep both alive until the cyclic garbage collector runs
        self.N = lattice.N
        self.shape = lattice.shape
        r = lattice.kabs
        self.jmax = dyadic_jmax(lattice.N)
        # all block multipliers, j = -1 .. jmax, shape (jmax+2,) + lattice shape;
        # chi and the rho_j are views of it
        self.weights = np.stack([chi_profile(r)] + [rho_profile(r / 2.0**j) for j in range(self.jmax + 1)])
        self.chi = self.weights[0]
        self.rho = list(self.weights[1:])
        self._half_weights = None
        self._half_blocks = None

    def weight(self, j: int) -> np.ndarray:
        """Block multiplier: chi for j = -1, rho_j for 0 <= j <= jmax."""
        if not -1 <= j <= self.jmax:
            raise ValueError(f"block index {j} outside [-1, {self.jmax}]")
        return self.weights[j + 1]

    def half_weights(self) -> np.ndarray:
        """All block multipliers, j = -1 .. jmax, in the half layout that
        `numpy.fft.irfftn` reads: FFT order on the first two frequency axes
        and k3 = 0 .. N on the last, shape (jmax+2, n, n, N+1).  Cached."""
        if self._half_weights is None:
            self._half_weights = np.fft.ifftshift(self.weights[..., self.N:], axes=(-3, -2))
        return self._half_weights

    def half_blocks(self) -> list[tuple]:
        """The block multipliers cut to their support, j = -1 .. jmax, with
        the synthesis matrices of `_block_grid`: one (r, lines, w, e, table)
        per block, with r the largest |k_i| where the multiplier is nonzero,
        lines the FFT-order indices of k = -r .. r, w the half-layout
        multiplier on lines x lines x (k3 = 0 .. r), e the (n, 2r+1) matrix
        exp(i x_m k) / n on the frequencies of lines and table the
        (2(r+1), n) real synthesis of the last axis.  At N = 16 the chi,
        rho_0, rho_1, rho_2 and rho_3 blocks reach r = 0, 1, 3, 7 and 15.
        Cached."""
        if self._half_blocks is None:
            n = 2 * self.N + 1
            kabs = np.abs(np.fft.fftfreq(n, 1.0 / n).round().astype(int))
            self._half_blocks = []
            for w in self.half_weights():
                k1, k2, k3 = np.nonzero(w)
                r = int(max(kabs[k1].max(), kabs[k2].max(), k3.max())) if k1.size else 0
                lines, e, table = _synthesis_matrices(n, r)
                block = w[np.ix_(lines, lines, np.arange(r + 1))]
                self._half_blocks.append((r, lines, block, e, table))
        return self._half_blocks

    def unity_defect(self) -> float:
        total = self.chi + sum(self.rho)
        return float(np.max(np.abs(total - 1.0)))


def lp_block(f: ScalarField, j: int) -> ScalarField:
    """Littlewood-Paley block Delta_j f (j = -1 is the chi block)."""
    part = f.lattice.partition()
    return ScalarField(f.lattice, f.coeff * part.weight(j))


def lp_block_grids(lattice: ModeLattice, coeff: np.ndarray) -> np.ndarray:
    """Physical-space samples of all blocks, shape (jmax+2,) + lattice.shape.

    Batched inverse transform; block index b corresponds to j = b - 1.
    """
    return dft_inverse(lattice, lattice.partition().weights * coeff[None, ...])


# -- norms --------------------------------------------------------------------


def _as_p(p) -> float:
    p = float(p)
    if not (p >= 1.0):
        raise ValueError(f"Lebesgue exponent must be in [1, inf], got {p}")
    return p


def besov_norm(f: ScalarField, alpha: float, p=np.inf, q=np.inf) -> float:
    """Inhomogeneous Besov norm || 2^{j a} ||Delta_j f||_{L^p} ||_{l^q, j >= -1}."""
    p = _as_p(p)
    q = _as_p(q)
    lattice = f.lattice
    grids = lp_block_grids(lattice, f.coeff)
    vals = []
    for b in range(grids.shape[0]):
        a = np.abs(grids[b])
        if math.isinf(p):
            lp = float(np.max(a))
        else:
            lp = float((np.sum(a**p) * lattice.cell_volume) ** (1.0 / p))
        vals.append(2.0 ** ((b - 1) * alpha) * lp)
    v = np.asarray(vals)
    if math.isinf(q):
        return float(np.max(v))
    return float(np.sum(v**q) ** (1.0 / q))


def holder_norm(f: ScalarField, alpha: float) -> float:
    """Hoelder-Besov norm C^alpha = B^alpha_{inf,inf}."""
    return besov_norm(f, alpha, np.inf, np.inf)


def _phases(n: int, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The separable phases of the modes |k_i| <= r on n grid points
    x_m = 2 pi m / n: lines, the FFT-order indices of k = -r .. r; the
    (n, 2r+1) phases exp(i x_m k) on the frequencies of lines; and the
    (r+1, n) angles k x_m of k = 0 .. r.  Phases are reduced mod n, so every
    angle lies in [0, 2 pi)."""
    freq = np.fft.fftfreq(n, 1.0 / n).round().astype(int)
    lines = np.r_[0 : r + 1, n - r : n]
    m = np.arange(n)
    phase = np.exp(2j * np.pi * ((m[:, None] * freq[lines]) % n) / n)
    angle = 2.0 * np.pi * ((np.arange(r + 1)[:, None] * m) % n) / n
    return lines, phase, angle


def _synthesis_matrices(n: int, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lines, e, table) of `_block_grid` for the modes |k_i| <= r: e the
    (n, 2r+1) matrix exp(i x_m k) / n and table the (2(r+1), n) real
    synthesis of the last axis, whose rows interleave (Re, Im) of
    k3 = 0 .. r (a complex array viewed as real)."""
    lines, phase, angle = _phases(n, r)
    weight = np.where(np.arange(r + 1) == 0, 1.0, 2.0)[:, None] / n
    table = np.stack((weight * np.cos(angle), -weight * np.sin(angle)), axis=1)
    return lines, phase / n, table.reshape(2 * (r + 1), n)


class HalfBand:
    """The half-layout modes max_i |k_i| <= r of a lattice, lines x lines x
    (k3 = 0 .. r), and the real transform pair restricted to them.

    `forward` is `half_forward` cut to the band, by three stacked small
    products: the real (n, 2(r+1)) table (cos, -sin)(k3 x3) on the last
    axis, then the complex (2r+1, n) phase matrix exp(-i k x) on each of
    the other two; the result lands in a zero half layout by four slice
    copies, one per corner of lines x lines.  `inverse` is `half_inverse` of
    band-limited spectra, `_block_grid` with a constant multiplier.  Both
    take their matrices from `_phases`, as the Littlewood-Paley blocks do.
    Every product is per field and small (at most n x n x 2(r+1)), at
    N = 16 well below the size at which the BLAS starts threads, so one
    field's result does not depend on its batch or on the thread count."""

    def __init__(self, lattice: ModeLattice, r: int):
        if not 0 <= r <= lattice.N:
            raise ValueError(f"band radius {r} outside [0, {lattice.N}]")
        self.lattice = lattice
        self.r = int(r)
        n = lattice.n
        self.lines, self.e, self.table = _synthesis_matrices(n, self.r)
        _, phase, angle = _phases(n, self.r)
        self.f = np.ascontiguousarray(phase.conj().T)  # exp(-i k x_m), (2r+1, n)
        ftable = np.stack((np.cos(angle), -np.sin(angle)), axis=1)
        self.ftable = np.ascontiguousarray(ftable.reshape(2 * (self.r + 1), n).T)

    def support(self) -> np.ndarray:
        """Boolean half-layout mask of the band, shape (n, n, N+1)."""
        lat = self.lattice
        kabs = np.abs(np.fft.fftfreq(lat.n, 1.0 / lat.n))
        return ((kabs[:, None, None] <= self.r) & (kabs[None, :, None] <= self.r)
                & (np.arange(lat.N + 1) <= self.r))

    def forward(self, grid: np.ndarray) -> np.ndarray:
        """Real grid samples (..., n, n, n) -> their half-layout coefficients
        on the band, 0 elsewhere, shape (..., n, n, N+1)."""
        lat, r = self.lattice, self.r
        sub = (grid @ self.ftable).view(np.complex128)  # (..., x1, x2, k3)
        sub = self.f @ sub.swapaxes(-3, -2)  # (..., x2, k1, k3)
        sub = self.f @ sub.swapaxes(-3, -2)  # (..., k1, k2, k3)
        out = np.zeros(grid.shape[:-3] + (lat.n, lat.n, lat.N + 1), np.complex128)
        corners = ((slice(0, r + 1), slice(0, r + 1)), (slice(r + 1, None), slice(lat.n - r, None)))
        for band1, half1 in corners:
            for band2, half2 in corners:
                np.multiply(sub[..., band1, band2, :], FOURIER_SCALE / lat.n**3,
                            out=out[..., half1, half2, : r + 1])
        return out

    def inverse(self, half: np.ndarray) -> np.ndarray:
        """Half-layout coefficients (..., n, n, N+1) of real fields, zero off
        the band -> real grid samples (..., n, n, n); modes off the band are
        not read."""
        lat = self.lattice
        flat = half.reshape((-1,) + half.shape[-3:])
        # the multiplier is the constant of the paper's normalization
        grid = _block_grid(flat, self.r, self.lines, lat.n**3 / FOURIER_SCALE, self.e, self.table)
        grid = np.broadcast_to(grid, flat.shape[:1] + lat.shape)  # r = 0: a constant
        return grid.reshape(half.shape[:-3] + lat.shape)


def _block_grid(half: np.ndarray, r: int, lines: np.ndarray, w: np.ndarray | float,
                e: np.ndarray, table: np.ndarray):
    """`irfftn` of one block of a batch of half spectra (B, n, n, N+1), whose
    multiplier w sits on lines x lines x (k3 = 0 .. r), by the separable
    synthesis matrices e and table of `_synthesis_matrices`.

    The block is read on its support with its first two frequency axes
    swapped (w is symmetric in k1 and k2, a function of |k|), e @ sums over
    k1, then over k2 after one transpose, and the real table sums the last
    axis: Re c(k3 = 0) + 2 Re sum c(k3) exp(i x k3), the sum `irfft` takes.
    Each product is a stack of small ones, at most n x 2(r+1) x n per
    field, below the size at which the BLAS starts threads, so one field's
    grid does not depend on the batch.  A block at k = 0 alone is a
    constant, shape (B, 1, 1, 1)."""
    B, n = half.shape[0], e.shape[0]
    sub = half[:, lines, lines[:, None], : r + 1] * w  # (B, k2, k1, k3)
    if r == 0:
        return (sub.real / n**3).reshape(B, 1, 1, 1)
    sub = e @ sub  # (B, k2, x1, k3)
    sub = e @ sub.transpose(0, 2, 1, 3)  # (B, x1, x2, k3)
    return sub.view(np.float64) @ table


def _sup(grid: np.ndarray) -> np.ndarray:
    """max |grid| over the last three axes, without an |grid| temporary.

    An all-zero grid gives max(0.0, -0.0) = -0.0; adding 0.0 to the reduced
    array makes that +0.0 and leaves every other value as it is."""
    axes = (-3, -2, -1)
    return np.maximum(grid.max(axis=axes), -grid.min(axis=axes)) + 0.0


def holder_norm_half(
    lattice: ModeLattice, half: np.ndarray, alpha: float, shift: np.ndarray | None = None
):
    """Hoelder norms of a batch of real fields from their half spectra, shape
    (B, n, n, N+1) in the layout of `half_spectrum` and `half_forward`.

    Each block is synthesised on the lines its multiplier reaches
    (`DyadicPartition.half_blocks`, `_block_grid`), which gives the grids of
    the full `irfftn` pass to rounding; the chi block is a constant.

    With `shift` of shape (B,), also returns the norms of the fields minus
    the constants `shift`, from the same block pass: a constant sits at
    k = 0, where chi(0) = 1 and rho_j(0) = 0 for every j >= 0, so only the
    chi-block grid moves.  The result is then the pair (norms, shifted norms).
    """
    part = lattice.partition()
    to_grid = lattice.n**3 / FOURIER_SCALE
    scale = to_grid * 2.0 ** (np.arange(-1, part.jmax + 1) * alpha)
    grids = (_block_grid(half, *block) for block in part.half_blocks())
    chi = next(grids)
    sups = np.stack([_sup(chi)] + [_sup(grid) for grid in grids], axis=1)
    norms = np.max(sups * scale, axis=1)
    if shift is None:
        return norms
    chi = chi - (np.asarray(shift) / to_grid)[:, None, None, None]
    sups[:, 0] = _sup(chi)
    return norms, np.max(sups * scale, axis=1)


def holder_norm_batch(
    lattice: ModeLattice, coeffs: np.ndarray, alpha: float, shift: np.ndarray | None = None
):
    """`holder_norm_half` of real fields given as full coefficient cubes,
    shape (B,) + lattice.shape.

    The fields must be real, that is their coefficients Hermitian: the blocks
    are evaluated from the half spectrum k3 >= 0, which drops an
    anti-Hermitian part (rounding residue for real fields).
    """
    return holder_norm_half(lattice, half_spectrum(lattice, coeffs), alpha, shift)


def parseval_defect(lattice: ModeLattice, f: ScalarField) -> float:
    """Relative gap between grid L^2 norm and coefficient l^2 norm."""
    g = f.to_grid()
    l2_grid = math.sqrt(np.sum(np.abs(g) ** 2) * lattice.cell_volume)
    l2_coef = math.sqrt(np.sum(np.abs(f.coeff) ** 2))
    denom = max(l2_coef, 1e-300)
    return abs(l2_grid - l2_coef) / denom


# -- serialization ------------------------------------------------------------


def field_to_json(obj) -> str:
    """Serialize a ScalarField or VectorField; exact round-trip via repr floats."""
    if isinstance(obj, ScalarField):
        comps = obj.coeff[None, ...]
        ncomp = 1
        reality = obj.is_real()
    elif isinstance(obj, VectorField):
        comps = obj.coeff
        ncomp = 3
        reality = obj.is_real()
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")
    lattice = obj.lattice
    modes = lattice.mode_table()
    entries = []
    for c in range(ncomp):
        flat = comps[c].reshape(-1)
        nz = np.nonzero(flat)[0]
        entries.append(
            [
                [int(modes[i, 0]), int(modes[i, 1]), int(modes[i, 2]),
                 float(flat[i].real), float(flat[i].imag)]
                for i in nz
            ]
        )
    return json.dumps(
        {"N": lattice.N, "reality": bool(reality), "components": ncomp, "coeffs": entries}
    )


def field_from_json(text: str):
    """Read a field written by `field_to_json`; raises ValueError for a
    component count other than 1 or 3, a `coeffs` list of another length or
    a mode outside the box |k_j| <= N."""
    doc = json.loads(text)
    lattice = ModeLattice(doc["N"])
    ncomp = doc["components"]
    if ncomp not in (1, 3):
        raise ValueError(f"components must be 1 or 3, got {ncomp!r}")
    if len(doc["coeffs"]) != ncomp:
        raise ValueError(f"{ncomp} components but {len(doc['coeffs'])} coefficient lists")
    coeff = np.zeros((ncomp,) + lattice.shape, dtype=np.complex128)
    for c, rows in enumerate(doc["coeffs"]):
        for k1, k2, k3, re, im in rows:
            if max(abs(k1), abs(k2), abs(k3)) > lattice.N:
                raise ValueError(f"mode {(k1, k2, k3)} lies outside the box |k_j| <= {lattice.N}")
            coeff[c, k1 + lattice.N, k2 + lattice.N, k3 + lattice.N] = complex(re, im)
    if ncomp == 1:
        return ScalarField(lattice, coeff[0])
    return VectorField(lattice, coeff)
