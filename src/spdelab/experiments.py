"""Experiment drivers: convergence studies, the 1D deterministic example,
constants tables and the summation-bound checks.

Every driver is deterministic given (seed, spec): Monte Carlo samples draw
their randomness from counter-based streams split per sample index, so the
results do not depend on scheduling or batching.  Error bars are batch-mean
standard errors over `N_BATCHES` batches, and the norm exponent alpha is
-1/2 - delta/2 (linear level) or -1 - delta/2 (second chaos).

The linear and second-chaos drivers make one pass over the sample indices
for the whole eps schedule.  Sample idx draws its white noise once, from
philox_rng(seed, idx), and every eps forms its own coupled pair from that
one draw with its own loadings: the eps of a schedule share their noise.

A linear or second-chaos Monte Carlo sample is real-valued from end to
end, on the half layout from noise to norm.  The lattice `PairLaw` draws
half spectra from one real transform of white noise; the second-chaos fields
are read on the grid with one real inverse transform (`torus.half_inverse`),
their products go back with one real forward transform
(`torus.half_forward`), and `torus.holder_norm_half` synthesises the
Littlewood-Paley blocks from that half layout by small matrix products,
each block only on the lines its multiplier reaches.  One block pass serves
both the Wick and the plain product difference: the Wick constants sit at
k = 0, where chi(0) = 1 and rho_j(0) = 0 for every j >= 0, so subtracting
them moves the chi-block grid alone, by a constant.

The Wick mean-zero check needs the draws only at one grid point.  Those
point values (u1(0), b1(0)) are six jointly Gaussian numbers, linear in the
white noise, so each check draws them from their exact law: six standard
normals times the symmetric root of their covariance, which is the
C01/C02/C03 block in closed form (`_point_law_root`).
"""

from __future__ import annotations

import csv
import json
import logging
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import constants as renorm
from .fields import PairLaw, philox_rng
from .schemes import SchemeSpec, eps_laplacian_rate, h_on_lattice
from .torus import (
    ModeLattice,
    half_forward,
    half_inverse,
    half_spectrum,
    holder_norm_batch,  # noqa: F401  (traced by name as experiments.holder_norm_batch)
    holder_norm_half,
)

logger = logging.getLogger(__name__)

_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
N_BATCHES = 32  # batches of `batch_sigma`; one per sample when there are fewer
# the 1D example's final time, viscosity and reference resolution
BURGERS_T, BURGERS_NU, BURGERS_REF_MODES = 0.3, 1.0, 256
# pass levels of `exp_sum_bound`: convolution-ratio spread, sup-bound relative gap
SPREAD_LIMIT, KEY_TOL = 2.0, 1e-6


@dataclass
class ExperimentSpec:
    name: str
    eps_schedule: tuple[float, ...]
    N: int = 16
    samples: int = 512
    delta: float = 0.1
    seed: int = 2024
    threads: int = os.cpu_count() or 1
    scheme: SchemeSpec = field(default_factory=SchemeSpec)

    def __post_init__(self):
        eps = np.asarray(self.eps_schedule, dtype=float)
        if eps.ndim != 1 or eps.size == 0:
            raise ValueError("epsilon schedule must be a nonempty list of numbers")
        if not np.all((eps > 0) & (eps < np.inf)):
            raise ValueError("epsilon schedule must be positive and finite")
        if np.any(np.diff(eps) >= 0):
            raise ValueError("epsilon schedule must be strictly decreasing")
        if self.samples < 2:  # a standard error needs two samples
            raise ValueError(f"samples must be at least 2, got {self.samples}")
        if self.N < 1:
            raise ValueError(f"lattice radius N must be at least 1, got {self.N}")


@dataclass
class RateFit:
    slope: float
    intercept: float
    residual: float
    eps: list[float]
    values: list[float]
    sigmas: list[float]

    def decreasing_pairwise(self, n_sigma: float = 2.0) -> bool:
        return all(
            a - n_sigma * sa > b + n_sigma * sb
            for (a, sa), (b, sb) in zip(
                zip(self.values, self.sigmas), zip(self.values[1:], self.sigmas[1:])
            )
        )

    def decreasing_endpoints(self, n_sigma: float = 2.0) -> bool:
        return (
            self.values[0] - n_sigma * self.sigmas[0]
            > self.values[-1] + n_sigma * self.sigmas[-1]
        )


def fit_rate(eps: list[float], values: list[float], sigmas: list[float]) -> RateFit:
    """Least-squares log-log fit; slope > 0 means decay as eps -> 0."""
    if len(eps) < 3:
        raise ValueError("rate fits need at least 3 schedule points")
    if min(values) <= 0:
        raise ValueError("degenerate fit: nonpositive values")
    x = np.log(np.asarray(eps))
    y = np.log(np.asarray(values))
    coef = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((np.polyval(coef, x) - y) ** 2)))
    return RateFit(float(coef[0]), float(coef[1]), resid, list(eps), list(values), list(sigmas))


def batch_sigma(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    nb = min(N_BATCHES, len(values))
    groups = np.array_split(values, nb)
    means = np.array([g.mean() for g in groups])
    return float(means.std(ddof=1) / np.sqrt(nb))


def _schedule_laws(schemes, lattice: ModeLattice) -> list[PairLaw]:
    """The lattice laws of an eps schedule.  The first holds the half-layout
    Leray symbol and draws the noise every eps shares; the others hold only
    their rates and loadings, for `PairLaw.pair`."""
    first = PairLaw.on_lattice(schemes[0], lattice)
    return [first] + [
        PairLaw(half_spectrum(lattice, eps_laplacian_rate(s, lattice)), first.lam_c)
        for s in schemes[1:]
    ]


def _linear_chunk(args):
    """Linear-level norms of samples idx_lo .. idx_hi - 1, one list per eps
    of `schemes`; one noise draw per sample index serves every eps."""
    (N, schemes, alpha, seed, idx_lo, idx_hi) = args
    lattice = ModeLattice(N)
    laws = _schedule_laws(schemes, lattice)
    hbs = [half_spectrum(lattice, h_on_lattice(s, lattice, "b")) for s in schemes]
    out = [[] for _ in schemes]
    for idx in range(idx_lo, idx_hi):
        z = laws[0].noise(philox_rng(seed, idx), 2)
        for law, hb, vals in zip(laws, hbs, out):
            ya, yc = law.pair(*z)
            vals.append(float(np.max(holder_norm_half(lattice, hb * (ya - yc), alpha))))
    return out


def _distinct_cutoffs(scheme: SchemeSpec, lattice: ModeLattice) -> np.ndarray:
    """(h_u, h_b) on the half layout, or (h_u,) alone when the two are equal
    on the lattice (two `table` cutoffs share a kind and can still differ)."""
    hu, hb = (h_on_lattice(scheme, lattice, fl) for fl in "ub")
    return half_spectrum(lattice, np.stack([hu] if np.array_equal(hu, hb) else [hu, hb]))


def _second_chaos_chunk(args):
    """(wick, plain, eps_s, noise_s) of samples idx_lo .. idx_hi - 1: the
    norms, one list per eps of `schemes`, the seconds spent on each eps and
    the seconds of the noise draws.  One noise draw per sample index serves
    every eps, and each distinct cutoff takes one `half_inverse` of h y."""
    (N, schemes, alpha, seed, c_diffs, idx_lo, idx_hi) = args
    lattice = ModeLattice(N)
    laws = _schedule_laws(schemes, lattice)
    cutoffs = [_distinct_cutoffs(s, lattice) for s in schemes]
    c_pairs = [np.array([c[i, j] for (i, j) in _PAIRS]) for c in c_diffs]
    wick = [[] for _ in schemes]
    plain = [[] for _ in schemes]
    eps_s, noise_s = [0.0] * len(schemes), 0.0
    for idx in range(idx_lo, idx_hi):
        t0 = time.perf_counter()
        z = laws[0].noise(philox_rng(seed, idx), 2)
        noise_s += time.perf_counter() - t0
        for e, (law, h, c) in enumerate(zip(laws, cutoffs, c_pairs)):
            t0 = time.perf_counter()
            y = np.stack(law.pair(*z))
            # (approx, cont) x distinct cutoff x component; u reads the first
            # cutoff's grids and b the last's
            g = half_inverse(lattice, h[None, :, None] * y[:, None])
            gu_a, gb_a, gu_c, gb_c = g[0, 0], g[0, -1], g[1, 0], g[1, -1]
            prods = np.stack([gu_a[i] * gb_a[j] - gu_c[i] * gb_c[j] for (i, j) in _PAIRS])
            p, w = holder_norm_half(lattice, half_forward(lattice, prods), alpha, c)
            plain[e].append(float(np.max(p)))
            wick[e].append(float(np.max(w)))
            eps_s[e] += time.perf_counter() - t0
    return wick, plain, eps_s, noise_s


def _run_chunks(fn, common, samples: int, threads: int):
    threads = min(threads, os.cpu_count() or 1)
    bounds = np.linspace(0, samples, max(1, min(threads, samples)) + 1, dtype=int)
    chunks = [common + (int(lo), int(hi)) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    if threads <= 1 or len(chunks) == 1:
        return [fn(c) for c in chunks]
    with ProcessPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, chunks))


def exp_linear_convergence(spec: ExperimentSpec) -> RateFit:
    """Monte Carlo norm of the linear-level difference per epsilon.

    Samples the coupled stationary pair exactly (shared-noise law), measures
    E max_i ||b1_eps^i - b1bar_eps^i||_{C^alpha} with alpha = -1/2 - delta/2
    and fits the log-log decay rate.
    """
    alpha = -0.5 - spec.delta / 2
    schemes = tuple(spec.scheme.with_eps(eps) for eps in spec.eps_schedule)
    chunks = _run_chunks(
        _linear_chunk, (spec.N, schemes, alpha, spec.seed), spec.samples, spec.threads
    )
    means, sigmas = [], []
    for e, eps in enumerate(spec.eps_schedule):
        vals = np.concatenate([np.asarray(c[e]) for c in chunks])
        means.append(float(vals.mean()))
        sigmas.append(batch_sigma(vals))
        logger.info("linear eps=%g: %.5g +- %.2g", eps, means[-1], sigmas[-1])
    return fit_rate(list(spec.eps_schedule), means, sigmas)


@dataclass
class SecondChaosResult:
    wick: RateFit
    ablation: RateFit
    wick_mean_zero_sigmas: float  # worst |E[u dia b]| / stderr over entries
    # per eps of the schedule: its share of the one sample pass's wall time
    # (the shared noise draws split evenly), the wall time of its mean-zero
    # check, and samples per second of that share
    sample_s: list[float]
    mean_zero_s: list[float]
    samples_per_s: list[float]
    noise_s: float  # the shared noise draws' share of the sample pass


def exp_second_chaos(spec: ExperimentSpec) -> SecondChaosResult:
    """Wick-product difference norm per epsilon plus the un-renormalized
    ablation (plain product difference, no constant subtraction), from one
    sample pass for the whole schedule."""
    alpha = -1.0 - spec.delta / 2
    lattice = ModeLattice(spec.N)
    schemes = tuple(spec.scheme.with_eps(eps) for eps in spec.eps_schedule)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        c03s = [renorm.c0_matrix("03", s, lattice).real for s in schemes]
        c_diffs = tuple(c - renorm.c0_matrix("03", s, lattice, bar=True).real
                        for c, s in zip(c03s, schemes))
    t0 = time.perf_counter()
    chunks = _run_chunks(
        _second_chaos_chunk,
        (spec.N, schemes, alpha, spec.seed, c_diffs),
        spec.samples,
        spec.threads,
    )
    pass_s = time.perf_counter() - t0
    # the chunks' own clocks split the pass's wall time
    eps_busy = np.sum([c[2] for c in chunks], axis=0)
    noise_busy = sum(c[3] for c in chunks)
    scale = pass_s / (eps_busy.sum() + noise_busy)
    sample_s = [float(scale * (b + noise_busy / len(schemes))) for b in eps_busy]
    w_means, w_sigmas, p_means, p_sigmas = [], [], [], []
    mean_zero_s = []
    worst_meanzero = 0.0
    for e, (eps, scheme) in enumerate(zip(spec.eps_schedule, schemes)):
        t1 = time.perf_counter()
        worst_meanzero = max(worst_meanzero, _wick_mean_zero_check(spec, scheme, c03s[e]))
        mean_zero_s.append(time.perf_counter() - t1)
        wick = np.concatenate([np.asarray(c[0][e]) for c in chunks])
        plain = np.concatenate([np.asarray(c[1][e]) for c in chunks])
        w_means.append(float(wick.mean()))
        w_sigmas.append(batch_sigma(wick))
        p_means.append(float(plain.mean()))
        p_sigmas.append(batch_sigma(plain))
        logger.info(
            "second-chaos eps=%g: wick %.5g +- %.2g, plain %.5g +- %.2g "
            "(samples %.2f s, mean-zero check %.2f s)",
            eps, w_means[-1], w_sigmas[-1], p_means[-1], p_sigmas[-1], sample_s[e],
            mean_zero_s[-1],
        )
    return SecondChaosResult(
        fit_rate(list(spec.eps_schedule), w_means, w_sigmas),
        fit_rate(list(spec.eps_schedule), p_means, p_sigmas),
        worst_meanzero,
        sample_s,
        mean_zero_s,
        [spec.samples / t for t in sample_s],
        float(scale * noise_busy),
    )


# Family-wise alarm level of `_wick_mean_zero_check` (200 draws, 9 entries,
# 3 eps: the worst of 27 t-statistics of skewed products).  Simulated with
# exact Gaussian point values, the 6-variate law of (u1(0), b1(0)) from
# C01/C02/C03 at the default scheme, N = 16, eps 1/4, 1/8, 1/16: on correct
# code the statistic exceeds 3 in 9.0 % of runs, its 99.73 % point is 4.64,
# and it exceeds 5 in 0.12 % of 2e5 runs.  With C03 left out it reads >= 9.9.
WICK_MEAN_ZERO_THRESHOLD = 5.0


def wick_mean_zero_threshold(n_eps: int) -> float:
    """The alarm level of `_wick_mean_zero_check` over a schedule of n_eps
    eps: `WICK_MEAN_ZERO_THRESHOLD` up to 3 eps, 5 + 0.5 ln(n_eps / 3) beyond.

    Each eps adds 9 t-statistics.  In the simulation above, run with 1e5
    replicates at each of eps 1/2 ... 1/64, the worst statistic of one eps
    exceeds x with a probability that falls by a factor e for every 0.46 to
    0.49 of x between 4.5 and 5.6 (4.0e-4 at 5).  So the log term keeps n_eps
    times that probability at its 3-eps value.  Simulated family-wise false
    alarms: 0.03-0.05 % at 1 eps, 0.11-0.13 % at 3, 0.12 % at 6 (5.35); a
    fixed 5 would give 0.24 % at 6.
    """
    return float(WICK_MEAN_ZERO_THRESHOLD + 0.5 * np.log(max(n_eps, 3) / 3))


def _point_law_root(scheme: SchemeSpec, lattice: ModeLattice) -> np.ndarray:
    """The symmetric (6, 6) root R, R R = C, of the covariance C of the point
    values (u1^i(0), b1^j(0)) of the approximate linear level.

    Those values load each mode's noise with m_f(k) P(k), m_f = h_f sd_a, so
    C = (2pi)^-3 sum_k m_f m_g P^{ij}(k): the C01/C02/C03 block in closed
    form, summed on the half layout once on k3 = 0 (which holds k and -k)
    and twice elsewhere.  With C = V diag(w) V^T, the root is
    V diag(sqrt(max(w, 0))) V^T, unique also where C is singular (u1 = b1
    when h_u = h_b, where rounding can leave w slightly negative).
    """
    law = PairLaw.on_lattice(scheme, lattice)
    h = np.stack([half_spectrum(lattice, h_on_lattice(scheme, lattice, fl)) for fl in "ub"])
    m = h * law.loadings()[0]
    weight = np.full(lattice.N + 1, 2.0)
    weight[0] = 1.0
    cov = np.einsum("fxyz,gxyz,ijxyz->figj", m, m * weight, law.proj).reshape(6, 6)
    w, v = np.linalg.eigh(renorm.TWO_PI_M3 * cov)
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.T


def _wick_mean_zero_check(spec: ExperimentSpec, scheme: SchemeSpec, c03: np.ndarray) -> float:
    """|empirical E[u1^i b1^j(x0) - C03^{ij}]| in units of its stderr.

    The 200 draws of the point values (u1(0), b1(0)) come from their exact
    Gaussian law: `standard_normal((200, 6)) @ R^T` from the stream
    philox_rng(seed, 999_999), with R from `_point_law_root`.
    """
    root = _point_law_root(scheme, ModeLattice(spec.N))
    n = 200
    point = philox_rng(spec.seed, 999_999).standard_normal((n, 6)) @ root.T
    prods = point[:, :3, None] * point[:, None, 3:] - c03
    mean = prods.mean(axis=0)
    stderr = prods.std(axis=0, ddof=1) / np.sqrt(n)
    return float(np.max(np.abs(mean) / np.maximum(stderr, 1e-300)))


# -- 1D deterministic example ----------------------------------------------------


@dataclass
class Burgers1DSpec:
    eps_schedule: tuple[float, ...] = (1 / 16, 1 / 32, 1 / 64, 1 / 128)
    scheme: str = "one_sided"  # or "central"


def _burgers_u0(x: np.ndarray) -> np.ndarray:
    return np.sin(x) + 0.4 * np.cos(2.0 * x)


def _burgers_reference(M: int, T: float, nu: float) -> np.ndarray:
    """Fourier coefficients (fft layout) of the viscous solution at time T,
    via integrating-factor RK4 with 2/3 dealiasing."""
    x = 2.0 * np.pi * np.arange(M) / M
    u = _burgers_u0(x)
    k = np.fft.fftfreq(M, d=1.0 / M)
    keep = np.abs(k) <= M // 3
    uhat = np.fft.fft(u)

    def rhs(vhat):
        v = np.fft.ifft(vhat).real
        fl = np.fft.fft(0.5 * v * v) * keep
        return -1j * k * fl

    # integrating factor removes the diffusive CFL; advective restriction only
    dt_adv = 0.25 * (2.0 * np.pi / M) / 2.0
    nsteps = max(400, int(np.ceil(T / dt_adv)))
    dt = T / nsteps
    efac = np.exp(-nu * k**2 * dt)
    ehalf = np.exp(-nu * k**2 * dt / 2.0)
    for _ in range(nsteps):
        a = rhs(uhat)
        b = rhs(ehalf * (uhat + dt / 2 * a))
        c = rhs(ehalf * uhat + dt / 2 * b)
        d = rhs(efac * uhat + dt * ehalf * c)
        uhat = efac * uhat + dt / 6 * (efac * a + 2 * ehalf * (b + c) + d)
    return uhat


def _eval_fourier(uhat: np.ndarray, x: np.ndarray) -> np.ndarray:
    M = len(uhat)
    k = np.fft.fftfreq(M, d=1.0 / M)
    return (np.exp(1j * np.outer(x, k)) @ uhat).real / M


def _burgers_scheme_run(M: int, T: float, nu: float, scheme: str) -> np.ndarray:
    """Explicit RK4 for the difference-operator approximation on an M-grid."""
    eps = 2.0 * np.pi / M
    x = eps * np.arange(M)
    u = _burgers_u0(x)

    if scheme == "one_sided":
        def dop(f):
            return (np.roll(f, -1) - f) / eps
    elif scheme == "central":
        def dop(f):
            return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * eps)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    def lap(f):
        return (np.roll(f, -1) - 2.0 * f + np.roll(f, 1)) / eps**2

    def rhs(f):
        return -0.5 * dop(f * f) + nu * lap(f)

    dt = 0.2 * eps**2 / nu
    nsteps = int(np.ceil(T / dt))
    dt = T / nsteps
    for _ in range(nsteps):
        a = rhs(u)
        b = rhs(u + dt / 2 * a)
        c = rhs(u + dt / 2 * b)
        d = rhs(u + dt * c)
        u = u + dt / 6 * (a + 2 * b + 2 * c + d)
    return u


@dataclass
class BurgersResult:
    fit: RateFit
    ref_self_check: float


def exp_burgers(spec: Burgers1DSpec) -> BurgersResult:
    """Sup-norm error of the difference-operator scheme against a fine
    spectral reference; returns the fitted convergence order."""
    ref_hi = _burgers_reference(2 * BURGERS_REF_MODES, BURGERS_T, BURGERS_NU)
    ref_lo = _burgers_reference(BURGERS_REF_MODES, BURGERS_T, BURGERS_NU)
    xs = 2.0 * np.pi * np.arange(64) / 64
    self_check = float(np.max(np.abs(_eval_fourier(ref_hi, xs) - _eval_fourier(ref_lo, xs))))
    if self_check > 1e-8:
        raise RuntimeError(f"reference resolution insufficient: self-check {self_check:.2e}")
    errors, eps_actual = [], []
    for eps in spec.eps_schedule:
        M = int(round(2.0 * np.pi / eps))
        u = _burgers_scheme_run(M, BURGERS_T, BURGERS_NU, spec.scheme)
        x = 2.0 * np.pi * np.arange(M) / M
        err = float(np.max(np.abs(u - _eval_fourier(ref_hi, x))))
        errors.append(err)
        eps_actual.append(2.0 * np.pi / M)
        logger.info("burgers %s eps=%g: sup error %.3e", spec.scheme, eps, err)
    fit = fit_rate(eps_actual, errors, [0.0] * len(errors))
    return BurgersResult(fit, self_check)


# -- constants table --------------------------------------------------------------


def constants_lattice(scheme: SchemeSpec, eps: float, lattice_N: int | None = None) -> ModeLattice:
    """The lattice of the constants table at eps: radius lattice_N, else the
    saturated N = ceil(L0 / (2 eps))."""
    return ModeLattice(lattice_N or int(np.ceil(scheme.L0 / (2 * eps))))


def constants_lattices(eps_schedule, scheme: SchemeSpec, lattice_N: int | None = None) -> list[dict]:
    """Per eps of the table: the lattice radius N, the full mode count M, the
    orbit representatives R the single sums run over, and `saturated`."""
    out = []
    for eps in eps_schedule:
        sch_eps, lattice = scheme.with_eps(eps), constants_lattice(scheme, eps, lattice_N)
        reps = renorm.orbit_modes(sch_eps, lattice)
        out.append({
            "eps": eps, "N": lattice.N, "M": int(reps.orbit.sum()), "R": int(reps.k.shape[0]),
            "saturated": renorm.cutoff_saturated(sch_eps, lattice),
        })
    return out


def exp_constants_table(
    eps_schedule: tuple[float, ...],
    scheme: SchemeSpec,
    t: float = 1.0,
    lattice_N: int | None = None,
) -> list[dict]:
    """One row per (family, indices, eps) with value, imaginary residue, the
    lattice radius `N` of its eps, whether that lattice holds the whole
    cutoff support (`saturated`; a truncated table warns and reads False)
    and, for the 2-families, the quadrature limit.

    Per eps, the families and their barred values come from
    `renorm.ck_families`: one sum per distinct (wiring, h-product), each row
    signed from the table, so every row equals the `ck`/`ck_tilde` value bit
    for bit."""
    rows: list[dict] = []
    limits = {}
    for flavor in ("u", "b"):
        for tilde in (False, True):
            val, err = renorm.ck2_limit(flavor, tilde, scheme)
            limits[(flavor, tilde)] = (val, err)
    for eps in eps_schedule:
        sch_eps = scheme.with_eps(eps)
        lattice = constants_lattice(scheme, eps, lattice_N)
        N = lattice.N
        saturated = renorm.cutoff_saturated(sch_eps, lattice)
        vals = renorm.ck_families(t, sch_eps, lattice)
        bars = renorm.ck_families(t, sch_eps, lattice, bar=True)
        for k in (1, 2, 3, 4):
            for flavor in ("u", "b"):
                for tilde in (False, True):
                    kind = "tC" if tilde else "C"
                    val, bar = vals[(kind, k, flavor)], bars[(kind, k, flavor)]
                    lim = limits.get((flavor, tilde)) if k == 2 else None
                    for i, m, j in np.ndindex(3, 3, 3):
                        row = {
                            "family": f"{kind}{k},{flavor}",
                            "i": i, "i1": m, "j": j,
                            "eps": eps, "t": t, "N": N, "saturated": saturated,
                            "value": float(val[i, m, j].real),
                            "imag_residue": float(abs(val[i, m, j].imag)),
                            "bar_value": float(abs(bar[i, m, j])),
                        }
                        if lim is not None:
                            row["limit_value"] = float(lim[0][i, m, j])
                            row["quadrature_error"] = float(lim[1])
                        rows.append(row)
    return rows


def write_csv(rows: list[dict], path: str | Path) -> None:
    if not rows:
        return
    keys = sorted({k for r in rows for k in r}, key=lambda s: (len(s), s))
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=keys)
        w.writeheader()
        w.writerows(rows)


# -- summation bound checks --------------------------------------------------------


def convolution_sum(k: np.ndarray, l: float, m: float, N: int) -> float:
    """sum over k1 + k2 = k (both nonzero, |k1| box-limited) of |k1|^-l |k2|^-m."""
    if not (0 < l < 3 and 0 < m < 3):
        raise ValueError("exponents must lie in (0, 3)")
    if l + m - 3 <= 0:
        raise ValueError("need l + m > 3 for a convergent convolution bound")
    ax = np.arange(-N, N + 1)
    g = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    k1sq = np.sum(g**2, axis=1)
    k2 = np.asarray(k)[None, :] - g
    k2sq = np.sum(k2**2, axis=1)
    keep = (k1sq > 0) & (k2sq > 0)
    return float(np.sum(k1sq[keep] ** (-l / 2) * k2sq[keep] ** (-m / 2)))


@dataclass
class SumBoundReport:
    ratios: dict
    ratio_spread: float
    key_estimate_gap: float

    def passed(self) -> bool:
        return self.ratio_spread < SPREAD_LIMIT and self.key_estimate_gap < KEY_TOL


def exp_sum_bound(l: float = 2.0, m: float = 2.0, N: int = 24) -> SumBoundReport:
    """Numeric check of the convolution-sum bound and of sup |a|^r e^{-a^2}.

    The ratio (lattice sum) * |k|^{l+m-3} is recorded for a sample of output
    modes; the spread across |k| is the regression quantity.  The sup of
    |a|^r e^{-a^2} over a dense grid is compared with the calculus value
    (r/2)^{r/2} e^{-r/2}.
    """
    ks = [(1, 0, 0), (2, 0, 0), (4, 0, 0), (2, 2, 1)]
    ratios = {}
    for k in ks:
        kk = np.asarray(k, dtype=float)
        s = convolution_sum(kk, l, m, N)
        ratios[str(k)] = s * float(np.sum(kk**2)) ** ((l + m - 3) / 2)
    vals = list(ratios.values())
    spread = max(vals) / min(vals)
    gap = 0.0
    a = np.linspace(0.0, 6.0, 2_000_001)
    for r in (0.5, 1.0, 2.0, 4.0):
        grid_max = float(np.max(a**r * np.exp(-(a**2))))
        exact = (r / 2.0) ** (r / 2.0) * np.exp(-r / 2.0)
        gap = max(gap, abs(grid_max - exact) / exact)
    return SumBoundReport(ratios, float(spread), float(gap))


# -- manifests ---------------------------------------------------------------------


def write_manifest(path: str | Path, payload: dict) -> None:
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if hasattr(o, "__dict__"):
            return o.__dict__
        return str(o)

    Path(path).write_text(json.dumps(payload, indent=2, default=default))
