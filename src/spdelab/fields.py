"""Sampling of the coupled Gaussian linear level.

Per mode k != 0 the approximate state relaxes at rate lam_a = |k|^2 f(eps k)
and the continuum state at rate lam_c = |k|^2; both are driven by the same
Leray-projected cylindrical noise.  Because the noise cutoffs h_u, h_b enter
the equations only as constant per-mode multipliers, the u- and b-families
are h_u resp. h_b times a shared normalized driver state, and under
identified noise (the default, which is what makes the mixed covariances
nonzero) the u- and b-drivers coincide.

Stationary covariances per mode and family pair (h h' one of h_u^2,
h_u h_b, h_b^2):

    approx:    exp(-lam_a |t-s|) h h' / (2 |k|^2 f) * P(k)
    continuum: same with f -> 1
    cross:     exp(-|k|^2 (s-t)) h h' / (|k|^2 (f+1)) * P(k)   for t <= s
               exp(-|k|^2 f (t-s)) h h' / (|k|^2 (f+1)) * P(k) for t > s

`PairLaw` is the one implementation of the coupled pair's law, on one mode
or on a whole lattice.  It knows two couplings, which share the marginal
variances 1/(2 lam_a) and 1/(2 lam_c):

    continuous:  the continuous-time shared-noise law above, with
                 E[Y_a conj(Y_c)] = 1/(lam_a + lam_c);
    discrete:    the invariant law of the exact exponential step at dt, in
                 which approximate and continuum state take the SAME
                 Gaussian increment; its cross moment is
                 sig_a sig_c / (1 - exp(-(lam_a + lam_c) dt)) and tends to
                 the continuous one as dt -> 0.

The Monte Carlo experiments and the covariance check draw from the
continuous law; `CoupledOUEnsemble` starts from the discrete law of its step,
so stepping it is exactly stationary.  The fields are real, so a lattice law
and the ensemble live on the half layout of `torus.half_spectrum`: the noise
is one `torus.half_gaussian` draw, projected by the half-layout Leray
symbol, and full cubes appear only where `CoupledOUEnsemble.field` mirrors
them out.  Killed modes (lam_a = inf) follow `schemes.killed_mode_rule`:
decay 0 and noise loading 0, like the zero mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schemes import (
    SchemeSpec,
    eps_laplacian_rate,
    eval_f,
    eval_h,
    h_on_lattice,
    killed_mode_rule,
)
from .torus import (
    ModeLattice,
    VectorField,
    full_spectrum,
    half_gaussian,
    half_spectrum,
    leray_tensor,
)


class PairLaw:
    """Law of the normalized pair (Y_a, Y_c) per mode, unit noise, no h.

    Built from the rates (lam_a, lam_c), scalars for one mode or arrays for a
    lattice; a lattice law (`on_lattice`, on the half layout) also draws.
    A mode carries noise where its rate is positive, which leaves out the
    zero mode and, by the killed-mode rule, every killed mode of the
    approximate state.
    """

    def __init__(self, lam_a, lam_c, proj: np.ndarray | None = None,
                 lattice: ModeLattice | None = None):
        self.alive, self.lam_a = killed_mode_rule(lam_a)
        self.lam_c = np.asarray(lam_c, dtype=np.float64)
        self.proj = proj
        self.lattice = lattice
        self._pos_a = self.lam_a > 0
        self._pos_c = self.lam_c > 0
        # rates where positive and 1.0 elsewhere keep the divisions silent
        self._ga = np.where(self._pos_a, self.lam_a, 1.0)
        self._gc = np.where(self._pos_c, self.lam_c, 1.0)
        self._loadings: dict = {}
        self._factors: dict = {}

    @classmethod
    def on_lattice(cls, scheme: SchemeSpec, lattice: ModeLattice) -> "PairLaw":
        """The law on the half layout of `torus.half_spectrum`: the fields are
        real, and the rates, the Leray symbol and the loadings are even in k."""
        rates = (eps_laplacian_rate(scheme, lattice), lattice.ksq)
        # the symbol from the half-layout wavevectors: no full-cube tensor is
        # built and cached on the lattice
        proj = leray_tensor(half_spectrum(lattice, lattice.k_stack()))
        return cls(*(half_spectrum(lattice, a) for a in rates), proj, lattice)

    def step_factors(self, dt: float):
        """(decay_a, decay_c, sig_a, sig_c) of the exact exponential step
        Y <- decay Y + sig Z with one Z for both states; cached per dt."""
        if dt not in self._factors:
            ga, gc = self._ga, self._gc
            var_a = np.where(self._pos_a, -np.expm1(-2.0 * ga * dt) / (2.0 * ga), 0.0)
            var_c = np.where(self._pos_c, -np.expm1(-2.0 * gc * dt) / (2.0 * gc), 0.0)
            self._factors[dt] = (
                np.where(self.alive, np.exp(-self.lam_a * dt), 0.0),
                np.exp(-self.lam_c * dt),
                np.sqrt(var_a),
                np.sqrt(var_c),
            )
        return self._factors[dt]

    def cross(self, dt: float | None = None) -> np.ndarray:
        """Stationary E[Y_a conj(Y_c)]: of the continuous law (dt None) or of
        the invariant law of the step at dt."""
        if dt is None:
            return np.where(self._pos_a, 1.0 / (self._ga + self.lam_c), 0.0)
        sig_a, sig_c = self.step_factors(dt)[2:]
        denom = -np.expm1(-(self.lam_a + self.lam_c) * dt)
        ok = denom > 0
        return np.where(ok, sig_a * sig_c / np.where(ok, denom, 1.0), 0.0)

    def loadings(self, dt: float | None = None):
        """(sd_a, load, resid): Y_a = sd_a Z1, Y_c = load Z1 + resid Z2 for
        independent unit Z1, Z2, under the continuous law (dt None) or the
        invariant law of the step at dt; cached per dt.

        The continuous factors are cancellation-free: the residual
        |lam_a - lam_c| / ((lam_a + lam_c) sqrt(2 lam_c)) vanishes
        identically when the rates coincide."""
        if dt in self._loadings:
            return self._loadings[dt]
        va = np.where(self._pos_a, 1.0 / (2.0 * self._ga), 0.0)
        vc = np.where(self._pos_c, 1.0 / (2.0 * self._gc), 0.0)
        sd_a = np.sqrt(va)
        if dt is None:
            ga, gc, both = self._ga, self._gc, self._pos_a & self._pos_c
            s = np.where(both, ga + gc, 1.0)
            load = np.where(both, np.sqrt(2.0 * ga) / s, 0.0)
            resid = np.where(
                self._pos_c,
                np.where(self._pos_a, np.abs(ga - gc) / (s * np.sqrt(2.0 * gc)), np.sqrt(vc)),
                0.0,
            )
        else:
            ok = va > 0
            load = np.where(ok, self.cross(dt) / np.where(ok, sd_a, 1.0), 0.0)
            resid = np.sqrt(np.maximum(vc - load**2, 0.0))
        self._loadings[dt] = (sd_a, load, resid)
        return self._loadings[dt]

    def pair(self, z1, z2, dt: float | None = None):
        """The stationary pair (ya, yc) = (sd_a z1, load z1 + resid z2) of the
        law `loadings(dt)` names, from independent unit noises z1, z2."""
        sd_a, load, resid = self.loadings(dt)
        return sd_a * z1, load * z1 + resid * z2

    def step(self, ya, yc, z, dt: float):
        """One exact exponential step of (ya, yc) at dt; both states take
        the SAME unit noise z."""
        decay_a, decay_c, sig_a, sig_c = self.step_factors(dt)
        return decay_a * ya + sig_a * z, decay_c * yc + sig_c * z

    def noise(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """`count` Leray-projected unit noise fields on the half layout, shape
        (count, 3, n, n, N+1), from one `half_gaussian` call; the Leray
        symbol is 0 at k = 0, so the zero mode carries none."""
        z = half_gaussian(self.lattice, rng, (count, 3))
        return np.einsum("ij...,fj...->fi...", self.proj, z)

    def draw(self, rng: np.random.Generator, dt: float | None = None):
        """One stationary lattice draw (ya, yc) of `pair` on the half layout;
        6 noise cubes from the stream."""
        return self.pair(*self.noise(rng, 2), dt)


@dataclass
class NoiseSpec:
    seed: int
    dt: float
    T: float
    lattice: ModeLattice
    scheme: SchemeSpec
    identified: bool = True

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.T < self.dt:
            raise ValueError("horizon must cover at least one step")


def philox_rng(seed: int, *spawn: int) -> np.random.Generator:
    """Counter-based generator; spawn indices derive independent substreams."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=spawn)))


class CoupledOUEnsemble:
    """Joint per-mode states of the approximate and continuum linear level.

    Internally the state consists of normalized drivers (unit noise, no h),
    held in one array Y of shape (drivers, 2, 3, n, n, N+1), the half layout
    of `torus.half_spectrum` (the fields are real): axis 1 is
    (approx, cont).  The physical fields are u1 = h_u * Y[0] and
    b1 = h_b * Y[-1]; under identified noise there is one driver, otherwise
    the b-driver is an independent copy.  The law and the step come from
    the lattice's `PairLaw`.  `half_field` reads a field on the half
    layout; `field` mirrors it to a full cube.
    """

    def __init__(self, spec: NoiseSpec):
        self.spec = spec
        self.lattice = spec.lattice
        self.scheme = spec.scheme
        self.identified = spec.identified
        self.t = 0.0
        self.rng = philox_rng(spec.seed)
        lat = self.lattice
        self.law = PairLaw.on_lattice(self.scheme, lat)
        self.h_u = half_spectrum(lat, h_on_lattice(self.scheme, lat, "u"))
        self.h_b = half_spectrum(lat, h_on_lattice(self.scheme, lat, "b"))
        drivers = 1 if self.identified else 2
        self.Y = np.zeros((drivers, 2, 3, lat.n, lat.n, lat.N + 1), dtype=np.complex128)

    def half_field(self, family: str, kind: str) -> np.ndarray:
        """h * Y of one family and kind on the half layout, shape (3, n, n, N+1)."""
        h = {"u": self.h_u, "b": self.h_b}[family]
        return h * self.Y[0 if family == "u" else -1, ("approx", "cont").index(kind)]

    def field(self, family: str, kind: str) -> VectorField:
        return VectorField(self.lattice, full_spectrum(self.lattice, self.half_field(family, kind)))

    def step(self, dt: float | None = None) -> None:
        """One exact exponential-integrator step; the approximate and continuum
        states of each driver receive the SAME Gaussian increment."""
        dt = self.spec.dt if dt is None else dt
        if dt <= 0:
            raise ValueError("dt must be positive")
        z = self.law.noise(self.rng, len(self.Y))
        self.Y[:, 0], self.Y[:, 1] = self.law.step(self.Y[:, 0], self.Y[:, 1], z, dt)
        self.t += dt

    def burn_in_stationary(self) -> None:
        """Draw the state from the invariant law of `step` at the spec dt, so
        subsequent stepping is exactly stationary."""
        for y in self.Y:
            y[:] = self.law.draw(self.rng, self.spec.dt)
        self.t = 0.0


# -- closed forms ------------------------------------------------------------


def covariance_closed_form(
    k,
    t: float,
    s: float,
    pair: str,
    kind: str,
    scheme: SchemeSpec,
    identified: bool = True,
) -> np.ndarray:
    """Exact E[Xhat^i_t(k) Xhat^j_s(-k)] as a real 3x3 matrix.

    pair in {uu, ub, bb}; kind in {approx, cont, cross}, where 'cross' pairs
    the approximate state at time t with the continuum state at time s.
    Mixed pairs vanish when the u- and b-noises are independent.
    """
    k = np.asarray(k, dtype=np.float64)
    ksq = float(np.sum(k**2))
    if ksq == 0.0:
        raise ValueError("covariance is defined for nonzero modes only")
    fval = float(eval_f(scheme, scheme.eps * k))
    proj = leray_tensor(k)
    hu = float(eval_h(scheme, "u", scheme.eps * k))
    hb = float(eval_h(scheme, "b", scheme.eps * k))
    hh = {"uu": hu * hu, "ub": hu * hb, "bb": hb * hb}[pair]
    if pair == "ub" and not identified:
        return np.zeros((3, 3))
    if kind in ("approx", "cross") and not killed_mode_rule(fval)[0]:
        return np.zeros((3, 3))
    if kind == "approx":
        amp = np.exp(-ksq * fval * abs(t - s)) * hh / (2.0 * ksq * fval)
    elif kind == "cont":
        amp = np.exp(-ksq * abs(t - s)) * hh / (2.0 * ksq)
    elif kind == "cross":
        rate = ksq if t <= s else ksq * fval
        amp = np.exp(-rate * abs(s - t)) * hh / (ksq * (fval + 1.0))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return amp * proj


@dataclass
class CovarianceEstimate:
    estimate: np.ndarray  # 3x3 complex
    stderr: np.ndarray  # 3x3 real
    closed_form: np.ndarray  # 3x3 real
    samples: int

    def within(self, n_sigma: float) -> bool:
        gap = np.abs(self.estimate - self.closed_form)
        return bool(np.all(gap <= n_sigma * np.maximum(self.stderr, 1e-300)))


MIN_COVARIANCE_SAMPLES = 100  # fewest draws `mc_covariance` accepts


def mc_covariance(
    spec: NoiseSpec,
    k,
    pair: str,
    kind: str,
    samples: int,
    lag: float = 0.0,
    pair_cross: str = "continuous",
) -> CovarianceEstimate:
    """Monte Carlo covariance for one mode against the closed form.

    Draws `samples` independent stationary realizations of the coupled pair
    (deterministic given spec.seed) from the mode's `PairLaw`, under the
    continuous coupling or, with pair_cross='discrete', the invariant law of
    the step at spec.dt; for a nonzero lag the second factor is evolved by
    exact shared-increment OU transitions at step spec.dt.
    """
    if samples < MIN_COVARIANCE_SAMPLES:
        raise ValueError(f"need at least {MIN_COVARIANCE_SAMPLES} samples")
    if pair_cross not in ("continuous", "discrete"):
        raise ValueError(f"unknown pair_cross {pair_cross!r}")
    closed = covariance_closed_form(k, 0.0, lag, pair, kind, spec.scheme, spec.identified)
    k = np.asarray(k, dtype=np.float64)
    scheme = spec.scheme
    ksq = float(np.sum(k**2))
    proj = leray_tensor(k)
    law = PairLaw(ksq * float(eval_f(scheme, scheme.eps * k)), ksq)
    h = {fam: float(eval_h(scheme, fam, scheme.eps * k)) for fam in "ub"}
    rng = philox_rng(spec.seed)
    fams = ("u",) if spec.identified else ("u", "b")

    def gauss() -> np.ndarray:
        z = rng.standard_normal((samples, 3)) + 1j * rng.standard_normal((samples, 3))
        return (z / np.sqrt(2.0)) @ proj.T

    dt = None if pair_cross == "continuous" else spec.dt
    early = {fam: law.pair(gauss(), gauss(), dt) for fam in fams}
    late = dict(early)
    if lag > 0.0:
        nsteps = max(1, round(lag / spec.dt))
        for _ in range(nsteps):
            for fam in fams:
                late[fam] = law.step(*late[fam], gauss(), lag / nsteps)

    def physical(states: dict, fam: str, kind: str) -> np.ndarray:
        return h[fam] * states[fam if fam in fams else "u"][("approx", "cont").index(kind)]

    kind1, kind2 = ("approx", "cont") if kind == "cross" else (kind, kind)
    x1 = physical(early, pair[0], kind1)
    x2 = physical(late, pair[1], kind2)
    prods = x1[:, :, None] * np.conj(x2[:, None, :])
    est = prods.mean(axis=0)
    stderr = np.sqrt(
        prods.real.var(axis=0, ddof=1) + prods.imag.var(axis=0, ddof=1)
    ) / np.sqrt(samples)
    return CovarianceEstimate(est, stderr, closed, samples)
