"""The benchmark's three workloads.

Each workload has a set-up (the inputs, built from the seed before any
measured work), a round (one unit of measured work, the same operations
every time) and checks of a round's outputs.  `check_run` holds the checks
that do not depend on the round, run once after the measured phase.
"""

from __future__ import annotations

import warnings

import numpy as np

from spdelab import constants as renorm
from spdelab import experiments, hierarchy
from spdelab.fields import NoiseSpec
from spdelab.schemes import SchemeSpec
from spdelab.torus import ModeLattice, random_vector_field

import checks
import reference as ref


def derive(seed: int, *keys: int) -> int:
    """A 63-bit seed for the stream named by keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1, np.uint64)[0] >> 1)


def drop_mode_cache() -> None:
    """Forget cached mode sets, so the next constant call builds its mode set
    as a first call in a fresh process does."""
    cache = getattr(renorm, "_MODE_CACHE", None)
    if cache is not None:
        cache.clear()


def quiet(fn, *args, **kwargs):
    """Call fn with the truncated-lattice RuntimeWarnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return fn(*args, **kwargs)


class SecondChaos:
    """exp_second_chaos at N = 16, eps 1/4, 1/8, 1/16, default scheme,
    one thread.  Item: one Monte Carlo sample."""

    name = "second_chaos"
    N = 16
    EPS = (1 / 4, 1 / 8, 1 / 16)
    SAMPLES = 16  # per eps

    def __init__(self, seed: int):
        self.seed = seed
        self.items = self.SAMPLES * len(self.EPS)

    def setup(self):
        self.scheme = SchemeSpec()
        self.lattice = ModeLattice(self.N)
        self.c0 = {}
        for eps in self.EPS:
            s = self.scheme.with_eps(eps).finalize()
            # also fills the mode-set cache that exp_second_chaos reads
            self.c0[eps] = (
                quiet(renorm.c0_matrix, "03", s, self.lattice).real,
                quiet(renorm.c0_matrix, "03", s, self.lattice, bar=True).real,
            )

    def round(self, r: int):
        spec = experiments.ExperimentSpec(
            name=self.name, eps_schedule=self.EPS, N=self.N, samples=self.SAMPLES,
            seed=derive(self.seed, r), threads=1, scheme=self.scheme,
        )
        return quiet(experiments.exp_second_chaos, spec)

    def check(self, res):
        return checks.check_second_chaos(
            self.EPS, res.wick.values, res.wick.sigmas, res.wick.slope,
            res.ablation.values, res.ablation.sigmas, res.ablation.slope,
            res.wick_mean_zero_sigmas,
        )

    def check_run(self):
        out = []
        s = self.scheme
        for eps, (c0, c0_bar) in self.c0.items():
            out += checks.check_c0(c0, c0_bar, self.N, eps, s.L0, s.h_kind_u, s.h_kind_b)
        return out


class Hierarchy:
    """run_hierarchy in approx and then cont mode under one shared noise,
    N = 8, dt = 1e-3, T = 0.016, a = 1, b = 0 (nonzero drift terms).
    Item: one solver time step of one mode."""

    name = "hierarchy"
    N = 8
    DT = 1e-3
    T = 0.016
    SCHEME = dict(eps=0.5, a=1.0, b=0.0, h_kind_u="smooth_bump", h_kind_b="indicator")
    AMPLITUDE = 1.0  # l2 norm of the initial coefficients

    def __init__(self, seed: int):
        self.seed = seed
        self.items = 2 * round(self.T / self.DT)

    def setup(self):
        self.lattice = ModeLattice(self.N)
        self.scheme = SchemeSpec(**self.SCHEME).finalize()
        self.config = hierarchy.SolverConfig(dt=self.DT, T=self.T)
        rng = np.random.default_rng(derive(self.seed, 0))
        init = []
        for _ in range(2):
            c = random_vector_field(self.lattice, rng, decay=2.5, divergence_free=True).coeff
            init.append(c * (self.AMPLITUDE / np.sqrt(np.sum(np.abs(c) ** 2))))
        self.u0, self.b0 = init

    def round(self, r: int):
        noise = NoiseSpec(seed=derive(self.seed, 1, r), dt=self.DT, T=self.T,
                          lattice=self.lattice, scheme=self.scheme)
        return {
            which: quiet(hierarchy.run_hierarchy, noise, self.lattice, self.scheme,
                         self.config, which, self.u0, self.b0)
            for which in ("approx", "cont")
        }

    def check(self, runs):
        out = []
        s = self.scheme
        for which, run in runs.items():
            y, y1 = run.assembled(), run.levels[1]
            drift = None
            if which == "approx":
                def drift(n, times=y.times):
                    tab = quiet(hierarchy.drift_assembly, s, float(times[n]), self.lattice)
                    return tab.u_from_u, tab.u_from_b
            out += checks.check_hierarchy(
                which, y.times, y.u, y.b, y1.u, y1.b, run.report.increments,
                run.report.converged, self.config.tol, self.N, s.eps, s.a, s.b, s.L0,
                self.DT, drift,
            )
        return out

    def check_run(self):
        return []


class Constants:
    """c22_family and c13_block 1-4 at eps = 1/2 on the saturated lattice
    N = 6 (M = 924), then the k = 2 single sums ck, ck_tilde at eps = 3/64
    on N = 64 (M = 1.1 million) against ck2_limit.  Item: one mode pair of
    the double sums."""

    name = "constants"
    DOUBLE = dict(eps=0.5, N=6)
    SINGLE = dict(eps=3 / 64, N=64)
    CHECK = dict(eps=1.0, N=4)  # M = 122: small enough for the direct pair sums
    SCHEME_D = dict(a=1.0, b=0.0, h_kind_u="smooth_bump", h_kind_b="indicator")
    SCHEME_S = dict(a=1.0, b=0.0, h_kind_u="indicator", h_kind_b="indicator")  # criterion 4

    def __init__(self, seed: int):
        self.seed = seed
        self.t = float(np.random.default_rng(derive(self.seed, 0)).uniform(0.25, 1.0))

    def setup(self):
        self.sch_d = SchemeSpec(eps=self.DOUBLE["eps"], **self.SCHEME_D).finalize()
        self.sch_s = SchemeSpec(eps=self.SINGLE["eps"], **self.SCHEME_S).finalize()
        self.lat_d = ModeLattice(self.DOUBLE["N"])
        self.lat_s = ModeLattice(self.SINGLE["N"])
        M = renorm.active_modes(self.sch_d, self.lat_d).k.shape[0]
        self.items = 5 * M * M

    def round(self, r: int):
        drop_mode_cache()
        t, s, lat = self.t, self.sch_d, self.lat_d
        out = {"c22": renorm.c22_family(t, s, lat)}
        out["c13"] = {b: renorm.c13_block(b, t, s, lat) for b in (1, 2, 3, 4)}
        out["single"] = {
            (fam, fl): fn(2, fl, 1.0, self.sch_s, self.lat_s)
            for fam, fn in (("ck", renorm.ck), ("ck_tilde", renorm.ck_tilde))
            for fl in ("u", "b")
        }
        out["limit"] = {fl: renorm.ck2_limit(fl, False, self.sch_s, rtol=1e-4)[0] for fl in ("u", "b")}
        return out

    @staticmethod
    def _as_dict(family) -> dict:
        keys = ("C", "C_bar", "phi", "phi_bar") + (("L",) if hasattr(family, "L") else ())
        return {k: getattr(family, k) for k in keys}

    def check(self, out):
        c22 = self._as_dict(out["c22"])
        c13 = {b: self._as_dict(v) for b, v in out["c13"].items()}
        res = checks.check_double_sums(c22, c13)
        bars = {}
        for k in (1, 2, 3, 4):
            for fl in ("u", "b"):
                for fam, fn in (("ck", renorm.ck), ("ck_tilde", renorm.ck_tilde)):
                    bars[(fam, k, fl)] = (
                        fn(k, fl, self.t, self.sch_d, self.lat_d, bar=True),
                        fn(k, fl, self.t, self.sch_d, self.lat_d),
                    )
        return res + checks.check_single_sums(out["single"], out["limit"], bars)

    def check_run(self):
        s = SchemeSpec(eps=self.CHECK["eps"], **self.SCHEME_D).finalize()
        lat = ModeLattice(self.CHECK["N"])
        c22 = self._as_dict(renorm.c22_family(self.t, s, lat))
        c13 = {b: self._as_dict(renorm.c13_block(b, self.t, s, lat)) for b in (1, 2, 3, 4)}
        ps = ref.PairSet(s.eps, s.a, s.b, s.L0, s.h_kind_u, s.h_kind_b)
        return checks.check_double_sums_direct(c22, c13, ps, self.t)


WORKLOADS = {w.name: w for w in (SecondChaos, Hierarchy, Constants)}
