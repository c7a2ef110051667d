"""Experiment drivers: determinism, fits, reports."""

import warnings

import numpy as np
import pytest

from spdelab import constants as renorm
from spdelab.experiments import (
    _PAIRS,
    Burgers1DSpec,
    ExperimentSpec,
    SumBoundReport,
    WICK_MEAN_ZERO_THRESHOLD,
    _burgers_scheme_run,
    _second_chaos_chunk,
    _wick_mean_zero_check,
    convolution_sum,
    exp_burgers,
    exp_constants_table,
    exp_linear_convergence,
    exp_second_chaos,
    exp_sum_bound,
    fit_rate,
    holder_norm_batch,
    wick_mean_zero_threshold,
    write_csv,
)
from spdelab.fields import PairLaw, philox_rng
from spdelab.schemes import SchemeSpec, h_on_lattice
from spdelab.torus import (
    FOURIER_SCALE,
    ModeLattice,
    ScalarField,
    dft_forward,
    dft_inverse,
    holder_norm,
    random_scalar_field,
)


def small_spec(**kw):
    base = dict(
        name="t",
        eps_schedule=(1 / 2, 1 / 4, 1 / 8),
        N=6,
        samples=16,
        seed=7,
        scheme=SchemeSpec(),
    )
    base.update(kw)
    return ExperimentSpec(**base)


class TestRateFit:
    def test_exact_power_law(self):
        eps = [0.4, 0.2, 0.1]
        vals = [0.9 * e**1.5 for e in eps]
        fit = fit_rate(eps, vals, [0.0] * 3)
        assert fit.slope == pytest.approx(1.5)
        assert fit.residual < 1e-12

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_rate([0.4, 0.2], [1.0, 0.5], [0.0, 0.0])

    def test_degenerate_values(self):
        with pytest.raises(ValueError):
            fit_rate([0.4, 0.2, 0.1], [1.0, 0.0, 0.5], [0.0] * 3)

    def test_decrease_checks(self):
        fit = fit_rate([0.4, 0.2, 0.1], [1.0, 0.6, 0.3], [0.01] * 3)
        assert fit.decreasing_pairwise()
        assert fit.decreasing_endpoints()
        fit2 = fit_rate([0.4, 0.2, 0.1], [1.0, 1.2, 0.9], [0.01] * 3)
        assert not fit2.decreasing_pairwise()


class TestSpecValidation:
    def test_schedule_must_decrease(self):
        with pytest.raises(ValueError):
            small_spec(eps_schedule=(0.1, 0.2))
        with pytest.raises(ValueError):
            small_spec(eps_schedule=())


class TestLinearConvergence:
    def test_deterministic_given_seed(self):
        a = exp_linear_convergence(small_spec())
        b = exp_linear_convergence(small_spec())
        assert a.values == b.values

    def test_thread_count_does_not_change_results(self):
        a = exp_linear_convergence(small_spec(threads=1))
        b = exp_linear_convergence(small_spec(threads=2))
        assert a.values == b.values

    def test_identical_dynamics_gives_zero_difference(self):
        # Galerkin f = 1 with the cutoff covering the whole lattice: the
        # approximate and continuum levels coincide mode by mode
        scheme = SchemeSpec(
            f_kind="galerkin", L0=60.0, Lbar0=25.0,
            h_kind_u="indicator", h_kind_b="indicator",
        )
        from spdelab.experiments import _linear_chunk

        vals = _linear_chunk((4, scheme.with_eps(0.25).finalize(), -0.55, 3, 0, 4))
        assert max(vals) < 1e-13


class TestSecondChaos:
    def test_runs_and_reports(self):
        res = exp_second_chaos(small_spec(samples=12))
        assert len(res.wick.values) == 3
        assert len(res.ablation.values) == 3
        assert res.wick_mean_zero_sigmas <= 4.0
        assert all(v > 0 for v in res.wick.values)

    def test_mean_zero_threshold_is_family_wise(self):
        # the statistic on exact Gaussian point values: per eps, 200 draws of
        # the 6-variate law of (u1(0), b1(0)) with covariance from C01/C02/C03
        worst = _mean_zero_null((1 / 4, 1 / 8, 1 / 16), np.random.default_rng(2718))
        null = np.concatenate([worst(2000) for _ in range(5)])
        assert abs(np.mean(null > 3.0) - 0.09) < 0.01  # the old threshold
        assert np.mean(null > WICK_MEAN_ZERO_THRESHOLD) <= 0.0027
        assert np.all(worst(2000, subtract=False) > WICK_MEAN_ZERO_THRESHOLD)

    def test_mean_zero_threshold_six_eps(self):
        # the same simulation over a 6-eps schedule, 54 t-statistics
        level = wick_mean_zero_threshold(6)
        assert wick_mean_zero_threshold(3) == WICK_MEAN_ZERO_THRESHOLD < level
        worst = _mean_zero_null(tuple(2.0**-j for j in range(1, 7)), np.random.default_rng(2719))
        null = np.concatenate([worst(2000) for _ in range(5)])
        assert np.mean(null > level) <= 0.0027
        assert np.all(worst(2000, subtract=False) > level)


def _mean_zero_null(eps_schedule, rng):
    """worst(reps, subtract): reps simulated values of the Wick mean-zero
    statistic over eps_schedule at N = 16, default scheme, from exact
    Gaussian point values; subtract=False leaves C03 out."""
    lat = ModeLattice(16)
    laws = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for eps in eps_schedule:
            s = SchemeSpec().with_eps(eps).finalize()
            c = {f: renorm.c0_matrix(f, s, lat).real for f in ("01", "02", "03")}
            cov = np.block([[c["01"], c["03"]], [c["03"].T, c["02"]]])
            w, v = np.linalg.eigh(cov)  # singular: u1 = b1 when h_u = h_b
            laws.append((v * np.sqrt(np.maximum(w, 0.0)), c["03"]))

    def worst(reps, subtract=True, n=200):
        out = np.zeros(reps)
        for root, c03 in laws:
            x = rng.standard_normal((reps, n, 6)) @ root.T
            p = x[:, :, :3, None] * x[:, :, None, 3:] - (c03 if subtract else 0.0)
            t = np.abs(p.mean(1)) / (p.std(1, ddof=1) / np.sqrt(n))
            out = np.maximum(out, t.reshape(reps, -1).max(1))
        return out

    return worst


def _second_chaos_args(N=4, eps=1 / 2):
    scheme = SchemeSpec().with_eps(eps).finalize()
    lattice = ModeLattice(N)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        c03 = renorm.c0_matrix("03", scheme, lattice).real
        c03_bar = renorm.c0_matrix("03", scheme, lattice, bar=True).real
    return scheme, lattice, c03, c03 - c03_bar


class TestSharedBlockPass:
    """The one-pass evaluations against the transforms they replace."""

    @pytest.mark.parametrize("alpha", [-1.05, -0.55])
    def test_holder_norm_batch_matches_per_field(self, alpha):
        lat = ModeLattice(4)
        rng = np.random.default_rng(17)
        fields = [random_scalar_field(lat, rng, decay=d) for d in (0.0, 1.0, 2.5, -0.5)]
        got = holder_norm_batch(lat, np.stack([f.coeff for f in fields]), alpha)
        ref = np.array([holder_norm(f, alpha) for f in fields])
        assert np.max(np.abs(got - ref) / ref) < 1e-12

    def test_shifted_norms_match_zero_mode_subtraction(self):
        lat = ModeLattice(4)
        rng = np.random.default_rng(3)
        fields = [random_scalar_field(lat, rng, decay=1.5) for _ in range(3)]
        coeffs = np.stack([f.coeff for f in fields])
        shift = np.array([0.7, -2.0, 0.9])
        plain, shifted = holder_norm_batch(lat, coeffs, -1.05, shift)
        moved = coeffs.copy()
        moved[:, lat.N, lat.N, lat.N] -= shift * FOURIER_SCALE
        ref = [holder_norm(ScalarField(lat, c), -1.05) for c in (*coeffs, *moved)]
        assert np.max(np.abs(np.concatenate([plain, shifted]) - ref) / ref) < 1e-12
        assert np.min(np.abs(shifted - plain) / plain) > 1e-3

    def test_wick_and_plain_match_two_pass_reference(self):
        scheme, lat, _, c_diff = _second_chaos_args()
        # alpha = -3 weighs the chi block up, so the Wick shift moves the norm
        alpha, seed, samples = -3.0, 5, 4
        wick, plain = _second_chaos_chunk((lat.N, scheme, alpha, seed, c_diff, 0, samples))

        law = PairLaw.on_lattice(scheme, lat)
        hu = h_on_lattice(scheme, lat, "u")
        hb = h_on_lattice(scheme, lat, "b")
        part = lat.partition()
        ws = np.stack([part.weight(j) for j in range(-1, part.jmax + 1)])
        scale = 2.0 ** (np.arange(-1, part.jmax + 1) * alpha)

        def block_pass(D):
            grids = dft_inverse(lat, ws[None] * D[:, None])
            return float(np.max(np.max(np.abs(grids), axis=(-3, -2, -1)) * scale))

        ref_wick, ref_plain = [], []
        for idx in range(samples):
            ya, yc = law.draw(philox_rng(seed, idx))
            gu_a, gb_a = dft_inverse(lat, hu * ya).real, dft_inverse(lat, hb * ya).real
            gu_c, gb_c = dft_inverse(lat, hu * yc).real, dft_inverse(lat, hb * yc).real
            prods = [gu_a[i] * gb_a[j] - gu_c[i] * gb_c[j] for i, j in _PAIRS]
            D = dft_forward(lat, np.stack(prods))
            ref_plain.append(block_pass(D))
            for m, (i, j) in enumerate(_PAIRS):
                D[m, lat.N, lat.N, lat.N] -= c_diff[i, j] * FOURIER_SCALE
            ref_wick.append(block_pass(D))
        ref_wick, ref_plain = np.array(ref_wick), np.array(ref_plain)
        assert np.max(np.abs(np.array(wick) - ref_wick) / ref_wick) < 1e-12
        assert np.max(np.abs(np.array(plain) - ref_plain) / ref_plain) < 1e-12
        assert np.min(np.abs(ref_wick - ref_plain) / ref_plain) > 1e-3

    def test_mean_zero_statistic_matches_transform_path(self):
        scheme, lat, c03, _ = _second_chaos_args()
        spec = small_spec(N=lat.N, seed=13)
        got = _wick_mean_zero_check(spec, scheme, c03)

        law = PairLaw.on_lattice(scheme, lat)
        hu = h_on_lattice(scheme, lat, "u")
        hb = h_on_lattice(scheme, lat, "b")
        rng = philox_rng(spec.seed, 999_999)
        prods = np.zeros((200, 3, 3))
        for s in range(200):
            ya, _ = law.draw(rng)
            gu = dft_inverse(lat, hu * ya).real[:, 0, 0, 0]
            gb = dft_inverse(lat, hb * ya).real[:, 0, 0, 0]
            prods[s] = np.outer(gu, gb) - c03
        stderr = prods.std(axis=0, ddof=1) / np.sqrt(200)
        ref = float(np.max(np.abs(prods.mean(axis=0)) / stderr))
        assert abs(got - ref) / ref < 1e-12


class TestBurgers:
    def test_zero_initial_data(self, monkeypatch):
        import spdelab.experiments as ex

        monkeypatch.setattr(ex, "_burgers_u0", lambda x: np.zeros_like(x))
        u = _burgers_scheme_run(64, 0.05, 1.0, "one_sided")
        assert np.max(np.abs(u)) == 0.0

    def test_orders_and_monotone_errors(self):
        res = exp_burgers(Burgers1DSpec(eps_schedule=(1 / 16, 1 / 32, 1 / 64)))
        assert 0.8 <= res.fit.slope <= 1.3
        assert all(a > b for a, b in zip(res.fit.values, res.fit.values[1:]))
        res_c = exp_burgers(
            Burgers1DSpec(eps_schedule=(1 / 16, 1 / 32, 1 / 64), scheme="central")
        )
        assert 1.7 <= res_c.fit.slope <= 2.3

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            _burgers_scheme_run(32, 0.01, 1.0, "upwind7")


class TestConstantsTable:
    def test_rows_and_csv(self, tmp_path):
        scheme = SchemeSpec(a=1.0, b=0.0)
        rows = exp_constants_table((1.0,), scheme, t=0.5, lattice_N=3)
        # 8 families x (plain + tilde) x 27 entries
        assert len(rows) == 8 * 2 * 27
        k2_rows = [r for r in rows if r["family"] in ("C2,u", "tC2,b") and "limit_value" in r]
        assert k2_rows, "k = 2 rows carry the quadrature limit"
        bar_worst = max(r["bar_value"] for r in rows)
        assert bar_worst < 1e-12
        imag_worst = max(r["imag_residue"] for r in rows)
        assert imag_worst < 1e-10
        path = tmp_path / "c.csv"
        write_csv(rows, path)
        assert path.exists() and path.stat().st_size > 0


class TestSumBounds:
    def test_report(self):
        rep = exp_sum_bound()
        assert rep.passed()
        assert rep.ratios["(1, 0, 0)"] > 0

    def test_ratio_definition(self):
        # spot value against a direct tiny-box recomputation
        k = np.array([1.0, 0.0, 0.0])
        s_small = convolution_sum(k, 2.0, 2.0, 3)
        manual = 0.0
        for a1 in range(-3, 4):
            for a2 in range(-3, 4):
                for a3 in range(-3, 4):
                    k1 = np.array([a1, a2, a3], dtype=float)
                    k2 = k - k1
                    if np.all(k1 == 0) or np.all(k2 == 0):
                        continue
                    manual += 1.0 / (np.sum(k1**2) * np.sum(k2**2))
        assert s_small == pytest.approx(manual)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            convolution_sum(np.array([1.0, 0, 0]), 1.0, 2.0, 4)
        with pytest.raises(ValueError):
            convolution_sum(np.array([1.0, 0, 0]), 3.5, 2.0, 4)


def test_worker_count_capped_at_cpu_count(monkeypatch):
    import spdelab.experiments as ex

    seen = []

    class Recorder:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(ex, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(ex.os, "cpu_count", lambda: 2)
    chunks = ex._run_chunks(lambda c: c, ("x",), samples=10, threads=64)
    assert seen == [2]
    assert chunks == [("x", 0, 5), ("x", 5, 10)]
