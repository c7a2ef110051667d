"""Experiment drivers: determinism, fits, reports."""

import numpy as np
import pytest

from spdelab.experiments import (
    Burgers1DSpec,
    ExperimentSpec,
    SumBoundReport,
    _burgers_scheme_run,
    convolution_sum,
    exp_burgers,
    exp_constants_table,
    exp_linear_convergence,
    exp_second_chaos,
    exp_sum_bound,
    fit_rate,
    write_csv,
)
from spdelab.schemes import SchemeSpec


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
