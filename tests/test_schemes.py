"""Approximation operators: scheme functions, multipliers, Leray projection."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdelab.constants import c0_matrix
from spdelab.schemes import (
    SchemeSpec,
    apply_dj,
    apply_dj_eps,
    apply_h_eps,
    apply_laplacian_eps,
    dealias_mask,
    difference_quotient_grid,
    eval_f,
    eval_f_tilde,
    eval_g,
    eval_h,
    grid_step,
    leray_project,
    scheme_from_config,
    semigroup,
    semigroup_eps,
)
from spdelab.torus import ModeLattice, ScalarField, random_scalar_field, random_vector_field


@pytest.fixture(scope="module")
def fd_scheme():
    return SchemeSpec(eps=0.25).finalize()


class TestSchemeFunctions:
    def test_f_limit_at_origin(self, fd_scheme):
        assert eval_f_tilde(fd_scheme, np.zeros(3)) == 1.0
        small = eval_f_tilde(fd_scheme, np.array([1e-6, -2e-6, 1e-6]))
        assert abs(small - 1.0) < 1e-10

    def test_galerkin_is_one(self):
        spec = SchemeSpec(f_kind="galerkin").finalize()
        pts = np.random.default_rng(0).uniform(-5, 5, (50, 3))
        assert np.all(eval_f_tilde(spec, pts) == 1.0)
        assert spec.c_f == 1.0

    def test_fd_hand_value(self, fd_scheme):
        got = eval_f_tilde(fd_scheme, np.array([np.pi, 0.0, 0.0]))
        assert abs(got - 4.0 / np.pi**2) < 1e-14

    def test_f_infinite_outside_box(self, fd_scheme):
        assert np.isinf(eval_f(fd_scheme, np.array([fd_scheme.L0 + 0.1, 0, 0])))
        assert np.isfinite(eval_f(fd_scheme, np.array([fd_scheme.L0 - 0.1, 0, 0])))

    def test_f_lower_bound_on_box(self, fd_scheme):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-fd_scheme.L0, fd_scheme.L0, (2000, 3))
        vals = eval_f_tilde(fd_scheme, pts)
        assert np.all(vals >= fd_scheme.c_f * (1 - 1e-9))

    def test_g_removable_singularity(self, fd_scheme):
        assert eval_g(fd_scheme, 0.0) == 1j

    def test_g_symmetric_zero_at_pi(self):
        spec = SchemeSpec(a=1.0, b=1.0)
        assert abs(eval_g(spec, np.pi)) < 1e-15

    @given(st.floats(-100.0, 100.0))
    @example(5e-324)
    @example(2.2e-311)
    @settings(max_examples=200, deadline=None)
    def test_g_bounded_symmetric(self, x):
        spec = SchemeSpec(a=1.0, b=1.0)
        assert abs(eval_g(spec, x)) <= 1.0 + 1e-12

    def test_g_continuity_near_zero(self):
        spec = SchemeSpec(a=2.0, b=0.5)
        xs = np.array([1e-8, -1e-8, 1e-6])
        assert np.max(np.abs(eval_g(spec, xs) - 1j)) < 1e-5

    @pytest.mark.parametrize("ab", [(2.0, 0.5), (1.0, 0.0)])
    def test_g_asymmetric_edges(self, ab):
        spec = SchemeSpec(a=ab[0], b=ab[1])
        big = np.finfo(np.float64).max
        xs = np.array([5e-324, 2.2e-311, 1e-300, 1e-8, 0.3, 7.0, 1e6, 1e300, big])
        xs = np.concatenate([xs, -xs])
        with np.errstate(all="raise"):
            g = eval_g(spec, xs)
        assert np.all(np.isfinite(g))
        assert np.all(np.abs(g) <= 1.0)
        # first-order Taylor term i - (a-b)x/2; the quotient form is off by ~1e-9 here
        for x in (1e-8, -1e-8):
            taylor = 1j - (spec.a - spec.b) * x / 2
            assert abs(eval_g(spec, x) - taylor) < 1e-15

    def test_h_basics(self, fd_scheme):
        assert eval_h(fd_scheme, "u", np.zeros(3)) == 1.0
        edge = np.array([fd_scheme.L0 / 2 + 0.01, 0, 0])
        assert eval_h(fd_scheme, "u", edge) == 0.0

    def test_h_indicator(self):
        spec = SchemeSpec(h_kind_u="indicator", h_kind_b="indicator")
        inside = np.array([1.0, 1.0, 1.0])
        assert eval_h(spec, "b", inside) == 1.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SchemeSpec(a=0.0, b=0.0)
        with pytest.raises(ValueError):
            SchemeSpec(L0=-1.0)
        with pytest.raises(ValueError):
            SchemeSpec(Lbar0=5.0, L0=6.0)
        with pytest.raises(ValueError):
            SchemeSpec(f_kind="nope")
        with pytest.raises(ValueError):
            SchemeSpec(a=np.inf)
        with pytest.raises(ValueError):
            SchemeSpec(b=np.nan)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                SchemeSpec(eps=bad)
            with pytest.raises(ValueError):
                SchemeSpec(L0=bad)


def _grid_min_f(spec, samples=121):
    """The former numerical c_f: min of f~ on a samples^3 grid of the box."""
    ax = np.linspace(-spec.L0, spec.L0, samples)
    return float(np.min(eval_f_tilde(spec, np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), -1))))


class TestLowerBound:
    @pytest.mark.parametrize(
        "L0, Lbar0", [(1.0, 0.4), (3.0, 1.0), (5.0, 2.0), (6.0, 2.0), (6.2, 2.0)]
    )
    def test_fd_closed_form_matches_grid(self, L0, Lbar0):
        spec = SchemeSpec(L0=L0, Lbar0=Lbar0)
        assert spec.c_f == _grid_min_f(spec)
        assert spec.c_f == eval_f_tilde(spec, np.array([L0, 0.0, 0.0]))

    def test_galerkin_matches_grid(self):
        spec = SchemeSpec(f_kind="galerkin")
        assert spec.c_f == _grid_min_f(spec) == 1.0

    def test_table_interior_minimum(self):
        # a knot at radius 2.05 holds the minimum; the grid misses that radius
        spec = SchemeSpec(f_kind="table", f_table=((0.0, 2.05, 4.0), (1.0, 0.3, 2.0)))
        assert spec.c_f == eval_f_tilde(spec, np.array([2.05, 0.0, 0.0])) == 0.3
        assert spec.c_f <= _grid_min_f(spec)

    @pytest.mark.parametrize("kw", [
        {"L0": 2 * np.pi, "Lbar0": 2.0},
        {"L0": 7.0, "Lbar0": 2.0},
        {"f_kind": "table", "f_table": ((0.0, 1.0, 2.0), (1.0, 0.0, 1.0))},
    ])
    def test_nonpositive_bound_rejected(self, kw):
        with pytest.raises(ValueError, match="c_f"):
            SchemeSpec(**kw)

    def test_table_kind_needs_its_table(self):
        with pytest.raises(ValueError, match="f_table"):
            SchemeSpec(f_kind="table")

    def test_frozen_and_derived(self, fd_scheme):
        with pytest.raises(dataclasses.FrozenInstanceError):
            fd_scheme.eps = 0.5
        with pytest.raises(TypeError):
            SchemeSpec(c_f=1.0)
        assert fd_scheme.with_eps(0.5).c_f == fd_scheme.c_f

    def test_list_tables_stored_as_tuples(self):
        kw = dict(f_kind="table", h_kind_u="table", eps=1.0)
        f_rows, h_rows = [[0.0, 10.0], [1.0, 1.0]], [[0.0, 3.0], [1.0, 0.0]]
        listed = SchemeSpec(f_table=f_rows, h_table_u=h_rows, **kw)
        f_tuples, h_tuples = ((0.0, 10.0), (1.0, 1.0)), ((0.0, 3.0), (1.0, 0.0))
        tupled = SchemeSpec(f_table=f_tuples, h_table_u=h_tuples, **kw)
        assert listed == tupled and hash(listed) == hash(tupled)
        assert listed.f_table == f_tuples and listed.h_table_u == h_tuples
        lat = ModeLattice(3)
        for which in ("01", "02", "03"):
            assert np.array_equal(c0_matrix(which, listed, lat), c0_matrix(which, tupled, lat))


class TestMultipliers:
    def test_galerkin_semigroup_matches_exact(self):
        lat = ModeLattice(3)
        spec = SchemeSpec(f_kind="galerkin", eps=0.1).finalize()
        f = random_scalar_field(lat, np.random.default_rng(2))
        a = semigroup_eps(f, spec, 0.7)
        b = semigroup(f, 0.7)
        assert np.max(np.abs(a.coeff - b.coeff)) < 1e-14

    def test_single_mode_decay(self, fd_scheme):
        lat = ModeLattice(3)
        coeff = np.zeros(lat.shape, dtype=complex)
        coeff[lat.N + 2, lat.N + 1, lat.N] = 1.0
        f = ScalarField(lat, coeff)
        k = np.array([2.0, 1.0, 0.0])
        lam = float(np.sum(k**2)) * float(eval_f_tilde(fd_scheme, fd_scheme.eps * k))
        out = semigroup_eps(f, fd_scheme, 1.0)
        assert abs(out.coeff[lat.N + 2, lat.N + 1, lat.N] - np.exp(-lam)) < 1e-14

    def test_time_zero_identity(self, fd_scheme):
        lat = ModeLattice(2)
        f = random_scalar_field(lat, np.random.default_rng(3))
        assert np.array_equal(semigroup_eps(f, fd_scheme, 0.0).coeff, f.coeff)

    def test_negative_time_rejected(self, fd_scheme):
        lat = ModeLattice(2)
        f = random_scalar_field(lat, np.random.default_rng(3))
        with pytest.raises(ValueError):
            semigroup_eps(f, fd_scheme, -0.1)
        with pytest.raises(ValueError):
            semigroup(f, -0.1)

    def test_killed_modes(self):
        # eps large enough that the box cuts the lattice
        spec = SchemeSpec(eps=4.0).finalize()  # |eps k| > 6 for |k| >= 2
        lat = ModeLattice(3)
        f = random_scalar_field(lat, np.random.default_rng(4))
        out, killed = apply_laplacian_eps(f, spec)
        assert killed > 0
        sg = semigroup_eps(f, spec, 0.5)
        mask = ~np.isfinite(lat.ksq * eval_f(spec, spec.eps * np.moveaxis(lat.k_stack(), 0, -1)))
        assert np.max(np.abs(out.coeff[mask])) == 0.0
        assert np.max(np.abs(sg.coeff[mask])) == 0.0

    def test_dj_eps_limit_is_exact_derivative(self):
        lat = ModeLattice(3)
        f = random_scalar_field(lat, np.random.default_rng(5))
        exact = apply_dj(f, 2)
        gaps = []
        for eps in (1e-2, 1e-3, 1e-4):
            spec = SchemeSpec(eps=eps)
            gaps.append(np.max(np.abs(apply_dj_eps(f, spec, 2).coeff - exact.coeff)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-6 * np.max(np.abs(exact.coeff))

    def test_dj_zero_field(self, fd_scheme):
        lat = ModeLattice(2)
        z = ScalarField(lat, np.zeros(lat.shape, dtype=complex))
        assert np.max(np.abs(apply_dj_eps(z, fd_scheme, 1).coeff)) == 0.0

    def test_dj_out_of_range(self, fd_scheme):
        lat = ModeLattice(2)
        f = random_scalar_field(lat, np.random.default_rng(0))
        with pytest.raises(ValueError):
            apply_dj_eps(f, fd_scheme, 4)
        with pytest.raises(ValueError):
            apply_dj(f, 0)

    @pytest.mark.parametrize("ab,shifts", [((1.0, 1.0), (1, 1)), ((1.0, 0.0), (1, 0))])
    def test_difference_quotient_crosscheck(self, ab, shifts):
        lat = ModeLattice(4)
        spec = SchemeSpec(a=ab[0], b=ab[1], eps=grid_step(lat)).finalize()
        f = random_scalar_field(lat, np.random.default_rng(6))
        spectral = apply_dj_eps(f, spec, 1).to_grid()
        physical = difference_quotient_grid(f.to_grid(), spec, 1, shifts)
        assert np.max(np.abs(spectral - physical)) < 1e-10

    def test_h_eps_cutoff(self):
        spec = SchemeSpec(h_kind_u="indicator", h_kind_b="indicator", eps=1.0).finalize()
        lat = ModeLattice(4)
        f = random_scalar_field(lat, np.random.default_rng(7))
        out = apply_h_eps(f, spec, "u")
        r = np.sqrt(lat.ksq)
        inside = r <= spec.L0 / 2
        assert np.array_equal(out.coeff[inside], f.coeff[inside])
        assert np.max(np.abs(out.coeff[~inside])) == 0.0


class TestLeray:
    def test_kills_gradient(self):
        lat = ModeLattice(2)
        coeff = np.zeros((3,) + lat.shape, dtype=complex)
        coeff[0, lat.N + 1, lat.N, lat.N] = 1.0  # v parallel to k = (1,0,0)
        coeff[0, lat.N - 1, lat.N, lat.N] = 1.0
        from spdelab.torus import VectorField

        out = leray_project(VectorField(lat, coeff))
        assert np.max(np.abs(out.coeff)) < 1e-15

    def test_preserves_transverse(self):
        lat = ModeLattice(2)
        coeff = np.zeros((3,) + lat.shape, dtype=complex)
        coeff[1, lat.N + 1, lat.N, lat.N] = 1.0
        coeff[1, lat.N - 1, lat.N, lat.N] = 1.0
        from spdelab.torus import VectorField

        v = VectorField(lat, coeff)
        out = leray_project(v)
        assert np.max(np.abs(out.coeff - coeff)) < 1e-15

    def test_divergence_free_and_idempotent(self):
        lat = ModeLattice(4)
        v = random_vector_field(lat, np.random.default_rng(8))
        p = leray_project(v)
        assert p.divergence_defect() < 1e-14 * max(1.0, np.max(np.abs(p.coeff)))
        pp = leray_project(p)
        assert np.max(np.abs(pp.coeff - p.coeff)) < 1e-14

    def test_symbol_invariants(self):
        lat = ModeLattice(3)
        P = lat.leray_tensor()
        assert np.max(np.abs(P - np.swapaxes(P, 0, 1))) == 0.0
        PP = np.einsum("ij...,jk...->ik...", P, P)
        assert np.max(np.abs(PP - P)) < 1e-14
        Pk = np.einsum("ij...,j...->i...", P, lat.k_stack())
        assert np.max(np.abs(Pk)) < 1e-13

    def test_rejects_nonzero_mean(self):
        lat = ModeLattice(2)
        coeff = np.zeros((3,) + lat.shape, dtype=complex)
        coeff[0, lat.N, lat.N, lat.N] = 1.0
        from spdelab.torus import VectorField

        with pytest.raises(ValueError):
            leray_project(VectorField(lat, coeff))


class TestConsistencyRates:
    def test_semigroup_rate_in_eps(self):
        # smooth field: fitted log-log slope of the semigroup gap >= 0.8
        lat = ModeLattice(8)
        f = random_scalar_field(lat, np.random.default_rng(9), decay=4.0)
        gaps = []
        epss = (0.4, 0.2, 0.1)
        for eps in epss:
            spec = SchemeSpec(eps=eps).finalize()
            d = semigroup_eps(f, spec, 0.2).coeff - semigroup(f, 0.2).coeff
            gaps.append(np.sqrt(np.sum(np.abs(d) ** 2)))
        slope = np.polyfit(np.log(epss), np.log(gaps), 1)[0]
        assert slope >= 0.8

    def test_difference_operator_rate_in_eps(self):
        lat = ModeLattice(8)
        f = random_scalar_field(lat, np.random.default_rng(10), decay=4.0)
        exact = apply_dj(f, 1).coeff
        gaps = []
        epss = (0.4, 0.2, 0.1)
        for eps in epss:
            spec = SchemeSpec(a=1.0, b=0.0, eps=eps)
            gaps.append(np.sqrt(np.sum(np.abs(apply_dj_eps(f, spec, 1).coeff - exact) ** 2)))
        slope = np.polyfit(np.log(epss), np.log(gaps), 1)[0]
        assert slope >= 0.8


class TestConfig:
    def test_json_config(self, tmp_path):
        cfg = {
            "scheme": {
                "f_kind": "galerkin",
                "a": 1.0,
                "b": 0.5,
                "L0": 4.0,
                "Lbar0": 1.0,
                "h_kind": "indicator",
                "eps": 0.25,
            }
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        spec = scheme_from_config(json.loads(path.read_text()))
        assert spec.f_kind == "galerkin"
        assert spec.b == 0.5
        assert spec.h_kind_u == "indicator" and spec.h_kind_b == "indicator"
        assert spec.eps == 0.25

    def test_table_kind(self, tmp_path):
        table = tmp_path / "f.csv"
        table.write_text("0.0,1.0\n1.0,2.0\n3.0,4.0\n")
        cfg = {"scheme": {"f_kind": "table", "f_table": str(table), "eps": 0.5}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        spec = scheme_from_config(json.loads(path.read_text()))
        assert eval_f_tilde(spec, np.array([0.5, 0.0, 0.0])) == pytest.approx(1.5)

    def test_dealias_mask(self):
        lat = ModeLattice(3)
        m = dealias_mask(lat)
        assert m[lat.N, lat.N, lat.N]
        assert not m[lat.N + 3, lat.N, lat.N]
