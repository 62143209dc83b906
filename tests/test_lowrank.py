"""Low-rank factor value type: truncation, arithmetic, norms, moments.

Oracles: dense SVD truncation of the materialized matrix, dense sums and
Frobenius norms, and 2-D midpoint quadrature on the materialized grid for
the moment functionals both models read through ``lr_moments``.
"""

from dataclasses import replace

import numpy as np
import pytest

from kryrank import lowrank
from kryrank.errors import DimensionMismatch
from kryrank.heat import _mass_functional
from kryrank.lbfp import kinetic_moments, maxwellian_factors, velocity_grid
from kryrank.lowrank import (
    LowRankFactors,
    conservative_truncate,
    core_truncate,
    joint_basis,
    lr_add,
    lr_frobenius,
    lr_moments,
    spectral_scale,
    truncate,
)


def dense_truncation_oracle(mat, eps):
    """SVD of the full matrix, keep sigma > eps (at least one mode)."""
    u, sig, vt = np.linalg.svd(mat, full_matrices=False)
    keep = max(1, int((sig > eps).sum()))
    return (u[:, :keep] * sig[:keep]) @ vt[:keep]


def quadrature_moments_oracle(mat, grid1, grid2, dv):
    """Plain midpoint sums of (1, v1, v2, |v|^2/2) against the dense grid."""
    w = dv * dv
    v1 = grid1[:, None]
    v2 = grid2[None, :]
    n = w * mat.sum()
    g1 = w * (v1 * mat).sum()
    g2 = w * (v2 * mat).sum()
    e = 0.5 * w * ((v1**2 + v2**2) * mat).sum()
    return n, g1, g2, e


def lbfp_moments(f, grid, dv):
    """(n, gam1, gam2, energy) of F on a square velocity grid."""
    st = kinetic_moments(f, grid, dv)
    return st.n, st.gam1, st.gam2, st.energy


def random_factors(rng, n1, n2, r, orthonormal=True):
    u = np.linalg.qr(rng.standard_normal((n1, r)))[0]
    v = np.linalg.qr(rng.standard_normal((n2, r)))[0]
    s = rng.standard_normal((r, r))
    if not orthonormal:
        u = rng.standard_normal((n1, r))
        v = rng.standard_normal((n2, r))
    return LowRankFactors(u, s, v, orthonormal=orthonormal)


class TestLowRankFactors:
    def test_materialize_is_triple_product(self):
        rng = np.random.default_rng(1)
        f = random_factors(rng, 9, 7, 3)
        assert np.array_equal(f.materialize(), f.u @ f.s @ f.v.T)

    def test_orthonormal_flag_assertable(self):
        rng = np.random.default_rng(2)
        f = random_factors(rng, 30, 20, 4)
        assert np.abs(f.u.T @ f.u - np.eye(4)).max() <= 1e-10
        assert np.abs(f.v.T @ f.v - np.eye(4)).max() <= 1e-10

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            LowRankFactors(np.ones((4, 2)), np.ones((3, 3)), np.ones((4, 3)))


class TestTruncate:
    def test_above_threshold_reproduces_input(self):
        rng = np.random.default_rng(11)
        f = random_factors(rng, 20, 20, 5)
        out = truncate(f, 1e-15)
        err = np.abs(out.materialize() - f.materialize()).max()
        assert err <= 1e-12 * lr_frobenius(f)

    def test_tiny_second_mode_dropped(self):
        u = np.eye(6)[:, :2]
        v = np.eye(5)[:, :2]
        f = LowRankFactors(u, np.diag([1.0, 1e-12]), v, orthonormal=True)
        assert truncate(f, 1e-8).rank == 1

    def test_matches_dense_svd_oracle_mid_spectrum(self):
        rng = np.random.default_rng(12)
        for trial in range(8):
            u = np.linalg.qr(rng.standard_normal((30, 10)))[0]
            v = np.linalg.qr(rng.standard_normal((25, 10)))[0]
            sig = np.sort(rng.uniform(1e-6, 1.0, 10))[::-1]
            f = LowRankFactors(u, np.diag(sig), v, orthonormal=True)
            eps = float(np.sqrt(sig[4] * sig[5]))
            want = dense_truncation_oracle(f.materialize(), eps)
            got = truncate(f, eps)
            assert got.rank == 5, trial
            assert np.abs(got.materialize() - want).max() <= 1e-11

    def test_threshold_is_strict(self):
        u = np.eye(4)[:, :2]
        f = LowRankFactors(u, np.diag([1.0, 0.5]), u, orthonormal=True)
        assert truncate(f, 0.5).rank == 1
        assert truncate(f, 0.4999).rank == 2

    def test_rank_floor_keeps_top_mode(self):
        u = np.eye(4)[:, :2]
        f = LowRankFactors(u, np.diag([1e-3, 1e-5]), u, orthonormal=True)
        out = truncate(f, 1.0)
        assert out.rank == 1
        assert abs(lr_frobenius(out) - 1e-3) <= 1e-15

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        f = random_factors(rng, 16, 16, 6)
        once = truncate(f, 0.3)
        twice = truncate(once, 0.3)
        assert np.abs(once.materialize() - twice.materialize()).max() <= 1e-13

    def test_reorthonormalizes_general_input(self):
        rng = np.random.default_rng(14)
        f = random_factors(rng, 18, 12, 4, orthonormal=False)
        out = truncate(f, 1e-14)
        k = out.rank
        assert out.orthonormal
        assert np.abs(out.u.T @ out.u - np.eye(k)).max() <= 1e-12
        assert np.abs(out.materialize() - f.materialize()).max() <= 1e-12 * lr_frobenius(f)


class TestNormsAndSums:
    def test_frobenius_pythagoras(self):
        u = np.eye(5)[:, :2]
        f = LowRankFactors(u, np.diag([3.0, 4.0]), u, orthonormal=True)
        assert abs(lr_frobenius(f) - 5.0) <= 1e-14

    def test_frobenius_zero(self):
        u = np.eye(3)[:, :1]
        assert lr_frobenius(LowRankFactors(u, np.zeros((1, 1)), u, orthonormal=True)) == 0.0

    def test_frobenius_matches_dense(self):
        rng = np.random.default_rng(21)
        f = random_factors(rng, 14, 11, 3, orthonormal=False)
        want = np.linalg.norm(f.materialize())
        assert abs(lr_frobenius(f) - want) <= 1e-12 * want

    def test_spectral_scale_is_top_singular_value(self):
        rng = np.random.default_rng(22)
        f = random_factors(rng, 20, 20, 4)
        want = np.linalg.svd(f.materialize(), compute_uv=False)[0]
        assert abs(spectral_scale(f) - want) <= 1e-12 * want

    def test_add_cancellation(self):
        rng = np.random.default_rng(23)
        f = random_factors(rng, 12, 12, 3)
        out = lr_add(f, replace(f, s=-f.s))
        cleaned = truncate(out, 1e-12 * lr_frobenius(f))
        assert lr_frobenius(cleaned) <= 1e-10 * lr_frobenius(f)

    def test_add_orthogonal_rank_ones(self):
        e = np.eye(6)
        f = LowRankFactors(e[:, :1], np.array([[2.0]]), e[:, :1], orthonormal=True)
        g = LowRankFactors(e[:, 1:2], np.array([[3.0]]), e[:, 1:2], orthonormal=True)
        out = truncate(lr_add(f, g), 0.0)
        sig = np.linalg.svd(out.s, compute_uv=False)
        assert np.abs(np.sort(sig) - np.array([2.0, 3.0])).max() <= 1e-14

    def test_add_matches_dense_oracle(self):
        rng = np.random.default_rng(24)
        f = random_factors(rng, 10, 13, 2, orthonormal=False)
        g = random_factors(rng, 10, 13, 3, orthonormal=False)
        out = lr_add(replace(f, s=0.7 * f.s), replace(g, s=-1.3 * g.s))
        want = 0.7 * f.materialize() - 1.3 * g.materialize()
        assert np.abs(out.materialize() - want).max() <= 1e-12 * np.abs(want).max()

    def test_add_dimension_mismatch(self):
        rng = np.random.default_rng(25)
        with pytest.raises(DimensionMismatch):
            lr_add(random_factors(rng, 8, 8, 2), random_factors(rng, 9, 8, 2))


class TestMoments:
    def test_unit_maxwellian_moments(self):
        grid, dv = velocity_grid(256, 10.0)
        f = maxwellian_factors(grid, 1.0, (0.0, 0.0), 1.0)
        n, g1, g2, e = lbfp_moments(f, grid, dv)
        assert abs(n - 1.0) <= 1e-8
        assert abs(g1) <= 1e-12 and abs(g2) <= 1e-12
        assert abs(e - 1.0) <= 1e-6

    def test_zero_factors(self):
        grid, dv = velocity_grid(32, 5.0)
        u = np.zeros((32, 1))
        f = LowRankFactors(u, np.zeros((1, 1)), u)
        assert lbfp_moments(f, grid, dv) == (0.0, 0.0, 0.0, 0.0)

    def test_shifted_maxwellian_flux(self):
        grid, dv = velocity_grid(256, 12.0)
        f = maxwellian_factors(grid, 1.0, (2.0, 0.0), 1.0)
        n, g1, _g2, _e = lbfp_moments(f, grid, dv)
        assert abs(g1 - 2.0 * n) <= 1e-8

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(31)
        grid, dv = velocity_grid(40, 6.0)
        for _ in range(8):
            f = random_factors(rng, 40, 40, 3, orthonormal=False)
            want = quadrature_moments_oracle(f.materialize(), grid, grid, dv)
            got = lbfp_moments(f, grid, dv)
            for a, b in zip(got, want):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_linearity_randomized(self):
        rng = np.random.default_rng(32)
        grid, dv = velocity_grid(24, 4.0)
        for trial in range(64):
            f = random_factors(rng, 24, 24, 2, orthonormal=False)
            g = random_factors(rng, 24, 24, 2, orthonormal=False)
            mf = lbfp_moments(f, grid, dv)
            mg = lbfp_moments(g, grid, dv)
            ms = lbfp_moments(lr_add(f, g), grid, dv)
            for a, b, c in zip(ms, mf, mg):
                assert abs(a - (b + c)) <= 1e-12 * max(1.0, abs(b) + abs(c)), trial

    @pytest.mark.parametrize("shape", [(16, 16), (24, 9), (7, 30)])
    def test_heat_mass_functional_matches_dense_sum(self, shape):
        rng = np.random.default_rng(33)
        n1, n2 = shape
        dx, dy = 1.0 / n1, 1.0 / n2
        for orthonormal in (True, False):
            f = random_factors(rng, n1, n2, 3, orthonormal=orthonormal)
            (got,) = lr_moments(f, *_mass_functional(f.shape, dx, dy))
            want = dx * dy * f.materialize().sum()
            assert abs(got - want) <= 1e-13 * max(1.0, dx * dy * np.abs(f.materialize()).sum())

    def test_general_modes_match_dense_contraction(self):
        rng = np.random.default_rng(34)
        f = random_factors(rng, 20, 14, 4, orthonormal=False)
        rows_u = rng.standard_normal((3, 20))
        rows_v = rng.standard_normal((2, 14))
        modes = rng.standard_normal((5, 3, 2))
        proj = rows_u @ f.materialize() @ rows_v.T
        want = [(e * proj).sum() for e in modes]
        got = lr_moments(f, rows_u, rows_v, modes)
        assert got.shape == (5,)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(proj).sum()

    def test_rows_must_match_factors(self):
        rng = np.random.default_rng(35)
        f = random_factors(rng, 12, 10, 2)
        ones = np.ones((1, 1, 1))
        for rows_u, rows_v in (
            (np.ones((1, 10)), np.ones((1, 10))),
            (np.ones((1, 12)), np.ones((1, 12))),
            (np.ones(12), np.ones((1, 10))),
        ):
            with pytest.raises(DimensionMismatch):
                lr_moments(f, rows_u, rows_v, ones)


class TestJointBasis:
    def test_joint_basis_spans_state_and_extras(self):
        rng = np.random.default_rng(41)
        f = random_factors(rng, 30, 26, 4)
        eu = rng.standard_normal((30, 2))
        ev = rng.standard_normal((26, 2))
        qu, qv, core_f, cu, cv = joint_basis(f, eu, ev)
        ku = qu.shape[1]
        assert np.abs(qu.T @ qu - np.eye(ku)).max() <= 1e-12
        assert np.abs(qu @ core_f @ qv.T - f.materialize()).max() <= 1e-12
        # extras are reproduced inside the joint span via their coefficients
        assert np.abs(qu @ cu - eu).max() <= 1e-11 * np.abs(eu).max()
        assert np.abs(qv @ cv - ev).max() <= 1e-11 * np.abs(ev).max()

    def test_joint_basis_nonsquare_core(self):
        # asymmetric factor widths (deflation can shrink one side only)
        rng = np.random.default_rng(42)
        u = np.linalg.qr(rng.standard_normal((20, 5)))[0]
        v = np.linalg.qr(rng.standard_normal((18, 3)))[0]
        f = LowRankFactors(u, rng.standard_normal((5, 3)), v, orthonormal=True)
        qu, qv, core_f, _cu, _cv = joint_basis(
            f, rng.standard_normal((20, 1)), rng.standard_normal((18, 1))
        )
        assert np.abs(qu @ core_f @ qv.T - f.materialize()).max() <= 1e-12

    def test_core_truncate_matches_svd_rule(self):
        rng = np.random.default_rng(43)
        core = rng.standard_normal((7, 7))
        sig = np.linalg.svd(core, compute_uv=False)
        eps = float(np.sqrt(sig[2] * sig[3]))
        out, w1, kept, w2 = core_truncate(core, eps)
        assert kept.size == 3
        want = dense_truncation_oracle(core, eps)
        assert np.abs(out - want).max() <= 1e-12
        assert np.abs((w1 * kept) @ w2.T - out).max() <= 1e-13

    def test_core_truncate_rank_floor(self):
        core = np.diag([1e-8, 1e-9])
        _out, _w1, kept, _w2 = core_truncate(core, 1.0)
        assert kept.size == 1


class TestJointBasisStacking:
    """The column-major stacking of [f.u | extra] is a pure copy: the range
    block's layout changes no bit of the joint basis or of LoMaC's result."""

    def setup_method(self):
        rng = np.random.default_rng(44)
        n = 2000
        self.grid, self.dv = velocity_grid(n, 10.0)
        u = np.linalg.qr(rng.standard_normal((n, 8)))[0]
        v = np.linalg.qr(rng.standard_normal((n, 8)))[0]
        self.f = LowRankFactors(u, np.diag(0.5 ** np.arange(8)), v, orthonormal=True)
        w = np.exp(-(self.grid**2) / 2.0)
        # (3, n) rows, so .T is the transposed view lbfp.lomac_project passes
        self.rows = np.stack([w, self.grid * w, self.grid**2 * w])

    def layouts(self):
        return {
            "row-major": np.ascontiguousarray(self.rows.T),
            "column-major": np.asfortranarray(self.rows.T),
            "transposed view": self.rows.T,
        }

    def test_joint_basis_layouts_and_hstack_reference(self, monkeypatch):
        outs = {name: joint_basis(self.f, e, e) for name, e in self.layouts().items()}
        monkeypatch.setattr(lowrank, "_column_major_stack", lambda a, b: np.hstack([a, b]))
        want = joint_basis(self.f, self.rows.T, self.rows.T)
        for name, got in outs.items():
            for a, b in zip(got, want):
                assert np.array_equal(a, b), name

    def test_conservative_truncate_layouts_and_hstack_reference(self, monkeypatch):
        moment_rows = np.stack([np.ones_like(self.grid), self.grid, self.grid**2]) * self.dv
        modes = np.zeros((4, 3, 3))
        modes[0, 0, 0] = modes[1, 1, 0] = modes[2, 0, 1] = 1.0
        modes[3, 2, 0] = modes[3, 0, 2] = 1.0

        def run(extra):
            f = self.f
            target = np.einsum(
                "jab,ab->j", modes, moment_rows @ f.u @ f.s @ (moment_rows @ f.v).T
            ) * (1.0 + 1e-3)
            return conservative_truncate(
                f, extra, extra, moment_rows, moment_rows, modes, target, 1e-3
            )

        outs = {name: run(extra) for name, extra in self.layouts().items()}
        monkeypatch.setattr(lowrank, "_column_major_stack", lambda a, b: np.hstack([a, b]))
        want = run(self.rows.T)
        for name, got in outs.items():
            for a, b in ((got.u, want.u), (got.s, want.s), (got.v, want.v)):
                assert np.array_equal(a, b), name


class TestConservativeTruncateLayouts:
    """LoMaC at lbfp's shape (rank 8, the three Maxwellian-weighted range
    columns, the four moments of ``lbfp.lomac_project``) for state factors and
    range blocks in every layout: the result is column-major, orthonormal and
    pinned whatever layout comes in."""

    def setup_method(self):
        rng = np.random.default_rng(45)
        n = 2000
        self.grid, self.dv = velocity_grid(n, 10.0)
        self.u = np.linalg.qr(rng.standard_normal((n, 8)))[0]
        self.v = np.linalg.qr(rng.standard_normal((n, 8)))[0]
        self.s = np.diag(0.5 ** np.arange(8)) + 1e-3 * rng.standard_normal((8, 8))
        w = np.exp(-(self.grid**2) / 2.0)
        self.range_ = np.column_stack([w, self.grid * w, self.grid**2 * w])
        self.rows = np.stack([np.ones_like(self.grid), self.grid, self.grid**2]) * self.dv
        self.modes = np.zeros((4, 3, 3))
        self.modes[0, 0, 0] = self.modes[1, 1, 0] = self.modes[2, 0, 1] = 1.0
        self.modes[3, 2, 0] = self.modes[3, 0, 2] = 1.0
        self.rng = rng

    @staticmethod
    def layouts(a):
        return {
            "row-major": np.ascontiguousarray(a),
            "column-major": np.asfortranarray(a),
            "transposed view": np.ascontiguousarray(a.T).T,
        }

    def moments(self, u, s, v):
        return np.einsum("jab,ab->j", self.modes, (self.rows @ u) @ s @ (self.rows @ v).T)

    def check(self, f, range_u, range_v, eps):
        target = self.moments(f.u, f.s, f.v) * (1.0 + 1e-3 * self.rng.uniform(0.5, 1.0, 4))
        out = conservative_truncate(
            f, range_u, range_v, self.rows, self.rows, self.modes, target, eps
        )
        assert out.u.flags.f_contiguous and out.v.flags.f_contiguous
        got = self.moments(out.u, out.s, out.v)
        assert np.all(np.abs(got - target) <= 1e-12 * np.abs(target)), got - target
        for q in (out.u, out.v):
            assert np.abs(q.T @ q - np.eye(out.rank)).max() <= 1e-13
        return out

    def test_column_major_pinned_orthonormal_in_every_layout(self):
        us, vs = self.layouts(self.u), self.layouts(self.v)
        for name in us:
            f = LowRankFactors(us[name], self.s, vs[name], orthonormal=True)
            for range_ in self.layouts(self.range_).values():
                out = self.check(f, range_, range_, 1e-3)
                assert out.rank <= f.rank + 3, name

    def test_range_column_inside_state_span(self):
        # the joint basis drops the dependent range column, and the pin still
        # holds through its coordinates in the state's columns
        range_u = self.range_.copy()
        range_u[:, 1] = self.u @ self.rng.standard_normal(8)
        us, vs = self.layouts(self.u), self.layouts(self.v)
        for name in us:
            f = LowRankFactors(us[name], self.s, vs[name], orthonormal=True)
            qu, _, _, _, _ = joint_basis(f, range_u, self.range_)
            assert qu.shape[1] == f.rank + 2
            for eps in (0.0, 1e-3):
                out = self.check(f, range_u, self.range_, eps)
                assert out.rank <= f.rank + 3


class TestConservativeTruncate:
    """Two random separable functionals, a mode set neither model uses."""

    def setup_method(self):
        rng = np.random.default_rng(51)
        n1, n2 = 40, 30
        self.f = random_factors(rng, n1, n2, 6)
        # a rank-6 state with a decaying spectrum, so truncation bites
        self.f = LowRankFactors(
            self.f.u, np.diag(0.5 ** np.arange(6)), self.f.v, orthonormal=True
        )
        self.range_u = rng.standard_normal((n1, 2))
        self.range_v = rng.standard_normal((n2, 2))
        self.rows_u = rng.standard_normal((2, n1))
        self.rows_v = rng.standard_normal((2, n2))
        self.modes = np.stack(
            [np.outer(rng.standard_normal(2), rng.standard_normal(2)) for _ in range(2)]
        )
        self.rng = rng

    def dense_moments(self, mat):
        m = self.rows_u @ mat @ self.rows_v.T
        return np.array([np.sum(e * m) for e in self.modes])

    def run(self, target, eps):
        return conservative_truncate(
            self.f, self.range_u, self.range_v, self.rows_u, self.rows_v,
            self.modes, target, eps,
        )

    def test_pins_targets_with_orthonormal_factors(self):
        base = self.dense_moments(self.f.materialize())
        target = base * (1.0 + 0.1 * self.rng.standard_normal(2))
        out = self.run(target, 0.05)
        got = self.dense_moments(out.materialize())
        assert np.abs(got - target).max() <= 1e-12 * np.abs(target).max()
        assert np.abs(out.u.T @ out.u - np.eye(out.rank)).max() <= 1e-12
        assert np.abs(out.v.T @ out.v - np.eye(out.rank)).max() <= 1e-12
        assert out.rank <= self.f.rank + self.range_u.shape[1]
        # the modes below eps went: the result is no longer the input
        assert np.abs(out.materialize() - self.f.materialize()).max() > 1e-3

    def test_no_truncation_and_exact_targets_reproduce_input(self):
        mat = self.f.materialize()
        out = self.run(self.dense_moments(mat), 0.0)
        assert np.abs(out.materialize() - mat).max() <= 1e-12
