"""Periodic heat test problem: circulant operators, rank-2 Gaussian data,
constant-mode conservative correction.

Oracles: the circulant eigenvalue identity for trig modes, Taylor remainder
bounds, dense quadrature for masses, and dense SVD truncation for the
correction's complement.
"""

import math

import numpy as np
import pytest

from kryrank.dirk import dirk_step, get_table
from kryrank.errors import DimensionMismatch, NonPositiveDiffusion
from kryrank.heat import (
    build_heat_operator,
    discrete_mass,
    heat_grid,
    heat_initial_condition,
    lomac_null_correction,
)
from kryrank.krylov import lte_tolerance
from kryrank.lowrank import LowRankFactors, lr_frobenius, spectral_scale, truncate


def gaussian_formula(x, y):
    """Direct evaluation of the two-hump initial condition."""
    g1 = 0.5 * np.exp(-400.0 * ((x[:, None] - 0.3) ** 2 + (y[None, :] - 0.35) ** 2))
    g2 = 0.8 * np.exp(-400.0 * ((x[:, None] - 0.65) ** 2 + (y[None, :] - 0.5) ** 2))
    return g1 + g2


def random_orthonormal_factors(rng, n, r):
    u = np.linalg.qr(rng.standard_normal((n, r)))[0]
    v = np.linalg.qr(rng.standard_normal((n, r)))[0]
    return LowRankFactors(u, rng.standard_normal((r, r)), v, orthonormal=True)


class TestHeatOperator:
    def test_constant_null_vector(self):
        d = build_heat_operator(64, 0.5, 1.0 / 64)
        out = d.apply(np.ones((64, 1)))
        assert np.abs(out).max() <= 1e-14 * np.abs(d.dense()).max()

    def test_row_sums_zero(self):
        d = build_heat_operator(33, 0.7, 1.0 / 33)
        dm = d.dense()
        assert np.abs(dm.sum(axis=1)).max() <= 1e-11 * np.abs(dm).max()
        assert np.abs(dm.sum(axis=0)).max() <= 1e-11 * np.abs(dm).max()

    def test_symmetric_negative_semidefinite(self):
        d = build_heat_operator(48, 0.5, 1.0 / 48).dense()
        assert np.abs(d - d.T).max() <= 1e-12 * np.abs(d).max()
        eigs = np.linalg.eigvalsh(d)
        assert eigs.max() <= 1e-10 * np.abs(d).max()

    def test_sine_mode_taylor_bound(self):
        n = 256
        dx = 1.0 / n
        dcoef = 0.5
        d = build_heat_operator(n, dcoef, dx)
        x, _dx = heat_grid(n)
        mode = np.sin(2.0 * np.pi * x)
        got = d.apply(mode[:, None])[:, 0]
        want = -dcoef * (2.0 * np.pi) ** 2 * mode
        bound = 5.0 * (2.0 * np.pi) ** 4 * dx * dx / 12.0
        assert np.abs(got - want).max() <= bound

    def test_trig_modes_hit_exact_circulant_eigenvalues(self):
        n = 40
        dx = 1.0 / n
        dcoef = 0.3
        d = build_heat_operator(n, dcoef, dx)
        x, _dx = heat_grid(n)
        for k in (1, 3, 7):
            lam = -dcoef * (2.0 - 2.0 * np.cos(2.0 * np.pi * k * dx)) / dx**2
            mode = np.cos(2.0 * np.pi * k * x)
            got = d.apply(mode[:, None])[:, 0]
            assert np.abs(got - lam * mode).max() <= 1e-10 * abs(lam)

    @pytest.mark.parametrize("dcoef", [0.0, -0.0, -0.5, float("nan")])
    def test_non_positive_diffusivity_rejected(self, dcoef):
        # d = 0 would build the zero generator, which the circulant solve rejects as singular
        with pytest.raises(NonPositiveDiffusion, match="must be > 0"):
            build_heat_operator(16, dcoef, 1.0 / 16)

    def test_grid_nodes(self):
        x, dx = heat_grid(8)
        assert np.array_equal(x, np.arange(8) / 8.0)
        assert dx == 0.125


class TestInitialCondition:
    def test_rank_two(self):
        assert heat_initial_condition(50).rank == 2

    def test_point_value_at_first_center(self):
        f = heat_initial_condition(200)
        got = f.materialize()[60, 70]  # (x, y) = (0.3, 0.35)
        want = 0.5 + 0.8 * np.exp(-400.0 * (0.1225 + 0.0225))
        assert abs(got - want) <= 1e-14

    def test_matches_direct_formula(self):
        n = 73
        f = heat_initial_condition(n)
        x, _dx = heat_grid(n)
        want = gaussian_formula(x, x)
        assert np.abs(f.materialize() - want).max() <= 1e-14

    def test_rectangular_grids(self):
        f = heat_initial_condition(40, 56)
        want = gaussian_formula(heat_grid(40)[0], heat_grid(56)[0])
        assert f.shape == (40, 56)
        assert np.abs(f.materialize() - want).max() <= 1e-14


class TestMassAndCorrection:
    def test_discrete_mass_matches_dense_sum(self):
        rng = np.random.default_rng(1)
        f = random_orthonormal_factors(rng, 30, 3)
        dx, dy = 1.0 / 30, 1.0 / 30
        want = dx * dy * f.materialize().sum()
        assert abs(discrete_mass(f, dx, dy) - want) <= 1e-13 * max(1.0, abs(want))

    def test_mass_pinned_over_random_inputs(self):
        # enforced identity: output mass equals the requested value each time
        rng = np.random.default_rng(2)
        n = 24
        dx = 1.0 / n
        n_exact = 0.625
        for trial in range(100):
            f = random_orthonormal_factors(rng, n, 3)
            out = lomac_null_correction(f, n_exact, dx, dx, 1e-10 * spectral_scale(f))
            got = discrete_mass(out, dx, dx)
            assert abs(got - n_exact) <= 1e-13 * n_exact, trial
            k = out.rank
            assert np.abs(out.u.T @ out.u - np.eye(k)).max() <= 1e-12

    def test_constant_input_collapses_to_normalized_constant(self):
        n = 16
        dx = 1.0 / n
        ones = np.ones((n, 1)) / np.sqrt(n)
        f = LowRankFactors(ones, np.array([[3.0 * n]]), ones, orthonormal=True)
        out = lomac_null_correction(f, 2.0, dx, dx, 1e-12)
        mat = out.materialize()
        assert abs(discrete_mass(out, dx, dx) - 2.0) <= 1e-13
        assert np.abs(mat - mat[0, 0]).max() <= 1e-12 * abs(mat[0, 0])

    def test_mass_preserving_input_stays_near_cleaned_input(self):
        rng = np.random.default_rng(3)
        n = 32
        dx = 1.0 / n
        f = random_orthonormal_factors(rng, n, 4)
        n_exact = discrete_mass(f, dx, dx)
        eps = 1e-8 * spectral_scale(f)
        out = lomac_null_correction(f, n_exact, dx, dx, eps)
        gap = np.abs(out.materialize() - truncate(f, eps).materialize()).max()
        assert gap <= 4.0 * eps

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1.0])
    def test_threshold_outside_zero_to_inf_rejected(self, eps):
        n = 16
        f = random_orthonormal_factors(np.random.default_rng(6), n, 3)
        with pytest.raises(DimensionMismatch, match="threshold"):
            lomac_null_correction(f, 1.0, 1.0 / n, 1.0 / n, eps)

    def test_complement_has_zero_mass(self):
        rng = np.random.default_rng(4)
        n = 20
        dx = 1.0 / n
        f = random_orthonormal_factors(rng, n, 3)
        mean = discrete_mass(f, dx, dx) / (n * n * dx * dx)
        complement = f.materialize() - mean
        assert abs(complement.sum() * dx * dx) <= 1e-12 * lr_frobenius(f)

    def test_output_rank_bound(self):
        rng = np.random.default_rng(5)
        n = 28
        dx = 1.0 / n
        f = random_orthonormal_factors(rng, n, 5)
        eps = 0.5 * spectral_scale(f)
        out = lomac_null_correction(f, 1.0, dx, dx, eps)
        mean = discrete_mass(f, dx, dx) / (n * n * dx * dx)
        f2 = f.materialize() - mean
        sig = np.linalg.svd(f2, compute_uv=False)
        kept = max(1, int((sig > eps).sum()))
        assert out.rank <= kept + 1


class TestSemiDiscreteInvariants:
    def test_generator_conserves_mass(self):
        rng = np.random.default_rng(11)
        n = 36
        d = build_heat_operator(n, 0.5, 1.0 / n)
        for _ in range(8):
            f = random_orthonormal_factors(rng, n, 3)
            fm = f.materialize()
            rate = d.dense() @ fm + fm @ d.dense().T
            assert abs(rate.sum()) <= 1e-12 * lr_frobenius(f) * n * n

    def test_backward_euler_minimum_principle(self):
        n = 128
        dx = 1.0 / n
        d = build_heat_operator(n, 0.5, dx)
        f = heat_initial_condition(n)
        floor = f.materialize().min()
        table = get_table("be")
        dt = 400.0 * dx * dx
        tol = lte_tolerance(1.0, dt, 1)
        post = lambda g: truncate(g, 1e-10 * spectral_scale(g))
        for _ in range(10):
            f, _diag = dirk_step(f, table, dt, (d, d), tol, post_process=post)
        assert f.materialize().min() >= floor - 1e-8

    def test_lomac_run_decays_to_initial_mean(self):
        n = 64
        dx = 1.0 / n
        d = build_heat_operator(n, 0.5, dx)
        f = heat_initial_condition(n)
        n_exact = discrete_mass(f, dx, dx)
        mean = n_exact / (n * n * dx * dx)
        table = get_table("be")
        dt = 400.0 * dx * dx
        tol = lte_tolerance(1.0, dt, 1)

        def post(g):
            return lomac_null_correction(g, n_exact, dx, dx, 1e-10 * spectral_scale(g))

        errs = []
        for step in range(24):
            f, _diag = dirk_step(f, table, dt, (d, d), tol, post_process=post)
            errs.append(np.abs(f.materialize() - mean).sum() * dx * dx)
        # transient decays monotonically and lands at the truncation floor
        assert errs[-1] <= 1e-8
        tail = errs[4:]
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(tail, tail[1:]))
        assert abs(discrete_mass(f, dx, dx) - n_exact) <= 1e-13 * n_exact
