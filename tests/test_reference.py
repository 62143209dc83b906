"""Dense validation pipelines: the exact heat propagator, full-rank stage
stepping, and L1 distances.

Oracles: exact circulant eigenvalue decay for trig modes, scipy's ``expm``
of the dense generators and the semigroup identity for the propagator, a
vectorized Kronecker linear solve replaying the stage recursion, and plain
dense arithmetic for distances and masses.
"""

import functools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from kryrank.dirk import get_table
from kryrank.errors import DimensionMismatch, SpectralOverlap
from kryrank.heat import build_heat_operator, heat_grid, heat_initial_condition
from kryrank.lbfp import (
    benchmark_species,
    build_lbfp_operators,
    collision_coefficients,
    initialize_system,
    lbfp_step,
    moment_step,
)
from kryrank.linalg import (
    TridiagonalOperator,
    eig_denominators,
    solve_sylvester_dense,
    sylvester_schur,
)
from kryrank.lowrank import LowRankFactors
from kryrank.reference import (
    circulant_eigenbasis,
    dense_dirk_step,
    dense_lbfp_step,
    heat_reference,
    l1_distance,
)


def circulant_eigenvalue(k, n, dcoef):
    dx = 1.0 / n
    return -dcoef * (2.0 - 2.0 * math.cos(2.0 * math.pi * k * dx)) / dx**2


def kron_stage_recursion(f, table, dt, d1, d2):
    """Replay the stage recursion with vectorized Kronecker solves."""
    n1, n2 = f.shape
    i1 = np.eye(n1)
    i2 = np.eye(n2)
    incs = []
    fk = f
    for k in range(table.stages):
        akk = table.a[k, k]
        b = f.copy()
        for l in range(k):
            b += table.a[k, l] * incs[l]
        a1 = 0.5 * i1 - dt * akk * d1
        a2 = 0.5 * i2 - dt * akk * d2
        big = np.kron(i2, a1) + np.kron(a2, i1)
        fk = np.linalg.solve(big, b.flatten(order="F")).reshape(
            (n1, n2), order="F"
        )
        incs.append((fk - b) / akk)
    return fk


def lbfp_operator(n):
    system = initialize_system(benchmark_species(), n)
    coeffs = collision_coefficients(system.states, system.species)
    return build_lbfp_operators(system.grids[0], system.dvs[0], coeffs[0])[0]


def expm_reference(f0, d1, d2, t):
    """e^{tD1} F0 e^{tD2}^T from scipy's dense ``expm``, independent of the DFT."""
    return scipy.linalg.expm(t * d1.dense()) @ f0 @ scipy.linalg.expm(t * d2.dense()).T


def advection_diffusion_operator(n, dcoef, vel):
    """Non-symmetric circulant: periodic diffusion plus central advection."""
    dx = 1.0 / n
    lo = dcoef / dx**2 + vel / (2.0 * dx)
    up = dcoef / dx**2 - vel / (2.0 * dx)
    return TridiagonalOperator(
        np.full(n, -2.0 * dcoef / dx**2), np.full(n - 1, lo), np.full(n - 1, up),
        circulant=True,
    )


class TestPropagator:
    """``heat_reference`` as the exact propagator e^{tD1} F0 e^{tD2}^T."""

    def test_identity_at_zero(self):
        rng = np.random.default_rng(61)
        d = build_heat_operator(32, 0.5, 1.0 / 32)
        f0 = rng.standard_normal((32, 32))
        assert np.abs(heat_reference(f0, d, d, 0.0) - f0).max() <= 1e-13 * np.abs(f0).max()

    def test_trig_mode_decay(self):
        # the constant is D's null mode, so the columns alone decay
        n = 64
        d = build_heat_operator(n, 0.5, 1.0 / n)
        x, _ = heat_grid(n)
        for k in (1, 3, 7):
            mode = np.sin(2.0 * np.pi * k * x)
            mu = circulant_eigenvalue(k, n, 0.5)
            out = heat_reference(np.outer(mode, np.ones(n)), d, d, 0.005)
            assert np.abs(out - math.exp(0.005 * mu) * np.outer(mode, np.ones(n))).max() <= 1e-11

    def test_symmetric_circulant_matches_expm(self):
        rng = np.random.default_rng(63)
        d1 = build_heat_operator(48, 0.5, 1.0 / 48)
        d2 = build_heat_operator(40, 0.3, 1.0 / 40)
        f0 = rng.standard_normal((48, 40))
        got = heat_reference(f0, d1, d2, 0.01)
        want = expm_reference(f0, d1, d2, 0.01)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_nonsymmetric_circulant_matches_expm(self):
        # a non-symmetric circulant has a complex spectrum; a wrong sign or
        # conjugation in the spectrum would propagate the transposed generator
        rng = np.random.default_rng(65)
        d1 = advection_diffusion_operator(24, 0.5, 20.0)
        d2 = advection_diffusion_operator(31, 0.2, -15.0)
        assert d1.circulant and not d1.symmetric and not d2.symmetric
        f0 = rng.standard_normal((24, 31))
        got = heat_reference(f0, d1, d2, 0.01)
        want = expm_reference(f0, d1, d2, 0.01)
        transposed = heat_reference(f0.T, d2, d1, 0.01).T
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(transposed - want).max() <= 1e-12 * np.abs(want).max()
        swapped = expm_reference(f0, advection_diffusion_operator(24, 0.5, -20.0), d2, 0.01)
        assert np.abs(got - swapped).max() > 1e-3 * np.abs(want).max()

    def test_nonsymmetric_semigroup(self):
        rng = np.random.default_rng(67)
        d1 = advection_diffusion_operator(48, 0.5, 30.0)
        d2 = build_heat_operator(48, 0.5, 1.0 / 48)
        f0 = rng.standard_normal((48, 48))
        p3 = heat_reference(f0, d1, d2, 0.005)
        p12 = heat_reference(heat_reference(f0, d1, d2, 0.002), d1, d2, 0.003)
        assert np.abs(p12 - p3).max() <= 1e-12 * np.abs(p3).max()

    def test_noncirculant_generator_rejected(self):
        op = lbfp_operator(48)
        d = build_heat_operator(48, 0.5, 1.0 / 48)
        with pytest.raises(DimensionMismatch, match="not circulant"):
            heat_reference(np.ones((48, 48)), op, d, 0.1)
        with pytest.raises(DimensionMismatch, match="not circulant"):
            heat_reference(np.ones((48, 48)), d, op, 0.1)
        with pytest.raises(DimensionMismatch, match="F0 must be"):
            heat_reference(np.ones((48, 40)), d, d, 0.1)


class TestHeatReference:
    def test_separable_mode_decay(self):
        n = 48
        dcoef = 0.5
        d = build_heat_operator(n, dcoef, 1.0 / n)
        x, _ = heat_grid(n)
        f0 = np.outer(np.sin(2.0 * np.pi * x), np.cos(4.0 * np.pi * x))
        mu = circulant_eigenvalue(1, n, dcoef) + circulant_eigenvalue(2, n, dcoef)
        t = 0.004
        got = heat_reference(f0, d, d, t)
        assert np.abs(got - math.exp(t * mu) * f0).max() <= 1e-11

    def test_mass_conserved(self):
        rng = np.random.default_rng(67)
        n = 40
        d = build_heat_operator(n, 0.3, 1.0 / n)
        f0 = rng.standard_normal((n, n))
        out = heat_reference(f0, d, d, 0.02)
        assert abs(out.sum() - f0.sum()) <= 1e-11 * np.abs(f0).sum()


class TestCirculantEigenbasis:
    """``circulant_eigenbasis``: the real Hartley basis of symmetric circulants."""

    def test_diagonalizes_heat_generators(self):
        # Z1^T (D1 F + F D2^T) Z2 = (w1_i + w2_j) Z1^T F Z2 on odd and even n,
        # with D applied by its own tridiagonal product
        rng = np.random.default_rng(81)
        sizes = (3, 8, 17, 33)
        for n1 in sizes:
            for n2 in sizes:
                d1 = build_heat_operator(n1, 0.5, 1.0 / n1)
                d2 = build_heat_operator(n2, 0.2, 1.0 / n2)
                f = rng.standard_normal((n1, n2))
                (w1, w2), g = circulant_eigenbasis(f, d1, d2)
                _, got = circulant_eigenbasis(d1.apply(f) + d2.apply(f.T).T, d1, d2)
                want = (w1[:, None] + w2[None, :]) * g
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (n1, n2)

    def test_is_an_orthogonal_involution(self):
        rng = np.random.default_rng(82)
        for n1, n2 in ((3, 8), (17, 33), (256, 256)):
            d1 = build_heat_operator(n1, 0.5, 1.0 / n1)
            d2 = build_heat_operator(n2, 0.2, 1.0 / n2)
            f = rng.standard_normal((n1, n2))
            _, g = circulant_eigenbasis(f, d1, d2)
            _, back = circulant_eigenbasis(g, d1, d2)
            assert abs(np.linalg.norm(g) - np.linalg.norm(f)) <= 1e-14 * np.linalg.norm(f)
            assert np.abs(back - f).max() <= 1e-14 * np.abs(f).max(), (n1, n2)

    def test_rejects_nonsymmetric_or_noncirculant_generator(self):
        n = 16
        d = build_heat_operator(n, 0.5, 1.0 / n)
        symmetric_banded = TridiagonalOperator(np.full(n, -2.0), np.ones(n - 1), np.ones(n - 1))
        for bad in (advection_diffusion_operator(n, 0.5, 20.0), lbfp_operator(n), symmetric_banded):
            for pair in ((bad, d), (d, bad)):
                with pytest.raises(DimensionMismatch):
                    circulant_eigenbasis(np.ones((n, n)), *pair)
        with pytest.raises(DimensionMismatch, match="F must be"):
            circulant_eigenbasis(np.ones((n, 8)), d, d)


def schur_solver(d1, d2, dt, akk):
    """Stage solver of dense generators: I/2 - dt*a_kk*D in Schur form, factored once."""
    a1 = 0.5 * np.eye(d1.shape[0]) - dt * akk * d1
    a2 = 0.5 * np.eye(d2.shape[0]) - dt * akk * d2
    return functools.partial(solve_sylvester_dense, a1, a2, schur=sylvester_schur(a1, a2))


def eig_solver(w1, w2, dt, akk):
    """Stage solver in the generators' eigenbasis: one division by the stage divisors."""
    denom = eig_denominators(0.5 - dt * akk * w1, 0.5 - dt * akk * w2)
    return lambda b: b / denom


class TestDenseDirkStep:
    def test_matches_kronecker_recursion(self):
        rng = np.random.default_rng(71)
        n = 20
        d1 = build_heat_operator(n, 0.5, 1.0 / n).dense()
        d2 = build_heat_operator(n, 0.2, 1.0 / n).dense()
        f0 = rng.standard_normal((n, n))
        for name in ("be", "dirk2", "dirk3"):
            table = get_table(name)
            got = dense_dirk_step(f0, table, schur_solver(d1, d2, 0.01, table.a[0, 0]))
            want = kron_stage_recursion(f0, table, 0.01, d1, d2)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_reused_solver_is_bitwise_refactored_scipy_loop(self):
        # non-symmetric generators, so the stage pair takes Schur forms
        rng = np.random.default_rng(72)
        n = 16
        d1 = lbfp_operator(n).dense()
        d2 = 0.5 * lbfp_operator(n).dense()
        f0 = rng.standard_normal((n, n))
        dt = 0.01
        for name in ("be", "dirk2", "dirk3"):
            table = get_table(name)
            solve = schur_solver(d1, d2, dt, table.a[0, 0])
            got = f0
            want = f0
            for _ in range(4):
                got = dense_dirk_step(got, table, solve)
                # the stage recursion with every operator rebuilt and refactored
                incs = []
                b0 = want
                for k in range(table.stages):
                    akk = table.a[k, k]
                    b = b0.copy()
                    for l in range(k):
                        b += table.a[k, l] * incs[l]
                    a1 = 0.5 * np.eye(n) - dt * akk * d1
                    a2 = 0.5 * np.eye(n) - dt * akk * d2
                    want = scipy.linalg.solve_sylvester(a1, a2.T, b)
                    incs.append((want - b) / akk)
            assert np.array_equal(got, want), name

    def test_symmetric_matches_kronecker_recursion(self):
        # symmetric generators stepped in their Hartley basis
        rng = np.random.default_rng(74)
        d1 = build_heat_operator(20, 0.5, 1.0 / 20)
        d2 = build_heat_operator(15, 0.2, 1.0 / 15)
        f0 = rng.standard_normal((20, 15))
        for name in ("be", "dirk2", "dirk3"):
            table = get_table(name)
            (w1, w2), g = circulant_eigenbasis(f0, d1, d2)
            solve = eig_solver(w1, w2, 0.01, table.a[0, 0])
            got = circulant_eigenbasis(dense_dirk_step(g, table, solve), d1, d2)[1]
            want = kron_stage_recursion(f0, table, 0.01, d1.dense(), d2.dense())
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), name

    def test_symmetric_reused_solver_is_bitwise_refactored(self):
        rng = np.random.default_rng(75)
        n = 16
        w1 = np.linalg.eigvalsh(build_heat_operator(n, 0.5, 1.0 / n).dense())
        w2 = np.linalg.eigvalsh(build_heat_operator(n, 0.2, 1.0 / n).dense())
        g0 = rng.standard_normal((n, n))
        for name in ("be", "dirk2", "dirk3"):
            table = get_table(name)
            solve = eig_solver(w1, w2, 0.01, table.a[0, 0])
            got = g0
            want = g0
            for _ in range(4):
                got = dense_dirk_step(got, table, solve)
                want = dense_dirk_step(want, table, eig_solver(w1, w2, 0.01, table.a[0, 0]))
            assert np.array_equal(got, want), name

    def test_nonsymmetric_generator_takes_schur_forms(self):
        # the eigenbasis is only taken of exactly symmetric pairs: a
        # non-symmetric side, on either side, gives both sides Schur forms
        d = 0.5 * np.eye(16) - 0.01 * lbfp_operator(16).dense()
        h = 0.5 * np.eye(16) - 0.01 * build_heat_operator(16, 0.5, 1.0 / 16).dense()
        assert not np.array_equal(d, d.T) and np.array_equal(h, h.T)
        for pair in ((d, d), (d, h), (h, d)):
            want = [f for a in pair for f in scipy.linalg.schur(a, output="real")]
            for got, w in zip(sylvester_schur(*pair), want):
                assert np.array_equal(got, w)
        assert sylvester_schur(h, h)[0].ndim == 1

    def test_state_shape_must_match_generators(self):
        # a (1, 8) state would broadcast against 8 x 8 stage divisors to (8, 8)
        d = build_heat_operator(8, 0.5, 1.0 / 8).dense()
        w = np.linalg.eigvalsh(d)
        akk = get_table("dirk2").a[0, 0]
        cases = [((1, 8), eig_solver(w, w, 0.01, akk)), ((8, 6), schur_solver(d, d, 0.01, akk))]
        for shape, solve in cases:
            with pytest.raises(DimensionMismatch):
                dense_dirk_step(np.ones(shape), get_table("dirk2"), solve)

    def test_eigenbasis_step_matches_schur_step_at_benchmark_scale(self):
        # heat-compare-n256's trajectory as ``run_compare`` runs it: 16 steps
        # at lambda = 400, once in the generators' Hartley basis (moved in
        # and out once) and once by the Schur back-solve per stage.  Measured
        # gaps: 1.4e-13 to 4.7e-13 of max|F0| and 7.7e-12 to 2.6e-11 of
        # max|F_out| (dirk3 largest); the output decays, so the gap is
        # checked at the scale of the input, where both paths' rounding is
        # made.  Against the dirk2 recursion run in extended precision, the
        # Schur path is the less accurate one (7.7e-12 of the output's max
        # against 1.7e-13).
        n = 256
        op = build_heat_operator(n, 0.5, 1.0 / n)
        d = op.dense()
        dt = 400.0 / n**2
        f0 = heat_initial_condition(n).materialize()
        for name in ("be", "dirk2", "dirk3"):
            table = get_table(name)
            (w1, w2), g = circulant_eigenbasis(f0, op, op)
            eig_solve = eig_solver(w1, w2, dt, table.a[0, 0])
            schur_solve = schur_solver(d, d, dt, table.a[0, 0])
            want = f0
            for _ in range(16):
                g = dense_dirk_step(g, table, eig_solve)
                want = dense_dirk_step(want, table, schur_solve)
            got = circulant_eigenbasis(g, op, op)[1]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(f0).max(), name
            assert np.abs(got - want).max() <= 5e-11 * np.abs(want).max(), name

    @pytest.mark.parametrize("name", ["be", "dirk2", "dirk3"])
    def test_overlapping_stage_pair_raises_without_warning(self, name):
        # a generator with a positive eigenvalue mu = 1/(2 dt a_kk) gives the
        # stage matrices I/2 - dt a_kk D an eigenvalue at 0 on both sides,
        # so (1/2 - dt a_kk mu) + (1/2 - dt a_kk mu) vanishes to rounding;
        # the caller's divisors raise before any stage is solved
        rng = np.random.default_rng(76)
        n, dt = 12, 0.01
        table = get_table(name)
        akk = table.a[0, 0]
        mu = -rng.uniform(1.0, 100.0, n)
        mu[0] = 1.0 / (2.0 * dt * akk)
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        d = (q * mu) @ q.T
        d = 0.5 * (d + d.T)
        w, z = np.linalg.eigh(d)
        f0 = rng.standard_normal((n, n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectralOverlap):
                dense_dirk_step(z.T @ f0 @ z, table, eig_solver(w, w, dt, akk))

    def test_eigenbasis_nonfinite_result_raises(self):
        w = np.linalg.eigvalsh(build_heat_operator(8, 0.5, 1.0 / 8).dense())
        table = get_table("dirk2")
        g = np.ones((8, 8))
        g[3, 5] = np.nan
        with pytest.raises(SpectralOverlap):
            dense_dirk_step(g, table, eig_solver(w, w, 0.01, table.a[0, 0]))

    def test_backward_euler_mode_amplification(self):
        n = 32
        dcoef = 0.5
        d = build_heat_operator(n, dcoef, 1.0 / n)
        x, _ = heat_grid(n)
        f0 = np.outer(np.sin(2.0 * np.pi * x), np.sin(2.0 * np.pi * x))
        mu = 2.0 * circulant_eigenvalue(1, n, dcoef)
        dt = 0.01
        table = get_table("be")
        solve = schur_solver(d.dense(), d.dense(), dt, table.a[0, 0])
        got = dense_dirk_step(f0, table, solve)
        assert np.abs(got - f0 / (1.0 - dt * mu)).max() <= 1e-12

    def test_second_order_convergence(self):
        n = 24
        d = build_heat_operator(n, 0.5, 1.0 / n)
        x, _ = heat_grid(n)
        f0 = np.outer(np.sin(2.0 * np.pi * x), np.cos(2.0 * np.pi * x))
        t_final = 0.08
        ref = heat_reference(f0, d, d, t_final)
        table = get_table("dirk2")

        def err(steps):
            solve = schur_solver(d.dense(), d.dense(), t_final / steps, table.a[0, 0])
            f = f0.copy()
            for _ in range(steps):
                f = dense_dirk_step(f, table, solve)
            return np.linalg.norm(f - ref)

        slope = math.log2(err(4) / err(8))
        assert abs(slope - 2.0) <= 0.25


class TestDenseLbfpStep:
    def test_states_follow_moment_system(self):
        # both steps take their states from one moment_step call, bitwise
        system = initialize_system(benchmark_species(), 48)
        table = get_table("dirk2")
        dense_fs = [f.materialize() for f in system.factors]
        dense = dense_lbfp_step(replace(system, factors=dense_fs), table, 0.1)
        low, _ = lbfp_step(system, table, 0.1, 1e-3)
        want = moment_step(system.states, system.species, table, 0.1)
        for new in (dense, low):
            assert new.states == want

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -0.1])
    def test_non_positive_or_non_finite_dt_rejected(self, dt):
        system = initialize_system(benchmark_species(), 16)
        dense = replace(system, factors=[f.materialize() for f in system.factors])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatch, match="positive finite dt"):
                dense_lbfp_step(dense, get_table("dirk3"), dt)

    def test_mass_conserved_per_species(self):
        system = initialize_system(benchmark_species(), 48)
        dense_fs = [f.materialize() for f in system.factors]
        new_fs = dense_lbfp_step(
            replace(system, factors=dense_fs), get_table("dirk2"), 0.1
        ).factors
        for a in range(2):
            cell = system.dvs[a] ** 2
            assert abs(cell * new_fs[a].sum() - cell * dense_fs[a].sum()) <= 1e-12

    def test_low_rank_path_stays_close(self):
        system = initialize_system(benchmark_species(), 48)
        table = get_table("dirk2")
        dense_fs = [f.materialize() for f in system.factors]
        new_fs = dense_lbfp_step(replace(system, factors=dense_fs), table, 0.1).factors
        low, _ = lbfp_step(system, table, 0.1, 1e-3)
        for a in range(2):
            cell = system.dvs[a] ** 2
            assert l1_distance(low.factors[a], new_fs[a], cell) <= 1e-4


class TestL1Distance:
    def test_matches_dense_sum(self):
        rng = np.random.default_rng(73)
        n = 96
        u = rng.standard_normal((n, 4))
        s = rng.standard_normal((4, 4))
        v = rng.standard_normal((n, 4))
        f = LowRankFactors(u, s, v)
        ref = rng.standard_normal((n, n))
        want = 0.25 * np.abs(u @ s @ v.T - ref).sum()
        got = l1_distance(f, ref, 0.25)
        assert abs(got - want) <= 1e-12 * want

    def test_zero_for_exact_match(self):
        rng = np.random.default_rng(79)
        u = rng.standard_normal((30, 3))
        s = rng.standard_normal((3, 3))
        v = rng.standard_normal((30, 3))
        f = LowRankFactors(u, s, v)
        assert l1_distance(f, u @ s @ v.T, 0.1) <= 1e-13
