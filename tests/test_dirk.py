"""DIRK stepping: Butcher tables, stage operators, the projected stage-rhs
recursion, and full steps on matrix ODEs.

Oracles: a scalar textbook DIRK recursion written independently below, the
analytic decay of a single Fourier mode under the discrete heat operator,
and direct arithmetic on the order conditions.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from kryrank.dirk import (
    assemble_stage_operator,
    builtin_tables,
    dirk_step,
    get_table,
)
from kryrank import krylov
from kryrank.errors import DimensionMismatch
from kryrank.heat import build_heat_operator, heat_initial_condition
from kryrank.krylov import adaptive_stage_solve, solve_adaptive, stage_sweep
from kryrank.lbfp import (
    benchmark_species,
    build_lbfp_operators,
    collision_coefficients,
    initialize_system,
)
from kryrank.linalg import TridiagonalOperator
from kryrank.lowrank import LowRankFactors


def scalar_dirk_oracle(table, lam, dt, y0, steps):
    """Textbook DIRK on dy/dt = lam*y: solve each stage equation directly."""
    y = y0
    for _ in range(steps):
        stage_f = []
        for k in range(table.stages):
            acc = y + dt * lam * sum(
                table.a[k, l] * stage_f[l] for l in range(k)
            )
            yk = acc / (1.0 - dt * lam * table.a[k, k])
            stage_f.append(yk)
        y = y + dt * lam * float(np.dot(table.a[-1], stage_f))
    return y


def scalar_ops(lam_half):
    # diag(lam/2, lam/2): every F then obeys dF/dt = lam*F, the scalar ODE
    return TridiagonalOperator(np.full(2, lam_half), np.zeros(1), np.zeros(1))


def rank_one_state(value=1.0):
    e1 = np.array([[1.0], [0.0]])
    return LowRankFactors(e1, np.array([[value]]), e1, orthonormal=True)


class TestButcherTables:
    def test_backward_euler_entries(self):
        t = get_table("be")
        assert np.array_equal(t.a, np.array([[1.0]]))
        assert np.array_equal(t.a[-1], np.array([1.0]))
        assert np.array_equal(t.a.sum(axis=1), np.array([1.0]))
        assert t.order == 1

    def test_dirk2_entries(self):
        t = get_table("dirk2")
        gamma = 1.0 - np.sqrt(2.0) / 2.0
        want = np.array([[gamma, 0.0], [1.0 - gamma, gamma]])
        assert np.abs(t.a - want).max() <= 1e-15
        assert np.abs(t.a[-1] - want[1]).max() <= 1e-15
        assert t.order == 2

    def test_dirk3_order_conditions(self):
        t = get_table("dirk3")
        b, c, a = t.a[-1], t.a.sum(axis=1), t.a
        # third-order conditions; floor set by the 10-digit root constant
        assert abs(b.sum() - 1.0) <= 1e-14
        assert abs(np.dot(b, c) - 0.5) <= 1e-9
        assert abs(np.dot(b, c**2) - 1.0 / 3.0) <= 1e-9
        assert abs(float(b @ a @ c) - 1.0 / 6.0) <= 1e-9

    def test_all_tables_meet_their_order_conditions(self):
        # every condition up to the stated order, so dirk2's b.c = 1/2 too;
        # dirk3's floor is set by its 10-digit root constant
        for name, t in builtin_tables().items():
            b, c, a = t.a[-1], t.a.sum(axis=1), t.a
            conditions = {
                1: [(b.sum(), 1.0)],
                2: [(np.dot(b, c), 0.5)],
                3: [(np.dot(b, c**2), 1.0 / 3.0), (float(b @ a @ c), 1.0 / 6.0)],
            }
            tol = 1e-9 if name == "dirk3" else 1e-15
            for order in range(1, t.order + 1):
                for got, want in conditions[order]:
                    assert abs(got - want) <= tol, (name, order, want)

    def test_unknown_name_rejected(self):
        with pytest.raises(DimensionMismatch):
            get_table("rk4")

    def test_invalid_table_rejected(self):
        from kryrank.dirk import ButcherTable

        cases = [
            ([[0.5]], "sum to 1"),
            ([1.0], "square"),
            ([[0.5, 0.0, 0.0], [0.5, 0.5, 0.0]], "square"),
            ([[0.5, 0.1], [0.5, 0.5]], "lower triangular"),
            ([[0.0, 0.0], [1.0, 0.0]], "positive"),
            ([[-0.5, 0.0], [1.5, -0.5]], "positive"),
        ]
        for a, match in cases:
            with pytest.raises(DimensionMismatch, match=match):
                ButcherTable(name="bad", a=np.array(a), order=1)

    def test_non_constant_diagonal_rejected(self):
        # every stage shares one operator pair, so a_kk must not vary
        from kryrank.dirk import ButcherTable

        with pytest.raises(DimensionMismatch, match="constant"):
            ButcherTable(
                name="varying-diagonal",
                a=np.array([[0.3, 0.0], [0.6, 0.4]]),
                order=1,
            )


class TestStageOperator:
    def test_zero_generator_gives_half_identity(self):
        d = TridiagonalOperator(np.zeros(5), np.zeros(4), np.zeros(4))
        op = assemble_stage_operator(d, 0.25, 0.5)
        assert np.abs(op.dense() - 0.5 * np.eye(5)).max() <= 1e-15

    def test_unit_shift_flips_sign(self):
        d = TridiagonalOperator(np.ones(4), np.zeros(3), np.zeros(3))
        op = assemble_stage_operator(d, 1.0, 1.0)
        assert np.abs(op.dense() + 0.5 * np.eye(4)).max() <= 1e-15

    def test_heat_operator_row_sums(self):
        d = build_heat_operator(32, 0.5, 1.0 / 32)
        op = assemble_stage_operator(d, 0.01, 0.3)
        rows = op.dense().sum(axis=1)
        assert np.abs(rows - 0.5).max() <= 1e-10

    def test_lbfp_operator_dense_is_bitwise_stage_matrix(self):
        # ``dense_lbfp_step`` builds its stage matrices this way
        system = initialize_system(benchmark_species(), 24)
        coeffs = collision_coefficients(system.states, system.species)
        for d in build_lbfp_operators(system.grids[0], system.dvs[0], coeffs[0]):
            for name in ("be", "dirk2", "dirk3"):
                akk = get_table(name).a[0, 0]
                got = assemble_stage_operator(d, 0.1, akk).dense()
                want = 0.5 * np.eye(d.n) - 0.1 * akk * d.dense()
                assert np.array_equal(got, want), name


    @pytest.mark.parametrize(
        "dt, akk", [(math.nan, 0.5), (math.inf, 0.5), (0.0, 0.5), (0.1, math.nan), (0.1, -1.0)]
    )
    def test_non_positive_or_non_finite_step_rejected(self, dt, akk):
        # `dt <= 0 or akk <= 0` alone lets NaN and inf through to the
        # operator's own finiteness check, whose message names neither
        d = build_heat_operator(8, 0.5, 1.0 / 8)
        with pytest.raises(DimensionMismatch, match="dt > 0 and akk > 0"):
            assemble_stage_operator(d, dt, akk)


def stage_ops(d, table, dt):
    return (assemble_stage_operator(d, dt, table.a[0, 0]),) * 2


class TestStageRhs:
    """Stage rhs B~k = B~1 + sum_{l<k} a_kl (S_l - B~_l)/a_ll in the shared solve."""

    def test_first_stage_is_b1(self):
        rng = np.random.default_rng(4)
        n = 12
        table = get_table("dirk2")
        ops = stage_ops(build_heat_operator(n, 0.5, 1.0 / n), table, 0.01)
        u = np.linalg.qr(rng.standard_normal((n, 2)))[0]
        b = LowRankFactors(u, np.diag([1.0, 0.3]), u, orthonormal=True)
        # the table's first row alone: the solve returns that stage's core
        qu, core, qv, _ = adaptive_stage_solve(ops, b, 1e-10, table.a[:1, :1])
        # independent route: dense Galerkin projection and scipy's solver
        a1 = qu.T @ ops[0].dense() @ qu
        a2 = qv.T @ ops[1].dense() @ qv
        want = scipy.linalg.solve_sylvester(a1, a2.T, qu.T @ b.materialize() @ qv)
        assert np.abs(core - want).max() <= 1e-12 * np.abs(want).max()

    def test_stationary_increments(self):
        # zero generators make every stage operator I/2, so S_k = B~_k, the
        # increments vanish and each stage rhs stays at B~1
        n = 8
        zero = TridiagonalOperator(np.zeros(n), np.zeros(n - 1), np.zeros(n - 1))
        table = get_table("dirk3")
        b = LowRankFactors(
            np.eye(n)[:, :2], np.array([[1.0, 2.0], [0.5, 3.0]]), np.eye(n)[:, 1:3]
        )
        # the solve returns the last stage's core, so each leading block of
        # the table gives one stage
        for k in range(1, table.stages + 1):
            qu, core, qv, _ = adaptive_stage_solve(
                stage_ops(zero, table, 0.3), b, 1e-12, table.a[:k, :k]
            )
            b1 = qu.T @ b.materialize() @ qv
            assert np.abs(core - b1).max() <= 1e-14

    @pytest.mark.parametrize("name", ["be", "dirk2", "dirk3"])
    def test_matches_scalar_dirk_oracle(self, name):
        table = get_table(name)
        lam = -3.0
        dt = 0.05
        steps = 7
        op = scalar_ops(lam / 2.0)
        f = rank_one_state(1.0)
        for _ in range(steps):
            f, _diag = dirk_step(f, table, dt, (op, op), 1e-12)
        want = scalar_dirk_oracle(table, lam, dt, 1.0, steps)
        got = float(f.materialize()[0, 0])
        assert abs(got - want) <= 1e-13 * abs(want)


class TestStageSweep:
    """``stage_sweep``, the stage recursion shared by the Krylov and dense steps."""

    @pytest.mark.parametrize("name", ["be", "dirk2", "dirk3"])
    def test_scalar_stages_match_scalar_dirk_oracle(self, name):
        table = get_table(name)
        lam, dt, steps = -3.0, 0.05, 7
        y = np.array([1.0])
        for _ in range(steps):
            sweep = stage_sweep(y, table.a, lambda b: b / (1.0 - dt * table.a[0, 0] * lam))
            y = [yk for _, yk in sweep][-1]
        want = scalar_dirk_oracle(table, lam, dt, 1.0, steps)
        assert abs(y[0] - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("name", ["be", "dirk2", "dirk3"])
    def test_solves_once_per_stage_and_keeps_last_rhs(self, name):
        table = get_table(name)
        calls = []

        def solve(b):
            calls.append(b.copy())
            return 0.5 * b

        pairs = list(stage_sweep(np.full((2, 3), 4.0), table.a, solve))
        assert len(calls) == table.stages
        # every earlier B_k now holds its increment; B_s is still the rhs solved
        for k, (bk, yk) in enumerate(pairs[:-1]):
            assert np.array_equal(bk, (yk - calls[k]) / table.a[k, k])
        assert np.array_equal(pairs[-1][0], calls[-1])
        assert np.array_equal(pairs[-1][1], 0.5 * calls[-1])


class TestDirkStep:
    def test_heat_run_factorizes_each_stage_operator_once(self, monkeypatch):
        calls = []
        factorize = TridiagonalOperator._factorize

        def counted(op):
            calls.append(op)
            factorize(op)

        monkeypatch.setattr(TridiagonalOperator, "_factorize", counted)
        n = 32
        d1 = build_heat_operator(n, 0.5, 1.0 / n)
        d2 = build_heat_operator(n, 0.2, 1.0 / n)
        f = heat_initial_condition(n)
        table = get_table("dirk2")
        for _ in range(5):
            f, _diag = dirk_step(f, table, 0.01, (d1, d2), 1e-8)
        assert len(calls) == 2
        assert calls[0] is not calls[1]

    def test_one_schur_per_operator_pair_per_round(self, monkeypatch):
        calls = []
        schur = krylov.sylvester_schur

        def counted(a1, a2):
            calls.append(a1.shape)
            return schur(a1, a2)

        monkeypatch.setattr(krylov, "sylvester_schur", counted)
        n = 32
        d = build_heat_operator(n, 0.5, 1.0 / n)
        table = get_table("dirk3")
        _f, diag = dirk_step(heat_initial_condition(n), table, 0.01, (d, d), 1e-8)
        # a constant diagonal: all three stages back-solve from one factorization
        assert len(calls) == diag.krylov_iterations + 1

    def test_single_stage_equals_adaptive_solve(self):
        rng = np.random.default_rng(1)
        n = 24
        d = build_heat_operator(n, 0.5, 1.0 / n)
        dt = 0.01
        u = np.linalg.qr(rng.standard_normal((n, 2)))[0]
        f = LowRankFactors(u, np.diag([1.0, 0.5]), u, orthonormal=True)
        table = get_table("be")
        stepped, _diag = dirk_step(f, table, dt, (d, d), 1e-8)
        a_op = assemble_stage_operator(d, dt, 1.0)
        direct, _d2 = solve_adaptive(a_op, a_op, f, 1e-8)
        assert np.array_equal(stepped.u, direct.u)
        assert np.array_equal(stepped.s, direct.s)
        assert np.array_equal(stepped.v, direct.v)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0])
    def test_tolerance_outside_zero_to_inf_rejected(self, tol):
        # unchecked, inf accepts a heat step at round 0 with residual 0.46
        n = 16
        d = build_heat_operator(n, 0.5, 1.0 / n)
        with pytest.raises(DimensionMismatch, match="tolerance"):
            dirk_step(heat_initial_condition(n), get_table("dirk2"), 0.01, (d, d), tol)

    def test_zero_generators_preserve_state(self):
        rng = np.random.default_rng(2)
        n = 16
        zero = TridiagonalOperator(np.zeros(n), np.zeros(n - 1), np.zeros(n - 1))
        u = np.linalg.qr(rng.standard_normal((n, 2)))[0]
        f = LowRankFactors(u, np.diag([2.0, 1.0]), u, orthonormal=True)
        for name in ("be", "dirk2", "dirk3"):
            table = get_table(name)
            out, _diag = dirk_step(f, table, 0.3, (zero, zero), 1e-12)
            assert np.abs(out.materialize() - f.materialize()).max() <= 1e-13

    def test_post_process_called_once_on_step_end(self):
        rng = np.random.default_rng(3)
        n = 20
        d = build_heat_operator(n, 0.5, 1.0 / n)
        u = np.linalg.qr(rng.standard_normal((n, 2)))[0]
        f = LowRankFactors(u, np.diag([1.0, 0.2]), u, orthonormal=True)
        table = get_table("dirk2")
        seen = []

        def post(g):
            seen.append(g)
            return g

        out, _diag = dirk_step(f, table, 0.01, (d, d), 1e-6, post_process=post)
        assert len(seen) == 1
        assert out is seen[0]

    @pytest.mark.parametrize(
        "name,order", [("be", 1.0), ("dirk2", 2.0), ("dirk3", 3.0)]
    )
    def test_single_mode_temporal_order(self, name, order):
        # semi-discrete exact solution: sin mode is an eigenvector of the
        # circulant stencil with mu = -d(2 - 2cos(2 pi dx))/dx^2
        n = 32
        dx = 1.0 / n
        d_coef = 0.5
        d = build_heat_operator(n, d_coef, dx)
        x = np.arange(n) * dx
        mode = np.sin(2.0 * np.pi * x)[:, None]
        q = mode / np.linalg.norm(mode)
        amp = np.linalg.norm(mode) ** 2
        f0 = LowRankFactors(q, np.array([[amp]]), q, orthonormal=True)
        mu = -d_coef * (2.0 - 2.0 * np.cos(2.0 * np.pi * dx)) / dx**2
        t_final = 0.08
        table = get_table(name)
        errs = []
        for steps in (4, 8):
            dt = t_final / steps
            f = f0
            for _ in range(steps):
                f, _diag = dirk_step(f, table, dt, (d, d), 1e-11)
            exact = np.exp(2.0 * mu * t_final) * f0.materialize()
            errs.append(np.abs(f.materialize() - exact).max())
        slope = np.log2(errs[0] / errs[1])
        assert abs(slope - order) <= 0.25, (name, slope, errs)

    def test_late_stage_restarts_bounded(self):
        n = 64
        dx = 1.0 / n
        d = build_heat_operator(n, 0.5, dx)
        from kryrank.heat import heat_initial_condition
        from kryrank.krylov import lte_tolerance

        f = heat_initial_condition(n)
        table = get_table("dirk2")
        dt = 900.0 * dx * dx
        tol = lte_tolerance(1e-3, dt, 2)
        for _ in range(5):
            f, diag = dirk_step(f, table, dt, (d, d), tol)
            assert diag.late_stage_restarts <= 2
