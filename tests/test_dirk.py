"""DIRK stepping: Butcher tables, stage operators, the projected stage-rhs
recursion, and full steps on matrix ODEs.

Oracles: a scalar textbook DIRK recursion written independently below, the
analytic decay of a single Fourier mode under the discrete heat operator,
and direct arithmetic on the order conditions.
"""

import numpy as np
import pytest
import scipy.linalg

from kryrank.dirk import (
    assemble_stage_operator,
    builtin_tables,
    dirk_step,
    get_table,
)
from kryrank.errors import DimensionMismatch
from kryrank.heat import build_heat_operator
from kryrank.krylov import adaptive_stage_solve, solve_adaptive
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
        y = y + dt * lam * float(np.dot(table.b, stage_f))
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
        assert np.array_equal(t.b, np.array([1.0]))
        assert np.array_equal(t.c, np.array([1.0]))
        assert t.order == 1

    def test_dirk2_entries(self):
        t = get_table("dirk2")
        gamma = 1.0 - np.sqrt(2.0) / 2.0
        want = np.array([[gamma, 0.0], [1.0 - gamma, gamma]])
        assert np.abs(t.a - want).max() <= 1e-15
        assert np.abs(t.b - want[1]).max() <= 1e-15
        assert t.order == 2

    def test_dirk3_order_conditions(self):
        t = get_table("dirk3")
        b, c, a = t.b, t.c, t.a
        # third-order conditions; floor set by the 10-digit root constant
        assert abs(b.sum() - 1.0) <= 1e-14
        assert abs(np.dot(b, c) - 0.5) <= 1e-9
        assert abs(np.dot(b, c**2) - 1.0 / 3.0) <= 1e-9
        assert abs(float(b @ a @ c) - 1.0 / 6.0) <= 1e-9

    def test_all_tables_stiffly_accurate(self):
        for name, t in builtin_tables().items():
            assert np.abs(t.b - t.a[-1]).max() <= 1e-14, name
            assert np.abs(t.c - t.a.sum(axis=1)).max() <= 1e-14, name
            assert (np.diag(t.a) > 0.0).all(), name

    def test_unknown_name_rejected(self):
        with pytest.raises(DimensionMismatch):
            get_table("rk4")

    def test_invalid_table_rejected(self):
        from kryrank.dirk import ButcherTable

        with pytest.raises(DimensionMismatch):
            ButcherTable(
                name="bad",
                a=np.array([[0.5]]),
                b=np.array([1.0]),
                c=np.array([0.5]),
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


def stage_ops(d, table, dt):
    return [
        (assemble_stage_operator(d, dt, akk),) * 2 for akk in np.diag(table.a)
    ]


class TestStageRhs:
    """Stage rhs B~k = B~1 + sum_{l<k} a_kl (S_l - B~_l)/a_ll in the shared solve."""

    def test_first_stage_is_b1(self):
        rng = np.random.default_rng(4)
        n = 12
        table = get_table("dirk2")
        ops = stage_ops(build_heat_operator(n, 0.5, 1.0 / n), table, 0.01)
        u = np.linalg.qr(rng.standard_normal((n, 2)))[0]
        b = LowRankFactors(u, np.diag([1.0, 0.3]), u, orthonormal=True)
        qu, cores, qv, _ = adaptive_stage_solve(ops, b, [1e-10] * 2, table.a)
        # independent route: dense Galerkin projection and scipy's solver
        a1 = qu.T @ ops[0][0].dense() @ qu
        a2 = qv.T @ ops[0][1].dense() @ qv
        want = scipy.linalg.solve_sylvester(a1, a2.T, qu.T @ b.materialize() @ qv)
        assert np.abs(cores[0] - want).max() <= 1e-12 * np.abs(want).max()

    def test_stationary_increments(self):
        # zero generators make every stage operator I/2, so S_k = B~_k, the
        # increments vanish and each stage rhs stays at B~1
        n = 8
        zero = TridiagonalOperator(np.zeros(n), np.zeros(n - 1), np.zeros(n - 1))
        table = get_table("dirk3")
        b = LowRankFactors(
            np.eye(n)[:, :2], np.array([[1.0, 2.0], [0.5, 3.0]]), np.eye(n)[:, 1:3]
        )
        qu, cores, qv, _ = adaptive_stage_solve(
            stage_ops(zero, table, 0.3), b, [1e-12] * 3, table.a
        )
        b1 = qu.T @ b.materialize() @ qv
        for core in cores:
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
            f, _diag = dirk_step(f, table, dt, (op, op), [1e-12] * table.stages)
        want = scalar_dirk_oracle(table, lam, dt, 1.0, steps)
        got = float(f.materialize()[0, 0])
        assert abs(got - want) <= 1e-13 * abs(want)


class TestDirkStep:
    def test_single_stage_equals_adaptive_solve(self):
        rng = np.random.default_rng(1)
        n = 24
        d = build_heat_operator(n, 0.5, 1.0 / n)
        dt = 0.01
        u = np.linalg.qr(rng.standard_normal((n, 2)))[0]
        f = LowRankFactors(u, np.diag([1.0, 0.5]), u, orthonormal=True)
        table = get_table("be")
        stepped, _diag = dirk_step(f, table, dt, (d, d), [1e-8])
        a_op = assemble_stage_operator(d, dt, 1.0)
        direct, _d2 = solve_adaptive(a_op, a_op, f, 1e-8)
        assert np.array_equal(stepped.u, direct.u)
        assert np.array_equal(stepped.s, direct.s)
        assert np.array_equal(stepped.v, direct.v)

    def test_zero_generators_preserve_state(self):
        rng = np.random.default_rng(2)
        n = 16
        zero = TridiagonalOperator(np.zeros(n), np.zeros(n - 1), np.zeros(n - 1))
        u = np.linalg.qr(rng.standard_normal((n, 2)))[0]
        f = LowRankFactors(u, np.diag([2.0, 1.0]), u, orthonormal=True)
        for name in ("be", "dirk2", "dirk3"):
            table = get_table(name)
            out, _diag = dirk_step(f, table, 0.3, (zero, zero), [1e-12] * table.stages)
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

        out, _diag = dirk_step(f, table, 0.01, (d, d), [1e-6, 1e-6], post_process=post)
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
                f, _diag = dirk_step(f, table, dt, (d, d), [1e-11] * table.stages)
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
        tols = [lte_tolerance(1e-3, dt, 2)] * 2
        for _ in range(5):
            f, diag = dirk_step(f, table, dt, (d, d), tols)
            assert diag.late_stage_restarts <= 2

    def test_tolerance_count_validated(self):
        n = 8
        d = build_heat_operator(n, 0.5, 1.0 / n)
        f = rank_one_state()
        with pytest.raises(DimensionMismatch):
            dirk_step(f, get_table("dirk2"), 0.01, (d, d), [1e-6])
