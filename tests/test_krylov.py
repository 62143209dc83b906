"""Extended Krylov Sylvester solver: basis growth, Galerkin reduction,
recursive residual identity, tolerance stopping.

Oracles: materialized dense residuals, dense triple products, Kronecker-sum
solves, and projector norms on explicit bases.
"""

import numpy as np
import pytest

from kryrank.errors import BasisSaturated, MaxIterationsExceeded
from kryrank.krylov import (
    assemble_galerkin,
    grow_basis,
    lte_tolerance,
    residual_norm,
    seed_basis,
    solve_adaptive,
)
from kryrank.linalg import TridiagonalOperator, solve_sylvester_dense
from kryrank.lowrank import LowRankFactors, lr_frobenius


def dense_residual_oracle(a1, a2, b, f):
    a1d = a1.dense() if hasattr(a1, "dense") else a1
    a2d = a2.dense() if hasattr(a2, "dense") else a2
    fm = f.materialize()
    return np.linalg.norm(a1d @ fm + fm @ a2d.T - b.materialize())


def random_dd_tridiag(rng, n):
    return TridiagonalOperator(
        3.0 + rng.uniform(0.0, 1.0, n),
        rng.uniform(-1.0, 1.0, n - 1),
        rng.uniform(-1.0, 1.0, n - 1),
    )


def random_rhs(rng, n1, n2, r):
    u = np.linalg.qr(rng.standard_normal((n1, r)))[0]
    v = np.linalg.qr(rng.standard_normal((n2, r)))[0]
    return LowRankFactors(u, np.diag(rng.uniform(0.5, 2.0, r)), v, orthonormal=True)


def identity_op(n):
    return TridiagonalOperator(np.ones(n), np.zeros(n - 1), np.zeros(n - 1))


class TestLteTolerance:
    def test_formula_values(self):
        assert abs(lte_tolerance(1.0, 0.1, 1) - 1e-2) <= 1e-16
        assert abs(lte_tolerance(1e-3, 0.1, 2) - 1e-6) <= 1e-20
        assert abs(lte_tolerance(1e-3, 0.5, 3) - 6.25e-5) <= 1e-18


class TestBasisGrowth:
    def test_seed_spans_u0(self):
        rng = np.random.default_rng(1)
        u0 = rng.standard_normal((40, 3))
        basis = seed_basis(u0)
        proj = u0 - basis.q @ (basis.q.T @ u0)
        assert np.linalg.norm(proj) <= 1e-10 * np.linalg.norm(u0)

    def test_seed_orthonormal_block_kept_verbatim(self):
        rng = np.random.default_rng(2)
        q0 = np.linalg.qr(rng.standard_normal((30, 4)))[0]
        basis = seed_basis(q0, orthonormal=True)
        assert np.array_equal(basis.q, q0)

    def test_identity_operator_saturates(self):
        rng = np.random.default_rng(3)
        basis = seed_basis(rng.standard_normal((20, 2)))
        with pytest.raises(BasisSaturated):
            grow_basis(basis, identity_op(20))

    def test_two_growths_reach_nominal_count(self):
        rng = np.random.default_rng(4)
        op = random_dd_tridiag(rng, 64)
        basis = seed_basis(rng.standard_normal((64, 1)))
        basis = grow_basis(basis, op)
        basis = grow_basis(basis, op)
        assert basis.m == 2
        assert basis.rank == 5  # (2m+1) * r
        gram = basis.q.T @ basis.q
        assert np.abs(gram - np.eye(5)).max() <= 1e-10

    def test_span_contains_forward_and_inverse_images(self):
        rng = np.random.default_rng(5)
        op = random_dd_tridiag(rng, 48)
        u0 = rng.standard_normal((48, 2))
        basis = grow_basis(seed_basis(u0), op)
        q = basis.q
        for target in (op.apply(u0), op.solve(u0)):
            resid = target - q @ (q.T @ target)
            assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(target)

    def test_monotone_nesting(self):
        rng = np.random.default_rng(6)
        op = random_dd_tridiag(rng, 40)
        basis = seed_basis(rng.standard_normal((40, 2)))
        for _ in range(3):
            grown = grow_basis(basis, op)
            inside = basis.q - grown.q @ (grown.q.T @ basis.q)
            assert np.linalg.norm(inside) <= 1e-10
            basis = grown


class TestGalerkinAssembly:
    def test_full_basis_reduces_to_dense(self):
        rng = np.random.default_rng(11)
        n = 10
        a1 = random_dd_tridiag(rng, n)
        a2 = random_dd_tridiag(rng, n)
        b = random_rhs(rng, n, n, 2)
        eye = np.eye(n)
        sys = assemble_galerkin(a1, a2, eye, eye, b)
        assert np.abs(sys.a1 - a1.dense()).max() <= 1e-13
        assert np.abs(sys.a2 - a2.dense()).max() <= 1e-13
        assert np.abs(sys.b - b.materialize()).max() <= 1e-13

    def test_orthogonal_rhs_projects_to_zero(self):
        rng = np.random.default_rng(12)
        n = 12
        a1 = random_dd_tridiag(rng, n)
        a2 = random_dd_tridiag(rng, n)
        e = np.eye(n)
        b = LowRankFactors(e[:, :1], np.array([[1.0]]), e[:, 3:4], orthonormal=True)
        sys = assemble_galerkin(a1, a2, e[:, :2], e[:, :2], b)
        assert np.abs(sys.b).max() <= 1e-14

    def test_reduced_operator_matches_triple_product(self):
        rng = np.random.default_rng(13)
        n = 32
        a1 = random_dd_tridiag(rng, n)
        a2 = random_dd_tridiag(rng, n)
        u1 = np.linalg.qr(rng.standard_normal((n, 5)))[0]
        v1 = np.linalg.qr(rng.standard_normal((n, 5)))[0]
        sys = assemble_galerkin(a1, a2, u1, v1, random_rhs(rng, n, n, 2))
        assert np.abs(sys.a1 - u1.T @ a1.dense() @ u1).max() <= 1e-13
        assert np.abs(sys.a2 - v1.T @ a2.dense() @ v1).max() <= 1e-13


class TestResidualNorm:
    def test_exact_solution_on_full_basis(self):
        rng = np.random.default_rng(21)
        n = 10
        a1 = random_dd_tridiag(rng, n)
        a2 = random_dd_tridiag(rng, n)
        b = random_rhs(rng, n, n, 2)
        eye = np.eye(n)
        sys = assemble_galerkin(a1, a2, eye, eye, b)
        s1 = solve_sylvester_dense(sys.a1, sys.a2, sys.b)
        assert residual_norm(sys, s1) <= 1e-10 * lr_frobenius(b)

    def test_zero_inputs(self):
        rng = np.random.default_rng(22)
        n = 8
        a1 = random_dd_tridiag(rng, n)
        a2 = random_dd_tridiag(rng, n)
        e = np.eye(n)
        b = LowRankFactors(e[:, :1], np.array([[1.0]]), e[:, 5:6], orthonormal=True)
        sys = assemble_galerkin(a1, a2, e[:, :2], e[:, :2], b)
        assert residual_norm(sys, np.zeros((2, 2))) == 0.0

    def test_partial_basis_matches_dense_residual(self):
        rng = np.random.default_rng(23)
        n = 64
        a1 = random_dd_tridiag(rng, n)
        a2 = random_dd_tridiag(rng, n)
        b = random_rhs(rng, n, n, 2)
        basis_u = grow_basis(seed_basis(b.u, orthonormal=True), a1)
        basis_v = grow_basis(seed_basis(b.v, orthonormal=True), a2)
        sys = assemble_galerkin(a1, a2, basis_u.q, basis_v.q, b)
        s1 = solve_sylvester_dense(sys.a1, sys.a2, sys.b)
        f = LowRankFactors(basis_u.q, s1, basis_v.q, orthonormal=True)
        want = dense_residual_oracle(a1, a2, b, f)
        got = residual_norm(sys, s1)
        assert abs(got - want) <= 1e-10 * want

    def test_residual_identity_randomized_suite(self):
        # spec invariant: 128 random tuples at N <= 64, 1e-9 relative
        rng = np.random.default_rng(24)
        for trial in range(128):
            n1 = int(rng.integers(6, 65))
            n2 = int(rng.integers(6, 65))
            r = int(rng.integers(1, 4))
            a1 = random_dd_tridiag(rng, n1)
            a2 = random_dd_tridiag(rng, n2)
            b = random_rhs(rng, n1, n2, r)
            bu = seed_basis(b.u, orthonormal=True)
            bv = seed_basis(b.v, orthonormal=True)
            if rng.uniform() < 0.7:
                bu = grow_basis(bu, a1)
                bv = grow_basis(bv, a2)
            sys = assemble_galerkin(a1, a2, bu.q, bv.q, b)
            s1 = solve_sylvester_dense(sys.a1, sys.a2, sys.b)
            f = LowRankFactors(bu.q, s1, bv.q, orthonormal=True)
            want = dense_residual_oracle(a1, a2, b, f)
            got = residual_norm(sys, s1)
            assert abs(got - want) <= 1e-9 * max(want, 1e-30), trial


class TestSolveAdaptive:
    def test_half_identity_converges_immediately(self):
        rng = np.random.default_rng(31)
        n = 16
        half = TridiagonalOperator(0.5 * np.ones(n), np.zeros(n - 1), np.zeros(n - 1))
        b = random_rhs(rng, n, n, 2)
        f, diag = solve_adaptive(half, half, b, 1e-10)
        assert diag.iterations == 0
        assert np.abs(f.materialize() - b.materialize()).max() <= 1e-12

    def test_heat_stage_system_matches_dense(self):
        from kryrank.dirk import assemble_stage_operator
        from kryrank.heat import build_heat_operator, heat_initial_condition

        n = 128
        dx = 1.0 / n
        dt = 100.0 * dx * dx
        d_op = build_heat_operator(n, 0.5, dx)
        a_op = assemble_stage_operator(d_op, dt, 1.0)
        b = heat_initial_condition(n)
        eps = dt * dt
        f, diag = solve_adaptive(a_op, a_op, b, eps)
        assert diag.residual < eps
        f_dense = solve_sylvester_dense(a_op.dense(), a_op.dense(), b.materialize())
        assert np.linalg.norm(f.materialize() - f_dense) <= 10.0 * eps

    def test_galerkin_orthogonality(self):
        rng = np.random.default_rng(32)
        n = 48
        a1 = random_dd_tridiag(rng, n)
        a2 = random_dd_tridiag(rng, n)
        b = random_rhs(rng, n, n, 2)
        f, _diag = solve_adaptive(a1, a2, b, 1e-6)
        fm = f.materialize()
        resid = a1.dense() @ fm + fm @ a2.dense().T - b.materialize()
        gal = f.u.T @ resid @ f.v
        assert np.linalg.norm(gal) <= 1e-10 * lr_frobenius(b)

    def test_exactness_at_saturation(self):
        rng = np.random.default_rng(33)
        n = 12
        a1 = random_dd_tridiag(rng, n)
        a2 = random_dd_tridiag(rng, n)
        b = random_rhs(rng, n, n, 1)
        f, _diag = solve_adaptive(a1, a2, b, 1e-13, max_iter=50)
        want = solve_sylvester_dense(a1.dense(), a2.dense(), b.materialize())
        err = np.linalg.norm(f.materialize() - want)
        assert err <= 1e-9 * np.linalg.norm(want)

    def test_unreachable_tolerance_reports_history(self):
        rng = np.random.default_rng(34)
        n = 24
        a1 = random_dd_tridiag(rng, n)
        a2 = random_dd_tridiag(rng, n)
        b = random_rhs(rng, n, n, 2)
        with pytest.raises(MaxIterationsExceeded) as info:
            solve_adaptive(a1, a2, b, 0.0, max_iter=6)
        hist = info.value.history
        assert len(hist) >= 2
        assert all(b_ <= a_ * (1.0 + 1e-12) for a_, b_ in zip(hist, hist[1:]))
        assert info.value.best is not None
