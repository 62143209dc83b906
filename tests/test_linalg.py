"""Dense/banded kernel tests: Thomas solves, MGS QR, reduced SVD, Sylvester.

Derived expectations are checked against independent oracles built from plain
dense numpy factorizations (LU solve, Kronecker-sum vectorization, eigen
decomposition of S^T S); trivial identities are asserted directly.
"""

import numpy as np
import pytest

from kryrank.errors import DimensionMismatch, SingularOperator, SpectralOverlap
from kryrank.linalg import (
    TridiagonalOperator,
    mgs_qr,
    reduced_svd,
    solve_sylvester_dense,
)


def dense_solve_oracle(op, rhs):
    """Independent route: materialize and use the library dense LU solve."""
    return np.linalg.solve(op.dense(), rhs)


def kron_sylvester_oracle(a1, a2, b):
    """Vectorized (mk)x(mk) solve of A1 X + X A2^T = B."""
    m, k = b.shape
    big = np.kron(np.eye(k), a1) + np.kron(a2, np.eye(m))
    return np.linalg.solve(big, b.reshape(m * k, order="F")).reshape(
        (m, k), order="F"
    )


def random_dd_tridiag(rng, n, corners=False):
    lower = rng.uniform(-1.0, 1.0, n - 1)
    upper = rng.uniform(-1.0, 1.0, n - 1)
    cu = rng.uniform(-0.5, 0.5) if corners else 0.0
    cl = rng.uniform(-0.5, 0.5) if corners else 0.0
    diag = 3.0 + rng.uniform(0.0, 1.0, n)
    return TridiagonalOperator(diag, lower, upper, corner_upper=cu, corner_lower=cl)


class TestTridiagonalOperator:
    def test_apply_matches_dense_matvec(self):
        rng = np.random.default_rng(11)
        for corners in (False, True):
            for _ in range(8):
                op = random_dd_tridiag(rng, 17, corners=corners)
                x = rng.standard_normal((17, 3))
                want = op.dense() @ x
                got = op.apply(x)
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_identity_solve(self):
        op = TridiagonalOperator(np.ones(6), np.zeros(5), np.zeros(5))
        rhs = np.arange(12.0).reshape(6, 2)
        assert np.array_equal(op.solve(rhs), rhs)

    def test_two_by_two_hand_case(self):
        op = TridiagonalOperator(np.array([2.0, 2.0]), np.array([1.0]), np.array([1.0]))
        x = op.solve(np.array([[3.0], [3.0]]))
        assert np.abs(x - 1.0).max() <= 1e-14

    def test_matches_dense_lu_oracle(self):
        rng = np.random.default_rng(5)
        op = random_dd_tridiag(rng, 64)
        rhs = rng.standard_normal((64, 4))
        want = dense_solve_oracle(op, rhs)
        got = op.solve(rhs)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_periodic_corners_match_dense_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(16):
            op = random_dd_tridiag(rng, 33, corners=True)
            rhs = rng.standard_normal((33, 2))
            want = dense_solve_oracle(op, rhs)
            got = op.solve(rhs)
            assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    def test_solve_apply_roundtrip_randomized(self):
        # spec invariant: 256 diagonally dominant corner-free trials
        rng = np.random.default_rng(7)
        for trial in range(256):
            n = int(rng.integers(3, 48))
            op = random_dd_tridiag(rng, n)
            x = rng.standard_normal((n, 1))
            back = op.solve(op.apply(x))
            assert np.abs(back - x).max() <= 1e-12 * max(1.0, np.abs(x).max()), trial

    def test_solver_cache_reused_across_solves(self):
        rng = np.random.default_rng(8)
        op = random_dd_tridiag(rng, 32)
        r1 = rng.standard_normal((32, 2))
        a = op.solve(r1)
        b = op.solve(r1)
        assert np.array_equal(a, b)

    def test_singular_pivot_raises(self):
        op = TridiagonalOperator(np.array([1.0, 1.0]), np.array([1.0]), np.array([1.0]))
        with pytest.raises(SingularOperator):
            op.solve(np.ones((2, 1)))

    def test_dimension_mismatch(self):
        op = TridiagonalOperator(np.ones(4), np.zeros(3), np.zeros(3))
        with pytest.raises(DimensionMismatch):
            op.solve(np.ones((5, 1)))


class TestMgsQr:
    def test_orthonormal_input_is_fixed_point(self):
        rng = np.random.default_rng(21)
        q0 = np.linalg.qr(rng.standard_normal((30, 5)))[0]
        q, r = mgs_qr(q0)
        signs = np.sign(np.diag(q.T @ q0))
        assert np.abs(q * signs - q0).max() <= 1e-12
        assert np.abs(r * signs[:, None] - np.eye(5)).max() <= 1e-12

    def test_duplicate_direction_dropped(self):
        v = np.array([3.0, 0.0, 4.0])
        q, r = mgs_qr(np.column_stack([v, 2.0 * v]))
        assert q.shape == (3, 1)
        assert np.abs(r - np.array([[5.0, 10.0]])).max() <= 1e-12

    def test_random_reconstruction(self):
        rng = np.random.default_rng(22)
        m = rng.standard_normal((100, 8))
        q, r = mgs_qr(m)
        assert np.abs(q.T @ q - np.eye(8)).max() <= 1e-12
        assert np.linalg.norm(q @ r - m) <= 1e-12 * np.linalg.norm(m)

    def test_idempotence_up_to_sign(self):
        rng = np.random.default_rng(23)
        q = mgs_qr(rng.standard_normal((40, 6)))[0]
        q2, r2 = mgs_qr(q)
        signs = np.sign(np.diag(r2))
        assert np.abs(q2 * signs - q).max() <= 1e-13

    def test_near_dependent_column_still_reconstructs(self):
        rng = np.random.default_rng(24)
        base = rng.standard_normal((50, 3))
        m = np.column_stack([base, base @ rng.standard_normal(3)])
        q, r = mgs_qr(m)
        assert q.shape[1] == 3
        assert np.linalg.norm(q @ r - m) <= 1e-12 * np.linalg.norm(m)

    def test_ortho_prefix_keeps_block_and_matches_contract(self):
        rng = np.random.default_rng(25)
        q0 = np.linalg.qr(rng.standard_normal((60, 4)))[0]
        m = np.column_stack([q0, rng.standard_normal((60, 5))])
        q, r = mgs_qr(m, ortho_prefix=4)
        assert np.array_equal(q[:, :4], q0)
        k = q.shape[1]
        assert np.abs(q.T @ q - np.eye(k)).max() <= 1e-12
        assert np.linalg.norm(q @ r - m) <= 1e-12 * np.linalg.norm(m)

    def test_wide_input_keeps_at_most_row_count(self):
        rng = np.random.default_rng(26)
        m = rng.standard_normal((4, 7))
        q, r = mgs_qr(m)
        assert q.shape == (4, 4)
        assert r.shape == (4, 7)
        assert np.abs(q.T @ q - np.eye(4)).max() <= 1e-12
        assert np.linalg.norm(q @ r - m) <= 1e-12 * np.linalg.norm(m)

    def test_empty_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            mgs_qr(np.ones((3, 0)))


class TestReducedSvd:
    def test_diagonal_case(self):
        t1, sig, t2 = reduced_svd(np.diag([3.0, 1.0]))
        assert np.allclose(sig, [3.0, 1.0])
        assert np.abs(np.abs(t1) - np.eye(2)).max() <= 1e-14
        assert np.abs(np.abs(t2) - np.eye(2)).max() <= 1e-14

    def test_zero_matrix(self):
        _t1, sig, _t2 = reduced_svd(np.zeros((3, 2)))
        assert (sig <= 1e-300).all()

    def test_matches_gram_eigenvalue_oracle(self):
        rng = np.random.default_rng(31)
        s = rng.standard_normal((20, 20))
        t1, sig, t2 = reduced_svd(s)
        want = np.sqrt(np.maximum(np.linalg.eigvalsh(s.T @ s), 0.0))[::-1]
        assert np.abs(sig - want).max() <= 1e-10 * want[0]
        assert (np.diff(sig) <= 1e-14).all()
        assert np.abs((t1 * sig) @ t2.T - s).max() <= 1e-12 * want[0]
        assert np.abs(t1.T @ t1 - np.eye(20)).max() <= 1e-12


class TestSolveSylvesterDense:
    def test_half_identity_pair(self):
        rng = np.random.default_rng(41)
        b = rng.standard_normal((5, 4))
        x = solve_sylvester_dense(0.5 * np.eye(5), 0.5 * np.eye(4), b)
        assert np.abs(x - b).max() <= 1e-12

    def test_scalar_case(self):
        x = solve_sylvester_dense(np.array([[2.0]]), np.array([[3.0]]), np.array([[10.0]]))
        assert abs(x[0, 0] - 2.0) <= 1e-14

    def test_matches_kronecker_oracle_all_sizes(self):
        rng = np.random.default_rng(42)
        for m in (1, 2, 4, 8, 16):
            for k in (1, 2, 4, 8, 16):
                a1 = rng.standard_normal((m, m)) + 2.0 * m * np.eye(m)
                a2 = rng.standard_normal((k, k)) + 2.0 * k * np.eye(k)
                b = rng.standard_normal((m, k))
                want = kron_sylvester_oracle(a1, a2, b)
                got = solve_sylvester_dense(a1, a2, b)
                scale = max(np.abs(want).max(), 1.0)
                assert np.abs(got - want).max() <= 1e-10 * scale, (m, k)

    def test_spectral_overlap_detected(self):
        a1 = np.array([[1.0]])
        a2 = np.array([[-1.0]])
        with pytest.raises(SpectralOverlap):
            solve_sylvester_dense(a1, a2, np.array([[1.0]]))
