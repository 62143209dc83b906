"""Dense/banded kernel tests: Thomas and DFT solves, MGS QR, reduced SVD, Sylvester.

Derived expectations are checked against independent oracles built from plain
dense numpy factorizations (LU solve, Kronecker-sum vectorization, eigen
decomposition of S^T S); trivial identities are asserted directly.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from kryrank.dirk import assemble_stage_operator
from kryrank.errors import DimensionMismatch, SingularOperator, SpectralOverlap
from kryrank.heat import build_heat_operator
from kryrank.lbfp import PairCoefficients, build_lbfp_operators, velocity_grid
from kryrank.linalg import (
    TridiagonalOperator,
    _bcgs2,
    mgs_qr,
    reduced_svd,
    solve_sylvester_dense,
    sylvester_schur,
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


def random_dd_tridiag(rng, n):
    lower = rng.uniform(-1.0, 1.0, n - 1)
    upper = rng.uniform(-1.0, 1.0, n - 1)
    diag = 3.0 + rng.uniform(0.0, 1.0, n)
    return TridiagonalOperator(diag, lower, upper)


def random_circulant(rng, n, symmetric):
    """Diagonally dominant circulant tridiagonal: constant bands wrapped by the corners."""
    lo = rng.uniform(-1.0, 1.0)
    up = lo if symmetric else rng.uniform(-1.0, 1.0)
    return TridiagonalOperator(
        np.full(n, 3.0 + rng.uniform(0.0, 1.0)),
        np.full(n - 1, lo),
        np.full(n - 1, up),
        corner_upper=lo,
        corner_lower=up,
    )


def variable_periodic_laplacian(rng, n):
    """A[i, j] = L[i, j] * kappa_j for the periodic Laplacian L: zero column sums."""
    kappa = rng.uniform(0.5, 1.5, n) * n * n
    return TridiagonalOperator(
        -2.0 * kappa, kappa[:-1], kappa[1:], corner_upper=kappa[-1], corner_lower=kappa[0]
    )


def as_layout(rng, n, k, layout):
    if layout == "1-D":
        return rng.standard_normal(n)
    return np.asarray(rng.standard_normal((n, k)), order=layout)


def indexed_thomas_solve(op, b):
    """The Thomas recurrence indexed row by row.

    Reference for the bitwise check of ``TridiagonalOperator.solve``: it
    reuses only the pivots and multipliers that a first ``op.solve`` cached.
    """
    fact = op._fact
    piv, mult, upper = fact["piv"], fact["mult"], op.upper
    y = (b[:, None] if b.ndim == 1 else b).copy()
    for i in range(op.n - 1):
        y[i + 1] -= mult[i] * y[i]
    y[-1] /= piv[-1]
    for i in range(op.n - 2, -1, -1):
        y[i] = (y[i] - upper[i] * y[i + 1]) / piv[i]
    return y[:, 0] if b.ndim == 1 else y


# n in [2, 64], 1 to 8 columns, rhs layout, seed
thomas_cases = st.tuples(
    st.integers(2, 64),
    st.integers(1, 8),
    st.sampled_from(["1-D", "C", "F"]),
    st.integers(0, 2**32 - 1),
)

# n in [3, 64] or 512, 1 to 8 columns, symmetric or not, rhs layout, seed
circulant_cases = st.tuples(
    st.one_of(st.integers(3, 64), st.just(512)),
    st.integers(1, 8),
    st.booleans(),
    st.sampled_from(["1-D", "C", "F"]),
    st.integers(0, 2**32 - 1),
)


class TestTridiagonalOperator:
    def test_apply_matches_dense_matvec(self):
        rng = np.random.default_rng(11)
        for periodic in (False, True):
            for _ in range(8):
                op = random_circulant(rng, 17, False) if periodic else random_dd_tridiag(rng, 17)
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

    def test_scaled_shifted_memo(self):
        rng = np.random.default_rng(9)
        op = random_circulant(rng, 12, symmetric=False)
        before = op.dense()
        first = op.scaled_shifted(0.5, -0.3)
        assert op.scaled_shifted(0.5, -0.3) is first
        assert np.array_equal(first.dense(), 0.5 * np.eye(12) - 0.3 * before)
        other = op.scaled_shifted(0.5, -0.4)
        assert other is not first
        # one slot: the memo holds the last pair only
        assert op.scaled_shifted(0.5, -0.3) is not first
        assert np.array_equal(op.dense(), before)
        assert op._fact is None

    def test_symmetric_flag(self):
        heat = build_heat_operator(16, 0.5, 1.0 / 16)
        assert heat.symmetric
        assert heat.scaled_shifted(0.5, -0.01).symmetric
        assert assemble_stage_operator(heat, 0.01, 0.3).symmetric
        grid, dv = velocity_grid(32, 5.0)
        pair = PairCoefficients(nu=0.8, u1=0.2, u2=-0.1, diffusion=1.5)
        for op in build_lbfp_operators(grid, dv, [pair]):
            assert not op.symmetric
            assert not op.scaled_shifted(0.5, -0.1).symmetric
        rng = np.random.default_rng(10)
        assert not random_circulant(rng, 3, symmetric=False).symmetric
        assert random_circulant(rng, 3, symmetric=True).symmetric
        with pytest.raises(AttributeError):
            heat.symmetric = False

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(thomas_cases)
    def test_solve_is_bitwise_indexed_recurrence(self, case):
        n, k, layout, seed = case
        rng = np.random.default_rng(seed)
        op = random_dd_tridiag(rng, n)
        if layout == "1-D":
            b = rng.standard_normal(n)
        else:
            b = np.asarray(rng.standard_normal((n, k)), order=layout)
        got = op.solve(b)
        want = indexed_thomas_solve(op, b)
        assert got.shape == b.shape
        assert got.tobytes() == want.tobytes()

    def test_singular_pivot_raises(self):
        op = TridiagonalOperator(np.array([1.0, 1.0]), np.array([1.0]), np.array([1.0]))
        with pytest.raises(SingularOperator):
            op.solve(np.ones((2, 1)))

    def test_circulant_flag(self):
        heat = build_heat_operator(16, 0.5, 1.0 / 16)
        assert heat.circulant
        assert heat.scaled_shifted(0.5, -0.01).circulant
        assert assemble_stage_operator(heat, 0.01, 0.3).circulant
        rng = np.random.default_rng(12)
        skew = random_circulant(rng, 9, symmetric=False)
        assert skew.circulant and not skew.symmetric
        with pytest.raises(AttributeError):
            heat.circulant = False

        grid, dv = velocity_grid(32, 5.0)
        pair = PairCoefficients(nu=0.8, u1=0.2, u2=-0.1, diffusion=1.5)
        for op in build_lbfp_operators(grid, dv, [pair]):
            assert not op.circulant
        assert not TridiagonalOperator(np.full(8, -2.0), np.ones(7), np.ones(7)).circulant
        # the identity keeps Thomas, so its solve stays exact
        assert not TridiagonalOperator(np.ones(6), np.zeros(5), np.zeros(5)).circulant

        # corners mean circulant: any other periodic operator fails at construction
        nudged = heat.diag.copy()
        nudged[5] = np.nextafter(nudged[5], 0.0)
        bands = heat.lower.copy()
        bands[3] *= 1.0 + 1e-14
        cases = [
            (nudged, heat.lower, heat.upper, heat.corner_upper, heat.corner_lower),
            (heat.diag, bands, heat.upper, heat.corner_upper, heat.corner_lower),
            (heat.diag, heat.lower, heat.upper, heat.corner_upper, 0.0),
            (heat.diag, heat.lower, heat.upper, 2.0 * heat.corner_upper, heat.corner_lower),
            # variable coefficients with wrap entries
            (3.0 + rng.uniform(0.0, 1.0, 16), rng.uniform(-1.0, 1.0, 15),
             rng.uniform(-1.0, 1.0, 15), 0.3, -0.2),
            # n = 2: the corners overlap the off-diagonals
            (np.ones(2), [0.1], [0.1], 0.1, 0.1),
        ]
        for diag, lower, upper, cu, cl in cases:
            with pytest.raises(DimensionMismatch, match="circulant"):
                TridiagonalOperator(diag, lower, upper, corner_upper=cu, corner_lower=cl)

    def test_circulant_solves_match_dense_oracle(self):
        rng = np.random.default_rng(13)
        for n in (3, 8, 512):
            ops = [random_circulant(rng, n, symmetric=True),
                   random_circulant(rng, n, symmetric=False),
                   build_heat_operator(n, 0.5, 1.0 / n).scaled_shifted(0.5, -1e-3)]
            for op in ops:
                assert op.circulant
                for layout in ("1-D", "C", "F"):
                    b = as_layout(rng, n, 3, layout)
                    got = op.solve(b)
                    want = dense_solve_oracle(op, b)
                    assert got.shape == b.shape
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(circulant_cases)
    def test_circulant_solve_matches_dense_oracle_randomized(self, case):
        n, k, symmetric, layout, seed = case
        rng = np.random.default_rng(seed)
        op = random_circulant(rng, n, symmetric)
        b = as_layout(rng, n, k, layout)
        got = op.solve(b)
        want = dense_solve_oracle(op, b)
        assert got.shape == b.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_circulant_spectrum_matches_dense_eigenvalues(self):
        # the spectrum solves and propagates: A x = irfft(w * rfft(x)), and
        # the eigenvalues of the dense matrix are w and its conjugates
        rng = np.random.default_rng(14)
        for n in (3, 8, 17):
            for symmetric in (True, False):
                op = random_circulant(rng, n, symmetric)
                w = op.circulant_spectrum()
                assert w.shape == (n // 2 + 1,)
                x = rng.standard_normal((n, 2))
                got = np.fft.irfft(w[:, None] * np.fft.rfft(x, axis=0), n, axis=0)
                assert np.abs(got - op.apply(x)).max() <= 1e-13 * np.abs(op.apply(x)).max()
                full = np.concatenate([w, np.conj(w[1 : (n + 1) // 2][::-1])])
                want = np.linalg.eigvals(op.dense())
                for lam in want:
                    assert np.abs(full - lam).min() <= 1e-12 * np.abs(want).max()
        lbfp_like = TridiagonalOperator(np.full(8, -2.0), np.ones(7), np.ones(7))
        with pytest.raises(DimensionMismatch, match="not circulant"):
            lbfp_like.circulant_spectrum()

    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_periodic_null_mode_raises(self, n):
        # the smallest DFT eigenvalue of the null mode sits at rounding level, not at zero
        heat = build_heat_operator(n, 0.5, 1.0 / n)
        assert heat.circulant
        with pytest.raises(SingularOperator):
            heat.solve(np.ones(n))
        # a variable-coefficient periodic Laplacian is not circulant
        with pytest.raises(DimensionMismatch):
            variable_periodic_laplacian(np.random.default_rng(n), n)

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

    def test_columns_near_prefix_span_stay_orthogonal(self):
        # one column in span(prefix) and one in span(prefix, previous column),
        # each to 1e-9 relative: the second is where per-column passes that
        # skip the prefix amplify its rounding-level components to ~1e-8
        rng = np.random.default_rng(27)
        n = 80
        q0 = np.linalg.qr(rng.standard_normal((n, 4)))[0]
        a = rng.standard_normal((n, 2))
        cols = [q0, a]
        in_prefix = q0 @ rng.standard_normal(4)
        for near in (in_prefix, in_prefix + a @ rng.standard_normal(2)):
            e = rng.standard_normal(n)
            cols.append((near + 1e-9 * np.linalg.norm(near) * e / np.linalg.norm(e))[:, None])
        m = np.hstack(cols)
        q, r = mgs_qr(m, ortho_prefix=4)
        assert q.shape == (n, 8)
        assert np.abs(q0.T @ q[:, 4:]).max() <= 1e-13
        assert np.abs(q.T @ q - np.eye(8)).max() <= 1e-13
        assert np.linalg.norm(q @ r - m) <= 1e-13 * np.linalg.norm(m)

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


def gram_schmidt_case(shape):
    """An orthonormal prefix and a candidate block at a shape the program feeds ``_bcgs2``.

    ``lomac``: n=8000, the 8-column state factor and the 3 Maxwellian-weighted
    range columns (w, v w, v^2 w) of ``lbfp.lomac_project``.  ``heat-growth``:
    n=512, a 60-column basis and 20 Gaussian candidates.  Column 1 is
    replaced by a combination of the prefix, so it lies inside span(q).
    """
    rng = np.random.default_rng(len(shape))
    if shape == "lomac":
        n, p = 8000, 8
        grid, _ = velocity_grid(n, 10.0)
        w = np.exp(-(grid**2) / 2.0)
        cand = np.column_stack([w, grid * w, grid**2 * w])
    else:
        n, p = 512, 60
        cand = rng.standard_normal((n, 20))
    q = np.linalg.qr(rng.standard_normal((n, p)))[0]
    cand[:, 1] = q @ rng.standard_normal(p)
    return q, cand


def span_remainders(q, m):
    """Norm of each column of m outside span(q), for orthonormal q."""
    return np.linalg.norm(m - q @ (q.T @ m), axis=0)


def row_major_bcgs2(q, cand, drop):
    """``_bcgs2`` with every product formed row-major (``q @ x``), no cap."""
    cand -= q @ (q.T @ cand)
    accepted = []
    for j in range(cand.shape[1]):
        v = cand[:, j]
        w = cand[:, : len(accepted)]
        for _ in range(2):
            v -= w @ (w.T @ v)
        nrm = np.sqrt(v @ v)
        if nrm > drop[j]:
            cand[:, len(accepted)] = v / nrm
            accepted.append(j)
    new = cand[:, : len(accepted)]
    new -= q @ (q.T @ new)
    new[:] = new @ np.linalg.inv(np.linalg.cholesky(new.T @ new)).T
    return new, accepted


class TestGramSchmidtLayouts:
    """``_bcgs2`` forms its products in a column-major prefix's own layout and
    keeps the row-major products for a row-major one: both keep the contract."""

    @pytest.mark.parametrize("shape", ["lomac", "heat-growth"])
    def test_bcgs2_row_and_column_major_prefix(self, shape):
        q, cand = gram_schmidt_case(shape)
        n, p = q.shape
        # grow_basis's drop: the rounding level of the first projection
        drop = n * np.finfo(float).eps * np.linalg.norm(cand, axis=0)
        picks = []
        for layout in ("C", "F"):
            new, accepted = _bcgs2(
                np.array(q, order=layout), np.array(cand, order="F"), drop, n - p
            )
            full = np.hstack([q, new])
            assert np.linalg.norm(full.T @ full - np.eye(full.shape[1]), 2) <= 1e-13
            assert np.all(span_remainders(full, cand) <= drop)
            # against either prefix the result has the row-major products' bits
            want, _ = row_major_bcgs2(
                np.array(q, order=layout), np.array(cand, order="F"), drop
            )
            assert np.array_equal(new, want)
            picks.append(accepted)
        assert picks[0] == picks[1]
        assert picks[0] == [j for j in range(cand.shape[1]) if j != 1]

    @pytest.mark.parametrize("shape", ["lomac", "heat-growth"])
    def test_mgs_qr_row_and_column_major_input(self, shape):
        prefix, cand = gram_schmidt_case(shape)
        p = prefix.shape[1]
        qs = []
        for layout in ("C", "F"):
            m = np.array(np.hstack([prefix, cand]), order=layout)
            q, r = mgs_qr(m, ortho_prefix=p)
            assert np.array_equal(q[:, :p], prefix)
            assert np.linalg.norm(q.T @ q - np.eye(q.shape[1]), 2) <= 1e-13
            drop = 1e-12 * np.linalg.norm(m)
            assert np.all(span_remainders(q, cand) <= drop)
            assert np.all(np.linalg.norm(q @ r - m, axis=0) <= drop)
            qs.append(q)
        # the kernel works on one column-major copy whatever the input layout
        assert np.array_equal(qs[0], qs[1])
        assert qs[0].shape[1] == p + cand.shape[1] - 1


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
        with pytest.raises(SpectralOverlap):
            solve_sylvester_dense(a1, a2, np.array([[1.0]]), sylvester_schur(a1, a2))

    def test_precomputed_schur_is_bitwise_scipy(self):
        rng = np.random.default_rng(43)
        for m in (1, 2, 4, 8, 16):
            for k in (1, 2, 4, 8, 16):
                a1 = rng.standard_normal((m, m)) + 2.0 * m * np.eye(m)
                a2 = rng.standard_normal((k, k)) + 2.0 * k * np.eye(k)
                schur = sylvester_schur(a1, a2)
                # one factorization serves several right-hand sides
                for _ in range(2):
                    b = rng.standard_normal((m, k))
                    want = scipy.linalg.solve_sylvester(a1, a2.T, b)
                    assert np.array_equal(solve_sylvester_dense(a1, a2, b, schur), want)
                    assert np.array_equal(solve_sylvester_dense(a1, a2, b), want)

    def test_non_finite_operator_is_spectral_overlap(self):
        a1 = np.array([[np.nan]])
        with pytest.raises(SpectralOverlap):
            sylvester_schur(a1, np.eye(1))

    def test_eigen_factors_match_scipy_on_spd_pairs(self):
        rng = np.random.default_rng(44)
        for m in (1, 2, 5, 16, 33, 64):
            for k in (1, 3, 8, 40, 64):
                g1 = rng.standard_normal((m, m))
                g2 = rng.standard_normal((k, k))
                a1 = g1 @ g1.T + 0.1 * np.eye(m)
                a2 = g2 @ g2.T + 0.1 * np.eye(k)
                fac = sylvester_schur(a1, a2, symmetric=True)
                assert fac[0].shape == (m,) and fac[2].shape == (k,)
                b = rng.standard_normal((m, k))
                want = scipy.linalg.solve_sylvester(a1, a2.T, b)
                got = solve_sylvester_dense(a1, a2, b, fac)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (m, k)

    def test_eigen_division_is_bitwise_dtrsyl(self):
        rng = np.random.default_rng(45)
        for m, k in ((5, 7), (64, 40), (140, 140)):
            w1 = rng.uniform(0.1, 3.0, m)
            w2 = rng.uniform(0.1, 3.0, k)
            f = rng.standard_normal((m, k))
            y, scale, info = scipy.linalg.lapack.dtrsyl(np.diag(w1), np.diag(w2), f, tranb="C")
            assert info == 0 and scale == 1.0
            # identity eigenvectors: the back-solve is the division alone
            fac = (w1, np.eye(m), w2, np.eye(k))
            got = solve_sylvester_dense(np.diag(w1), np.diag(w2), f, fac)
            assert np.array_equal(got, y), (m, k)
            assert np.array_equal(f / (w1[:, None] + w2[None, :]), y), (m, k)

    def test_non_finite_symmetric_operator_is_spectral_overlap(self):
        with pytest.raises(SpectralOverlap):
            sylvester_schur(np.array([[np.nan]]), np.eye(1), symmetric=True)

    def test_symmetric_spectral_overlap_raises_without_warning(self):
        a1 = np.array([[1.0]])
        a2 = np.array([[-1.0]])
        b = np.array([[1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sym in (True, False):
                with pytest.raises(SpectralOverlap):
                    solve_sylvester_dense(a1, a2, b, sylvester_schur(a1, a2, symmetric=sym))
            with pytest.raises(SpectralOverlap):
                solve_sylvester_dense(a1, a2, b)

    # (m, delta) -> (eigh path raises, Schur path raises) for A2 = -A1 + delta I.
    # At delta 1e-8 the eigh path's a-priori bound m eps (5 + 5) exceeds
    # 1e-6 sep once m > 4, while the Schur path's measured residual (~1e-7)
    # stays under its 1e-6 check: the factorization-time guard is the
    # stricter one, as its docstring says.
    NEAR_OVERLAP = {
        (1, 1e-3): (False, False), (8, 1e-3): (False, False), (64, 1e-3): (False, False),
        (1, 1e-8): (False, False), (8, 1e-8): (True, False), (64, 1e-8): (True, False),
        (1, 1e-12): (True, True), (8, 1e-12): (True, True), (64, 1e-12): (True, True),
    }

    @pytest.mark.parametrize("m, delta", sorted(NEAR_OVERLAP))
    def test_near_overlapping_spectra(self, m, delta):
        rng = np.random.default_rng(48 + m)
        q = np.linalg.qr(rng.standard_normal((m, m)))[0]
        lam = rng.uniform(1.0, 5.0, m)
        lam[0] = 5.0
        a1 = (q * lam) @ q.T
        a1 = 0.5 * (a1 + a1.T)
        a2 = -a1 + delta * np.eye(m)
        b = rng.standard_normal((m, m))
        solved = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sym, raises in zip((True, False), self.NEAR_OVERLAP[m, delta]):
                if raises:
                    with pytest.raises(SpectralOverlap):
                        solve_sylvester_dense(a1, a2, b, sylvester_schur(a1, a2, sym))
                    continue
                x = solve_sylvester_dense(a1, a2, b, sylvester_schur(a1, a2, sym))
                res = np.linalg.norm(a1 @ x + x @ a2.T - b)
                assert res <= 1e-6 * np.linalg.norm(b), (sym, res)
                solved.append(x)
        if delta == 1e-3:
            # both paths solved, and they agree to the conditioning 10 eps / delta
            assert np.abs(solved[0] - solved[1]).max() <= 1e-10 * np.abs(solved[1]).max()
