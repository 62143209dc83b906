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
from kryrank.heat import build_heat_operator, heat_initial_condition
from kryrank.krylov import grow_basis, seed_basis
from kryrank.lbfp import (
    SpeciesConfig,
    bi_maxwellian_factors,
    build_lbfp_operators,
    velocity_grid,
)
from kryrank.linalg import (
    TridiagonalOperator,
    _bcgs2,
    mgs_qr,
    reduced_svd,
    solve_sylvester_dense,
    sylvester_schur,
)
from kryrank.lowrank import (
    LowRankFactors,
    conservative_truncate,
    joint_basis,
    lr_add,
    truncate,
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
    """Diagonally dominant circulant tridiagonal: constant bands that wrap around."""
    lo = rng.uniform(-1.0, 1.0)
    up = lo if symmetric else rng.uniform(-1.0, 1.0)
    return TridiagonalOperator(
        np.full(n, 3.0 + rng.uniform(0.0, 1.0)),
        np.full(n - 1, lo),
        np.full(n - 1, up),
        circulant=True,
    )


def variable_periodic_laplacian(rng, n):
    """A[i, j] = L[i, j] * kappa_j for the periodic Laplacian L: zero column sums."""
    kappa = rng.uniform(0.5, 1.5, n) * n * n
    return TridiagonalOperator(-2.0 * kappa, kappa[:-1], kappa[1:], circulant=True)


def as_layout(rng, n, k, layout):
    return np.asarray(rng.standard_normal((n, k)), order=layout)


def indexed_thomas_solve(op, b):
    """The Thomas recurrence indexed row by row.

    Reference for the bitwise check of ``TridiagonalOperator.solve``: it
    reuses only the pivots and multipliers that a first ``op.solve`` cached.
    """
    fact = op._fact
    piv, mult, upper = fact["piv"], fact["mult"], op.upper
    y = b.copy()
    for i in range(op.n - 1):
        y[i + 1] -= mult[i] * y[i]
    y[-1] /= piv[-1]
    for i in range(op.n - 2, -1, -1):
        y[i] = (y[i] - upper[i] * y[i + 1]) / piv[i]
    return y


def per_column_apply(op, x):
    """A @ x for one 1-D column, band by band in the order ``apply`` adds them."""
    y = op.diag * x
    y[1:] += op.lower * x[:-1]
    y[:-1] += op.upper * x[1:]
    if op.circulant:
        y[0] += op.lower[0] * x[-1]
        y[-1] += op.upper[0] * x[0]
    return y


# n in [2, 64], 1 to 8 columns, rhs layout, seed
thomas_cases = st.tuples(
    st.integers(2, 64),
    st.integers(1, 8),
    st.sampled_from(["C", "F"]),
    st.integers(0, 2**32 - 1),
)

# n in [3, 64] or 512, 1 to 8 columns, symmetric or not, rhs layout, seed
circulant_cases = st.tuples(
    st.one_of(st.integers(3, 64), st.just(512)),
    st.integers(1, 8),
    st.booleans(),
    st.sampled_from(["C", "F"]),
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

    @pytest.mark.parametrize("periodic", [False, True])
    def test_apply_is_bitwise_the_same_in_every_layout(self, periodic):
        rng = np.random.default_rng(12)
        n, k = 40, 6
        op = random_circulant(rng, n, False) if periodic else random_dd_tridiag(rng, n)
        x = rng.standard_normal((n, k))
        want = np.column_stack([per_column_apply(op, x[:, j]) for j in range(k)])
        wide = np.zeros((n, 2 * k))
        wide[:, ::2] = x
        operands = {
            "row-major": np.ascontiguousarray(x),
            "column-major": np.asfortranarray(x),
            "transposed view": np.ascontiguousarray(x.T).T,
            "strided view": wide[:, ::2],
        }
        for name, operand in operands.items():
            got = op.apply(operand)
            assert np.array_equal(got, want), name
            if operand.flags.f_contiguous:
                # the result keeps a column-major operand's layout
                assert got.flags.f_contiguous, name
        for j in (0, k - 1):
            assert np.array_equal(op.apply(x[:, j : j + 1]), want[:, j : j + 1])
            with pytest.raises(DimensionMismatch):
                op.apply(x[:, j])

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
        # spec invariant: 256 diagonally dominant non-circulant trials
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
        pair = [0.8, 0.2, -0.1, 1.5]  # (nu, u1, u2, D)
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
        b = as_layout(rng, n, k, layout)
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
        pair = [0.8, 0.2, -0.1, 1.5]  # (nu, u1, u2, D)
        for op in build_lbfp_operators(grid, dv, [pair]):
            assert not op.circulant
        assert not TridiagonalOperator(np.full(8, -2.0), np.ones(7), np.ones(7)).circulant
        # the identity keeps Thomas, so its solve stays exact
        assert not TridiagonalOperator(np.ones(6), np.zeros(5), np.zeros(5)).circulant

        # only constant bands wrap: any other periodic operator fails at construction
        nudged = heat.diag.copy()
        nudged[5] = np.nextafter(nudged[5], 0.0)
        nudged_lower = heat.lower.copy()
        nudged_lower[3] *= 1.0 + 1e-14
        nudged_upper = heat.upper.copy()
        nudged_upper[-1] = np.nextafter(nudged_upper[-1], 0.0)
        cases = [
            (nudged, heat.lower, heat.upper),
            (heat.diag, nudged_lower, heat.upper),
            (heat.diag, heat.lower, nudged_upper),
            # variable coefficients
            (3.0 + rng.uniform(0.0, 1.0, 16), rng.uniform(-1.0, 1.0, 15),
             rng.uniform(-1.0, 1.0, 15)),
            # n = 2: the wrap entries would overlap the off-diagonals
            (np.ones(2), [0.1], [0.1]),
        ]
        for diag, lower, upper in cases:
            with pytest.raises(DimensionMismatch, match="circulant"):
                TridiagonalOperator(diag, lower, upper, circulant=True)

    def test_circulant_solves_match_dense_oracle(self):
        rng = np.random.default_rng(13)
        for n in (3, 8, 512):
            ops = [random_circulant(rng, n, symmetric=True),
                   random_circulant(rng, n, symmetric=False),
                   build_heat_operator(n, 0.5, 1.0 / n).scaled_shifted(0.5, -1e-3)]
            for op in ops:
                assert op.circulant
                for layout in ("C", "F"):
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
            heat.solve(np.ones((n, 1)))
        # a variable-coefficient periodic Laplacian is not circulant
        with pytest.raises(DimensionMismatch):
            variable_periodic_laplacian(np.random.default_rng(n), n)

    def test_dimension_mismatch(self):
        op = TridiagonalOperator(np.ones(4), np.zeros(3), np.zeros(3))
        with pytest.raises(DimensionMismatch):
            op.solve(np.ones((5, 1)))

    @pytest.mark.parametrize("periodic", [False, True])
    def test_operands_are_n_row_blocks(self, periodic):
        rng = np.random.default_rng(15)
        op = random_circulant(rng, 6, False) if periodic else random_dd_tridiag(rng, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for operand in (np.ones(6), np.ones((6, 2, 1))):
                for method in (op.apply, op.solve):
                    with pytest.raises(DimensionMismatch, match="2-D"):
                        method(operand)
            # an integer block is converted, as a float one is
            assert np.array_equal(op.apply(np.eye(6, dtype=int)), op.dense())


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


def column_major_bcgs2(q, cand, drop):
    """``_bcgs2`` written out with every n-by-k product formed column-major, no cap."""
    cand -= ((q.T @ cand).T @ q.T).T
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
    new -= ((q.T @ new).T @ q.T).T
    r_inv = np.linalg.inv(np.linalg.cholesky(new.T @ new)).T
    new[:] = (r_inv.T @ new.T).T
    return new, accepted


class TestGramSchmidtLayouts:
    """``_bcgs2`` forms every product column-major, against a prefix in either
    layout, and keeps its orthonormality and span contract."""

    @pytest.mark.parametrize("shape", ["lomac", "heat-growth"])
    def test_bcgs2_matches_column_major_reference(self, shape):
        q, cand = gram_schmidt_case(shape)
        n, p = q.shape
        # grow_basis's drop: the rounding level of the first projection
        drop = n * np.finfo(float).eps * np.linalg.norm(cand, axis=0)
        picks = []
        for layout in ("C", "F"):
            new, accepted = _bcgs2(
                np.array(q, order=layout), np.array(cand, order="F"), drop, n - p
            )
            assert new.flags.f_contiguous
            full = np.hstack([q, new])
            assert np.linalg.norm(full.T @ full - np.eye(full.shape[1]), 2) <= 1e-13
            assert np.all(span_remainders(full, cand) <= drop)
            want, _ = column_major_bcgs2(
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

    @pytest.mark.parametrize("shape", ["lomac", "heat-growth"])
    @pytest.mark.parametrize("prefix", [True, False])
    def test_mgs_qr_overwrite_works_in_place(self, shape, prefix):
        q0, cand = gram_schmidt_case(shape)
        p = q0.shape[1] if prefix else 0
        m = np.asfortranarray(np.hstack([q0, cand]))
        want_q, want_r = mgs_qr(m, ortho_prefix=p)
        buf = m.copy(order="F")
        q, r = mgs_qr(buf, ortho_prefix=p, overwrite=True)
        # Q is a view of the buffer, with the copying path's bits
        assert np.shares_memory(q, buf) and q.flags.f_contiguous
        assert np.array_equal(q, want_q) and np.array_equal(r, want_r)
        # a row-major input is not the work buffer, so it is left intact
        row = np.ascontiguousarray(m)
        want_q, want_r = mgs_qr(row, ortho_prefix=p)
        q, r = mgs_qr(row, ortho_prefix=p, overwrite=True)
        assert np.array_equal(row, m) and not np.shares_memory(q, row)
        assert np.array_equal(q, want_q) and np.array_equal(r, want_r)

    def test_mgs_qr_prefix_only_is_column_major(self):
        q0, _ = gram_schmidt_case("heat-growth")
        for layout in ("C", "F"):
            m = np.array(q0, order=layout)
            q, r = mgs_qr(m, ortho_prefix=m.shape[1])
            assert np.array_equal(q, m) and not np.shares_memory(q, m)
            assert q.flags.f_contiguous
            assert np.array_equal(r, np.eye(m.shape[1]))
            # only a column-major M is eligible to be the work buffer
            q, _ = mgs_qr(m, ortho_prefix=m.shape[1], overwrite=True)
            assert (q is m) == (layout == "F")
            assert q.flags.f_contiguous and np.array_equal(q, q0)


class TestColumnMajorContract:
    """Every n-by-k block the package returns is column-major, whatever the
    layout of the blocks it was given."""

    n = 64

    def block(self, k, layout, seed=0, orthonormal=False):
        a = np.random.default_rng(seed).standard_normal((self.n, k))
        if orthonormal:
            a = np.linalg.qr(a)[0]
        return np.array(a, order=layout)

    def factors(self, layout, orthonormal):
        u = self.block(3, layout, 1, orthonormal)
        v = self.block(3, layout, 2, orthonormal)
        return LowRankFactors(u, np.diag([3.0, 2.0, 1.0]), v, orthonormal=orthonormal)

    @staticmethod
    def assert_column_major(*blocks):
        for blk in blocks:
            assert blk.shape[1] >= 2 and blk.flags.f_contiguous, blk.shape

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_krylov_bases(self, layout):
        op = random_dd_tridiag(np.random.default_rng(3), self.n)
        for orthonormal in (False, True):
            basis = seed_basis(self.block(3, layout, 4, orthonormal), orthonormal)
            self.assert_column_major(basis.q)
            for _ in range(2):
                basis = grow_basis(basis, op)
                self.assert_column_major(basis.q, basis.fwd_block, basis.inv_block)

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_qr(self, layout):
        prefix = self.block(3, layout, 5, orthonormal=True)
        m = np.array(np.hstack([prefix, self.block(4, "F", 6)]), order=layout)
        for a, p in ((m, 0), (m, 3), (prefix, 3)):
            for overwrite in (False, True):
                q, _ = mgs_qr(a.copy(order="K"), ortho_prefix=p, overwrite=overwrite)
                self.assert_column_major(q)

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_lowrank_operations(self, layout):
        grid, dv = velocity_grid(self.n, 8.0)
        w = np.exp(-(grid**2) / 2.0)
        range_ = np.array(np.column_stack([w, grid * w, grid**2 * w]), order=layout)
        rows = np.stack([np.ones_like(grid), grid, grid**2]) * dv
        modes = np.zeros((4, 3, 3))
        modes[0, 0, 0] = modes[1, 1, 0] = modes[2, 0, 1] = 1.0
        modes[3, 2, 0] = modes[3, 0, 2] = 1.0
        for orthonormal in (False, True):
            f = self.factors(layout, orthonormal)
            g = self.factors(layout, not orthonormal)
            qu, qv, _, _, _ = joint_basis(f, range_, range_)
            self.assert_column_major(qu, qv)
            out = truncate(f, 0.0)
            self.assert_column_major(out.u, out.v)
            target = np.einsum("jab,ab->j", modes, rows @ f.materialize() @ rows.T)
            out = conservative_truncate(f, range_, range_, rows, rows, modes, target, 1e-3)
            self.assert_column_major(out.u, out.v)
            out = lr_add(f, g)
            self.assert_column_major(out.u, out.v)

    def test_initial_conditions(self):
        grid, _ = velocity_grid(self.n, 8.0)
        species = SpeciesConfig("a", mass=1.0, charge=1.0, drift=(1.0, -0.5))
        for f in (heat_initial_condition(self.n), bi_maxwellian_factors(grid, species)):
            self.assert_column_major(f.u, f.v)


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
        a = np.eye(4)
        for bad in (np.nan, np.inf, -np.inf):
            a[2, 1] = bad
            for pair in ((a, np.eye(3)), (np.eye(3), a)):
                with pytest.raises(SpectralOverlap):
                    sylvester_schur(*pair)

    def test_schur_factors_are_bitwise_scipy_schur(self):
        # a non-symmetric pair gets scipy.linalg.schur's T and Z; from m=2 on,
        # since a 1 x 1 pair is symmetric and takes eigh
        rng = np.random.default_rng(46)
        for m in range(2, 41):
            a1 = rng.standard_normal((m, m))
            a2 = np.asfortranarray(rng.standard_normal((m, m)) + m * np.eye(m))
            got = sylvester_schur(a1, a2)
            want = scipy.linalg.schur(a1, output="real") + scipy.linalg.schur(a2, output="real")
            for g, w in zip(got, want):
                assert np.array_equal(g, w), m

    def test_eigen_factors_match_scipy_on_spd_pairs(self):
        rng = np.random.default_rng(44)
        for m in (1, 2, 5, 16, 33, 64):
            for k in (1, 3, 8, 40, 64):
                g1 = rng.standard_normal((m, m))
                g2 = rng.standard_normal((k, k))
                a1 = g1 @ g1.T + 0.1 * np.eye(m)
                a2 = g2 @ g2.T + 0.1 * np.eye(k)
                fac = sylvester_schur(a1, a2)
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
        # an exactly symmetric pair takes eigh, which returns the infinite
        # eigenvalue that eig_denominators alone would pass
        a = np.eye(4)
        a[1, 2] = a[2, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (np.array([[np.inf]]), np.diag([1.0, -np.inf]), a):
                for pair in ((bad, np.eye(3)), (np.eye(3), bad)):
                    with pytest.raises(SpectralOverlap):
                        sylvester_schur(*pair)

    def test_non_square_side_is_spectral_overlap(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2))):
                for pair in ((bad, np.eye(2)), (np.eye(2), bad)):
                    with pytest.raises(SpectralOverlap, match="square"):
                        sylvester_schur(*pair)

    def test_rhs_shape_mismatch_raises(self):
        rng = np.random.default_rng(47)
        a1 = rng.standard_normal((3, 3)) + 6.0 * np.eye(3)
        a2 = np.eye(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for schur in (None, sylvester_schur(a1, a2)):
                for shape in ((4, 3), (3, 3), (3,), (3, 4, 1)):
                    with pytest.raises(DimensionMismatch, match="B must be"):
                        solve_sylvester_dense(a1, a2, np.ones(shape), schur)

    def test_symmetric_spectral_overlap_raises_without_warning(self):
        a1 = np.array([[1.0]])
        a2 = np.array([[-1.0]])
        b = np.array([[1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectralOverlap):
                solve_sylvester_dense(a1, a2, b, sylvester_schur(a1, a2))
            with pytest.raises(SpectralOverlap):
                solve_sylvester_dense(a1, a2, b)

    # (m, delta) -> (eigh path raises, Schur path raises) for A2 = -A1 + delta I,
    # exactly symmetric, and for the same A2 with a2[0, 1] moved one ulp,
    # which takes the Schur path; a 1 x 1 pair is always symmetric, so m = 1
    # has no Schur case (None).  At delta 1e-8 the eigh path's a-priori bound
    # m eps (5 + 5) exceeds 1e-6 sep once m > 4, while the Schur path's
    # measured residual (~1e-7) stays under its 1e-6 check: the
    # factorization-time guard is the stricter one, as its docstring says.
    NEAR_OVERLAP = {
        (1, 1e-3): (False, None), (8, 1e-3): (False, False), (64, 1e-3): (False, False),
        (1, 1e-8): (False, None), (8, 1e-8): (True, False), (64, 1e-8): (True, False),
        (1, 1e-12): (True, None), (8, 1e-12): (True, True), (64, 1e-12): (True, True),
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
        nudged = a2.copy()
        if m > 1:
            nudged[0, 1] = np.nextafter(nudged[0, 1], np.inf)
        b = rng.standard_normal((m, m))
        solved = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cases = zip((a2, nudged), (True, False), self.NEAR_OVERLAP[m, delta])
            for a2_case, eigen, raises in cases:
                if raises is None:
                    continue
                if raises:
                    with pytest.raises(SpectralOverlap):
                        solve_sylvester_dense(a1, a2_case, b, sylvester_schur(a1, a2_case))
                    continue
                fac = sylvester_schur(a1, a2_case)
                assert (fac[0].ndim == 1) == eigen
                x = solve_sylvester_dense(a1, a2_case, b, fac)
                res = np.linalg.norm(a1 @ x + x @ a2_case.T - b)
                assert res <= 1e-6 * np.linalg.norm(b), (eigen, res)
                solved.append(x)
        if delta == 1e-3 and m > 1:
            # both paths solved, and they agree to the conditioning 10 eps / delta
            assert np.abs(solved[0] - solved[1]).max() <= 1e-10 * np.abs(solved[1]).max()
