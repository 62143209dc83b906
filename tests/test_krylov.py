"""Extended Krylov Sylvester solver: basis growth, Galerkin reduction,
recursive residual identity, tolerance stopping.

Oracles: materialized dense residuals, dense triple products, Kronecker-sum
solves, and projector norms on explicit bases.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kryrank import krylov
from kryrank.errors import (
    BasisSaturated,
    ConvergenceFailure,
    DimensionMismatch,
    MaxIterationsExceeded,
    SpectralOverlap,
)
from kryrank.krylov import (
    ExtendedKrylovBasis,
    assemble_galerkin,
    grow_basis,
    lte_tolerance,
    residual_norm,
    seed_basis,
    solve_adaptive,
)
from kryrank.linalg import TridiagonalOperator, mgs_qr, solve_sylvester_dense
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


def diagonal_op(d):
    return TridiagonalOperator(d, np.zeros(d.size - 1), np.zeros(d.size - 1))


def staged_basis(q, fwd_targets, inv_targets, d):
    """Basis whose next candidates under diag(d) are the targets, to rounding."""
    return ExtendedKrylovBasis(q, fwd_targets / d[:, None], inv_targets * d[:, None])


def orthonormality_loss(q):
    return np.abs(q.T @ q - np.eye(q.shape[1])).max(initial=0.0)


def stage_pair(kind, n):
    """Stage operator pair and seed of the benchmark's two operator families.

    ``heat``: the dirk2 stage operator of the periodic heat workload at
    lambda 400, symmetric, so its projections are diagonalized by ``eigh``.
    ``chang-cooper``: a strongly drifting Chang-Cooper pair (cell Peclet
    number 5 in v1), non-normal, so it takes the real Schur path.
    """
    from kryrank.dirk import assemble_stage_operator, get_table
    from kryrank.heat import build_heat_operator, heat_initial_condition
    from kryrank.lbfp import (
        SpeciesConfig,
        bi_maxwellian_factors,
        build_lbfp_operators,
        velocity_grid,
    )

    akk = get_table("dirk2").a[0, 0]
    if kind == "heat":
        d = build_heat_operator(n, 0.5, 1.0 / n)
        stage = assemble_stage_operator(d, 400.0 / n**2, akk)
        return (stage, stage), heat_initial_condition(n)
    grid, dv = velocity_grid(n, 8.0 * n / 64)
    # one (nu, u1, u2, D) pair row
    d1, d2 = build_lbfp_operators(grid, dv, [[1.0, 6.0, -5.0, 0.3]])
    ops = (assemble_stage_operator(d1, 0.1, akk), assemble_stage_operator(d2, 0.1, akk))
    sp = SpeciesConfig("s", mass=1.0, charge=1.0, drift=(2.0, -1.0))
    return ops, bi_maxwellian_factors(grid, sp)


def kron_band_solver(a1, a2):
    """Banded LU of the Kronecker sum K = I (x) A1 + A2 (x) I of two tridiagonals.

    K is the (n1 n2)-square matrix of A1 X + X A2^T acting on vec(X) in
    column order; its bandwidth is n1 each way.  Returns ``solve(b, trans)``
    for K x = b (trans 0) or K^T x = b (trans 1), by LAPACK ``dgbtrf`` /
    ``dgbtrs``: Gaussian elimination with partial pivoting, independent of
    the Schur/eigh Sylvester path.
    """
    import scipy.sparse

    n1, n2 = a1.n, a2.n
    big = (
        scipy.sparse.kron(scipy.sparse.identity(n2), scipy.sparse.csr_matrix(a1.dense()))
        + scipy.sparse.kron(scipy.sparse.csr_matrix(a2.dense()), scipy.sparse.identity(n1))
    ).todia()
    band = np.zeros((3 * n1 + 1, n1 * n2))
    for off, diag in zip(big.offsets, big.data):
        band[2 * n1 - off] = diag
    lu, piv, info = scipy.linalg.lapack.dgbtrf(band, n1, n1)
    assert info == 0

    def solve(b, trans=0):
        x, info = scipy.linalg.lapack.dgbtrs(lu, n1, n1, b, piv, trans=trans)
        assert info == 0
        return x

    return solve


def inverse_norm_estimate(solve, size, rng, iters=30):
    """||K^-1||_2 by power iteration on K^-T K^-1; converges from below."""
    x = rng.standard_normal((size, 1))
    est = 0.0
    for _ in range(iters):
        x /= np.linalg.norm(x)
        x = solve(solve(x), trans=1)
        est = np.sqrt(np.linalg.norm(x))
    return est


class TestLteTolerance:
    def test_formula_values(self):
        assert abs(lte_tolerance(1.0, 0.1, 1) - 1e-2) <= 1e-16
        assert abs(lte_tolerance(1e-3, 0.1, 2) - 1e-6) <= 1e-20
        assert abs(lte_tolerance(1e-3, 0.5, 3) - 6.25e-5) <= 1e-18

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_constant_or_step_rejected(self, bad):
        # an infinite C would accept every stage at round 0; NaN would spend
        # every growth round before failing
        with pytest.raises(DimensionMismatch):
            lte_tolerance(bad, 0.1, 1)
        with pytest.raises(DimensionMismatch):
            lte_tolerance(1.0, bad, 1)


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

    def test_orthonormal_column_major_seed_is_not_copied(self):
        rng = np.random.default_rng(2)
        q0 = np.asfortranarray(np.linalg.qr(rng.standard_normal((30, 4)))[0])
        basis = seed_basis(q0, orthonormal=True)
        assert np.shares_memory(basis.q, q0)

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
        assert basis.rank == 5  # (2m+1) * r with m = 2 growths, r = 1
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

    def test_candidates_near_span_stay_orthonormal(self):
        # every candidate lies in span(Q) to 1e-9 relative: one projection
        # pass leaves components along Q that the 1e-9 remainder magnifies
        # to ~1e-7 after normalization; the second block pass removes them
        rng = np.random.default_rng(7)
        n = 60
        q = np.linalg.qr(rng.standard_normal((n, 6)))[0]
        d = rng.uniform(1.0, 2.0, n)

        def near_span(k):
            inside = q @ rng.standard_normal((6, k))
            e = rng.standard_normal((n, k))
            return inside + 1e-9 * np.linalg.norm(inside, axis=0) * e / np.linalg.norm(e, axis=0)

        grown = grow_basis(staged_basis(q, near_span(2), near_span(3), d), diagonal_op(d))
        assert grown.rank == 11
        assert (grown.fwd_block.shape[1], grown.inv_block.shape[1]) == (2, 3)
        assert np.array_equal(grown.q[:, :6], q)
        assert orthonormality_loss(grown.q) <= 1e-13

    def test_duplicate_and_zero_candidates_deflated(self):
        rng = np.random.default_rng(8)
        n = 40
        q = np.linalg.qr(rng.standard_normal((n, 3)))[0]
        d = rng.uniform(1.0, 2.0, n)
        x, y = rng.standard_normal((n, 1)), rng.standard_normal((n, 1))
        fwd = np.hstack([x, x, np.zeros((n, 1))])
        inv = np.hstack([2.0 * x, y])
        grown = grow_basis(staged_basis(q, fwd, inv, d), diagonal_op(d))
        # x once from the forward block, y alone from the inverse block
        assert (grown.fwd_block.shape[1], grown.inv_block.shape[1]) == (1, 1)
        assert grown.rank == 5
        assert orthonormality_loss(grown.q) <= 1e-13
        for target in (x, y):
            resid = target - grown.q @ (grown.q.T @ target)
            assert np.linalg.norm(resid) <= 1e-13 * np.linalg.norm(target)
        x_perp = x - q @ (q.T @ x)
        assert abs(abs(grown.fwd_block[:, 0] @ x_perp[:, 0]) - np.linalg.norm(x_perp)) <= 1e-12

    def test_growth_capped_at_row_count(self):
        rng = np.random.default_rng(9)
        n = 8
        q = np.linalg.qr(rng.standard_normal((n, 6)))[0]
        d = rng.uniform(1.0, 2.0, n)
        cand = rng.standard_normal((n, 2))
        grown = grow_basis(staged_basis(q, cand, cand[:, ::-1], d), diagonal_op(d))
        # the two forward candidates fill the space; no inverse column fits
        assert grown.rank == n
        assert (grown.fwd_block.shape[1], grown.inv_block.shape[1]) == (2, 0)
        assert orthonormality_loss(grown.q) <= 1e-13
        with pytest.raises(BasisSaturated):
            grow_basis(grown, diagonal_op(d))


@pytest.fixture(scope="module")
def slow_heat_step():
    """Stage pair, state and tolerance at step 35 of the seed-0 heat benchmark.

    heat-convergence, dirk2, n=512, lambda=400, LoMaC at eps_rel 1e-10: steps
    35-48 took 8-12 growth rounds each while ``grow_basis`` deflated every
    candidate whose remainder fell below 1e-10 of its norm.
    """
    from kryrank.dirk import assemble_stage_operator, dirk_step, get_table
    from kryrank.heat import (
        build_heat_operator,
        discrete_mass,
        heat_grid,
        heat_initial_condition,
        lomac_null_correction,
    )
    from kryrank.lowrank import spectral_scale

    n = 512
    _, dx = heat_grid(n)
    d = build_heat_operator(n, 0.5, dx)
    table = get_table("dirk2")
    dt = 400.0 * dx * dx
    tol = lte_tolerance(1e-3, dt, table.order)
    f = heat_initial_condition(n)
    mass = discrete_mass(f, dx, dx)

    def post(g):
        return lomac_null_correction(g, mass, dx, dx, 1e-10 * spectral_scale(g))

    for _ in range(35):
        f, _diag = dirk_step(f, table, dt, (d, d), tol, post_process=post)
    stage = assemble_stage_operator(d, dt, table.a[0, 0])
    return (stage, stage), f, tol, table, post


class TestCholeskyFinish:
    """A failed Cholesky finish in ``_bcgs2`` is a typed ConvergenceFailure.

    No candidate block built from rounding alone was found to reach it, so
    the factorization is replaced by one that reports a non-positive-definite
    Gram matrix, as LAPACK does for an accepted block that nearly lies inside
    span(q)."""

    @pytest.fixture
    def failing_cholesky(self, monkeypatch):
        def cholesky(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)

    def test_grow_basis_raises_typed(self, failing_cholesky):
        rng = np.random.default_rng(26)
        n = 16
        basis = seed_basis(np.linalg.qr(rng.standard_normal((n, 2)))[0], orthonormal=True)
        with pytest.raises(ConvergenceFailure, match="prefix of rank 2"):
            grow_basis(basis, random_dd_tridiag(rng, n))

    def test_mgs_qr_with_prefix_raises_typed(self, failing_cholesky):
        rng = np.random.default_rng(27)
        q = np.linalg.qr(rng.standard_normal((16, 3)))[0]
        m = np.column_stack([q, rng.standard_normal((16, 2))])
        with pytest.raises(ConvergenceFailure, match="2 columns after a prefix of rank 3"):
            mgs_qr(m, ortho_prefix=3)

    def test_adaptive_solve_does_not_swallow_it(self, failing_cholesky):
        # growth suppresses BasisSaturated only
        rng = np.random.default_rng(28)
        n = 16
        a1 = random_dd_tridiag(rng, n)
        with pytest.raises(ConvergenceFailure):
            solve_adaptive(a1, a1, random_rhs(rng, n, n, 2), 1e-12)


class TestRoundingLevelDeflation:
    """``grow_basis`` keeps every candidate whose remainder is above rounding."""

    def test_slow_heat_steps_converge_in_one_or_two_rounds(self, slow_heat_step):
        ops, f, tol, table, post = slow_heat_step
        rounds = []
        for _step in range(35, 49):
            u, cores, v, diag = krylov.adaptive_stage_solve(ops, f, tol, table.a)
            assert len(diag.stage_residuals) == table.stages
            assert max(diag.stage_residuals) < tol
            rounds.append(diag.iterations)
            f = post(LowRankFactors(u, cores[-1], v, orthonormal=True))
        # measured: one round in each of these steps, 8-12 under 1e-10
        assert max(rounds) <= 2, rounds

    def test_growth_past_rank_100_stays_orthonormal(self, slow_heat_step):
        ops, f, _tol, _table, _post = slow_heat_step
        basis = seed_basis(f.u, orthonormal=True)
        grown = grow_basis(basis, ops[0])
        # 11 of the 12 first candidates carry a remainder above rounding, 5 of
        # them below 1e-10 of their norm
        assert grown.rank - basis.rank >= 10
        while grown.rank <= 100:
            grown = grow_basis(grown, ops[0])
        loss = np.linalg.norm(grown.q.T @ grown.q - np.eye(grown.rank), 2)
        # measured 3.2e-15 at rank 127; one Gram-Schmidt pass leaves O(1)
        assert loss <= 1e-13


COLUMN_KINDS = ("random", "duplicate", "zero", "near")


def candidate_block(rng, prefix, kinds):
    """Columns of the given kinds after an orthonormal prefix.

    "random" is Gaussian with a scale in [1e-2, 1e2]; "duplicate" a scaled
    copy of an earlier column, prefix included; "zero" is zero; "near" lies in
    the span of every earlier column, plus a remainder orthogonal to it of
    1e-9 of its norm (none when that span is the whole space).
    """
    n = prefix.shape[0]
    cols = []
    for kind in kinds:
        earlier = np.column_stack([prefix] + cols)
        if kind == "zero":
            c = np.zeros(n)
        elif kind == "random" or earlier.shape[1] == 0:
            c = 10.0 ** rng.uniform(-2.0, 2.0) * rng.standard_normal(n)
        elif kind == "duplicate":
            c = rng.uniform(-3.0, 3.0) * earlier[:, rng.integers(earlier.shape[1])]
        else:
            c = earlier @ rng.standard_normal(earlier.shape[1])
            span = scipy.linalg.orth(earlier)
            e = rng.standard_normal(n)
            e -= span @ (span.T @ e)
            if span.shape[1] < n and np.linalg.norm(c) > 0.0:
                c += 1e-9 * np.linalg.norm(c) * e / np.linalg.norm(e)
        cols.append(c)
    return np.column_stack(cols)


def span_remainders(q, m):
    """Norm of each column of m outside span(q), against an SVD basis of q."""
    span = scipy.linalg.orth(q) if q.shape[1] else q
    return np.linalg.norm(m - span @ (span.T @ m), axis=0)


# n in [8, 64]; a prefix of up to n - 1 columns; blocks of up to n + 8 columns
block_cases = st.integers(8, 64).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(0, n - 1),
        st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=n + 8),
        st.integers(0, 2**32 - 1),
    )
)


class TestBlockGramSchmidtProperties:
    """One BCGS2 kernel behind ``mgs_qr`` and ``grow_basis``, on adversarial blocks."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(block_cases)
    def test_mgs_qr(self, case):
        n, p, kinds, seed = case
        rng = np.random.default_rng(seed)
        prefix = np.linalg.qr(rng.standard_normal((n, p)))[0]
        m = np.hstack([prefix, candidate_block(rng, prefix, kinds)])
        q, r = mgs_qr(m, ortho_prefix=p)
        assert q.shape[1] <= n
        assert np.array_equal(q[:, :p], prefix)
        assert orthonormality_loss(q) <= 1e-13
        # every column is reproduced up to the drop threshold, 1e-12 ||M||_F
        drop = 1e-12 * np.linalg.norm(m)
        assert np.all(np.linalg.norm(q @ r - m, axis=0) <= drop + 1e-14 * np.linalg.norm(m))

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(block_cases)
    def test_grow_basis(self, case):
        n, r, kinds, seed = case
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((n, r + 1)))[0]
        cand = candidate_block(rng, q, kinds)
        nf = int(rng.integers(cand.shape[1] + 1))
        d = rng.uniform(1.0, 2.0, n)
        basis = staged_basis(q, cand[:, :nf], cand[:, nf:], d)
        # a candidate survives when its remainder exceeds n * eps of its norm
        # (rounding level); the column kinds keep every remainder far from it
        drop = n * np.finfo(float).eps * np.linalg.norm(cand, axis=0)
        outside = span_remainders(q, cand) > drop
        try:
            grown = grow_basis(basis, diagonal_op(d))
        except BasisSaturated:
            assert not outside.any()
            return
        assert outside.any()
        assert grown.rank <= n
        assert np.array_equal(grown.q[:, : r + 1], q)
        assert orthonormality_loss(grown.q) <= 1e-13
        new = np.hstack([grown.fwd_block, grown.inv_block])
        assert np.array_equal(new, grown.q[:, r + 1 :])
        assert grown.fwd_block.shape[1] <= nf
        assert grown.inv_block.shape[1] <= cand.shape[1] - nf
        remainders = span_remainders(grown.q, cand)
        assert np.all(remainders <= drop + 1e-13)


class TestGalerkinAssembly:
    def test_full_basis_reduces_to_dense(self):
        rng = np.random.default_rng(11)
        n = 10
        a1 = random_dd_tridiag(rng, n)
        a2 = random_dd_tridiag(rng, n)
        b = random_rhs(rng, n, n, 2)
        eye = np.eye(n)
        sys = assemble_galerkin(a1, a2, eye, eye, b.materialize())
        assert np.abs(sys.a1 - a1.dense()).max() <= 1e-13
        assert np.abs(sys.a2 - a2.dense()).max() <= 1e-13
        assert np.abs(sys.b - b.materialize()).max() <= 1e-13

    def test_seed_core_is_zero_padded(self):
        # B = U[:, :m1] core V[:, :m2]^T in seed-prefixed bases: the padded
        # core is the projection U^T B V, with no product formed
        rng = np.random.default_rng(12)
        n = 12
        a1 = random_dd_tridiag(rng, n)
        a2 = random_dd_tridiag(rng, n)
        u = np.linalg.qr(rng.standard_normal((n, 5)))[0]
        v = np.linalg.qr(rng.standard_normal((n, 4)))[0]
        core = rng.standard_normal((2, 3))
        sys = assemble_galerkin(a1, a2, u, v, core)
        assert sys.b.shape == (5, 4)
        assert np.array_equal(sys.b[:2, :3], core)
        assert np.count_nonzero(sys.b) == np.count_nonzero(core)
        want = u.T @ (u[:, :2] @ core @ v[:, :3].T) @ v
        assert np.abs(sys.b - want).max() <= 1e-14 * np.abs(core).max()

    def test_reduced_operator_matches_triple_product(self):
        rng = np.random.default_rng(13)
        n = 32
        a1 = random_dd_tridiag(rng, n)
        a2 = random_dd_tridiag(rng, n)
        u1 = np.linalg.qr(rng.standard_normal((n, 5)))[0]
        v1 = np.linalg.qr(rng.standard_normal((n, 5)))[0]
        b = random_rhs(rng, n, n, 2)
        sys = assemble_galerkin(a1, a2, u1, v1, u1.T @ b.materialize() @ v1)
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
        sys = assemble_galerkin(a1, a2, eye, eye, b.materialize())
        s1 = solve_sylvester_dense(sys.a1, sys.a2, sys.b)
        assert residual_norm(sys, s1) <= 1e-10 * lr_frobenius(b)

    def test_zero_inputs(self):
        rng = np.random.default_rng(22)
        n = 8
        a1 = random_dd_tridiag(rng, n)
        a2 = random_dd_tridiag(rng, n)
        e = np.eye(n)
        b = LowRankFactors(e[:, :1], np.array([[1.0]]), e[:, 5:6], orthonormal=True)
        proj = e[:, :2].T @ b.materialize() @ e[:, :2]
        sys = assemble_galerkin(a1, a2, e[:, :2], e[:, :2], proj)
        assert residual_norm(sys, np.zeros((2, 2))) == 0.0

    def test_partial_basis_matches_dense_residual(self):
        rng = np.random.default_rng(23)
        n = 64
        a1 = random_dd_tridiag(rng, n)
        a2 = random_dd_tridiag(rng, n)
        b = random_rhs(rng, n, n, 2)
        basis_u = grow_basis(seed_basis(b.u, orthonormal=True), a1)
        basis_v = grow_basis(seed_basis(b.v, orthonormal=True), a2)
        sys = assemble_galerkin(a1, a2, basis_u.q, basis_v.q, b.s)
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
            sys = assemble_galerkin(a1, a2, bu.q, bv.q, b.s)
            s1 = solve_sylvester_dense(sys.a1, sys.a2, sys.b)
            f = LowRankFactors(bu.q, s1, bv.q, orthonormal=True)
            want = dense_residual_oracle(a1, a2, b, f)
            got = residual_norm(sys, s1)
            assert abs(got - want) <= 1e-9 * max(want, 1e-30), trial


    @pytest.mark.parametrize("kind, n", [("heat", 512), ("chang-cooper", 64)])
    def test_identity_at_benchmark_scale(self, kind, n):
        (a1, a2), b = stage_pair(kind, n)
        assert a1.symmetric == (kind == "heat")
        bu = seed_basis(b.u, orthonormal=b.orthonormal)
        bv = seed_basis(b.v, orthonormal=b.orthonormal)
        for rounds in (1, 2, 3):
            bu, bv = grow_basis(bu, a1), grow_basis(bv, a2)
            sys = assemble_galerkin(a1, a2, bu.q, bv.q, b.s)
            s1 = solve_sylvester_dense(sys.a1, sys.a2, sys.b)
            f = LowRankFactors(bu.q, s1, bv.q, orthonormal=True)
            want = dense_residual_oracle(a1, a2, b, f)
            assert abs(residual_norm(sys, s1) - want) <= 1e-9 * want, rounds

    @pytest.mark.parametrize("kind", ["heat", "chang-cooper"])
    def test_saturated_basis_leaves_only_the_galerkin_block(self, kind):
        (a1, a2), b = stage_pair(kind, 16)
        bases = []
        for op, seed in ((a1, b.u), (a2, b.v)):
            basis = seed_basis(seed, orthonormal=b.orthonormal)
            with pytest.raises(BasisSaturated):
                while True:
                    basis = grow_basis(basis, op)
            assert basis.rank == 16
            bases.append(basis.q)
        sys = assemble_galerkin(a1, a2, bases[0], bases[1], b.s)
        for op, p in ((a1, sys.p_u), (a2, sys.p_v)):
            assert np.abs(p).max() <= 1e-14 * np.abs(op.dense()).max()
        # a core far from the solution, so the Galerkin block is O(1)
        s1 = np.random.default_rng(25).standard_normal((16, 16))
        galerkin = np.linalg.norm(sys.a1 @ s1 + s1 @ sys.a2.T - sys.b)
        got = residual_norm(sys, s1)
        assert abs(got - galerkin) <= 1e-14 * galerkin
        f = LowRankFactors(bases[0], s1, bases[1], orthonormal=True)
        want = dense_residual_oracle(a1, a2, b, f)
        assert abs(got - want) <= 1e-9 * want


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
        assert diag.stage_residuals[-1] < eps
        f_dense = solve_sylvester_dense(a_op.dense(), a_op.dense(), b.materialize())
        assert np.linalg.norm(f.materialize() - f_dense) <= 10.0 * eps

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(
        n=st.sampled_from([8, 16, 24, 32, 48, 64]),
        peclet=st.floats(1.0, 10.0),
        drift=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
        dt=st.floats(0.01, 1.0),
        rtol=st.sampled_from([1e-4, 1e-6, 1e-8, 1e-10]),
        seed=st.integers(0, 2**16),
    )
    @example(n=64, peclet=10.0, drift=(4.0, -4.0), dt=1.0, rtol=1e-10, seed=0)
    @example(n=64, peclet=10.0, drift=(-4.0, 1.0), dt=0.05, rtol=1e-8, seed=1)
    def test_drifting_chang_cooper_matches_kronecker(self, n, peclet, drift, dt, rtol, seed):
        from kryrank.dirk import assemble_stage_operator
        from kryrank.lbfp import build_lbfp_operators, velocity_grid

        # the diffusion sets the largest cell Peclet number dv |v - u| / D
        # over both directions' faces to ``peclet``: non-normal stage pairs
        grid, dv = velocity_grid(n, 8.0)
        faces = grid[:-1] + 0.5 * dv
        reach = max(np.abs(faces - u).max() for u in drift)
        pair = [1.0, drift[0], drift[1], dv * reach / peclet]  # (nu, u1, u2, D)
        a1, a2 = (
            assemble_stage_operator(d, dt, 1.0)
            for d in build_lbfp_operators(grid, dv, [pair])
        )
        rng = np.random.default_rng(seed)
        b = random_rhs(rng, n, n, 2)
        eps = rtol * lr_frobenius(b)
        f, diag = solve_adaptive(a1, a2, b, eps)
        assert diag.stage_residuals[-1] < eps
        solve = kron_band_solver(a1, a2)
        want = solve(b.materialize().reshape(-1, 1, order="F")).reshape((n, n), order="F")
        # F - F* = K^-1 vec(R) with ||R|| < eps; the factor 2 covers the
        # estimate from below, the second term the oracle's own rounding
        kinv = inverse_norm_estimate(solve, n * n, rng)
        err = np.linalg.norm(f.materialize() - want)
        assert err <= 2.0 * kinv * eps + 1e-12 * np.linalg.norm(want)

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

    def test_symmetric_operators_factored_by_eigh(self, monkeypatch):
        from kryrank.dirk import assemble_stage_operator
        from kryrank.heat import build_heat_operator, heat_initial_condition

        t_ndims = []
        factor = krylov.sylvester_schur

        def counted(a1, a2):
            fac = factor(a1, a2)
            t_ndims.append(fac[0].ndim)
            return fac

        monkeypatch.setattr(krylov, "sylvester_schur", counted)
        n = 64
        a_op = assemble_stage_operator(build_heat_operator(n, 0.5, 1.0 / n), 0.01, 1.0)
        _f, diag = solve_adaptive(a_op, a_op, heat_initial_condition(n), 1e-8)
        assert diag.stage_residuals[-1] < 1e-8
        # eigenvalues (1-D T) for heat's symmetrized blocks
        assert t_ndims and set(t_ndims) == {1}
        rng = np.random.default_rng(35)
        a1 = random_dd_tridiag(rng, n)
        assert not a1.symmetric
        t_ndims.clear()
        solve_adaptive(a1, a_op, random_rhs(rng, n, n, 2), 1e-8)
        # quasi-triangular Schur forms (2-D T) for a non-symmetric pair
        assert t_ndims and set(t_ndims) == {2}

    def test_symmetric_spectral_overlap_is_typed(self):
        n = 12
        rng = np.random.default_rng(36)
        plus = identity_op(n)
        minus = TridiagonalOperator(-np.ones(n), np.zeros(n - 1), np.zeros(n - 1))
        assert plus.symmetric and minus.symmetric
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectralOverlap):
                solve_adaptive(plus, minus, random_rhs(rng, n, n, 2), 1e-8)

    def test_rank_deficient_seed_meets_tolerance(self):
        from kryrank.dirk import assemble_stage_operator
        from kryrank.heat import build_heat_operator

        rng = np.random.default_rng(37)
        n = 32
        u = rng.standard_normal((n, 1))
        v = rng.standard_normal((n, 1))
        # duplicated columns: [u, u] and [v, 2v] seed rank-1 bases
        b = LowRankFactors(np.hstack([u, u]), np.eye(2), np.hstack([v, 2.0 * v]))
        eps = 1e-8 * lr_frobenius(b)
        stage = assemble_stage_operator(build_heat_operator(n, 0.5, 1.0 / n), 0.01, 0.5)
        pairs = [(random_dd_tridiag(rng, n), random_dd_tridiag(rng, n)), (stage, stage)]
        for a1, a2 in pairs:
            f, diag = solve_adaptive(a1, a2, b, eps)
            assert diag.stage_residuals[-1] < eps
            assert dense_residual_oracle(a1, a2, b, f) < eps

    def test_non_orthonormal_seed_core_formed_once(self):
        # a seed that is not orthonormal enters as its projection onto the
        # seed bases, padded as they grow; a repeated column and one at
        # 1e-14 scale make it rank-deficient, and its dropped remainder
        # (~1e-14) stays far below the residual at this tolerance
        rng = np.random.default_rng(39)
        n = 40
        a1 = random_dd_tridiag(rng, n)
        a2 = random_dd_tridiag(rng, n)
        u = rng.standard_normal((n, 2))
        v = rng.standard_normal((n, 3))
        deficient = LowRankFactors(
            np.column_stack([u[:, 0], u[:, 1], u[:, 0], 1e-14 * rng.standard_normal(n)]),
            rng.standard_normal((4, 4)),
            np.column_stack([v[:, 0], v[:, 1], 1e-14 * rng.standard_normal(n), v[:, 2]]),
        )
        full_rank = LowRankFactors(u, rng.standard_normal((2, 3)), v)
        for b in (deficient, full_rank):
            eps = 1e-4 * lr_frobenius(b)
            f, diag = solve_adaptive(a1, a2, b, eps)
            assert diag.iterations >= 1
            got = diag.stage_residuals[-1]
            want = dense_residual_oracle(a1, a2, b, f)
            assert got < eps
            assert abs(got - want) <= 1e-9 * want

    def test_zero_seed_raises(self):
        rng = np.random.default_rng(38)
        n = 16
        a1 = random_dd_tridiag(rng, n)
        b = LowRankFactors(np.zeros((n, 2)), np.eye(2), rng.standard_normal((n, 2)))
        with pytest.raises(DimensionMismatch, match="seed block is numerically zero"):
            solve_adaptive(a1, a1, b, 1e-8)

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
        assert info.value.saturated is False

    def test_failure_names_the_rejected_stage(self, monkeypatch):
        # stage 0 always passes and stage 1 never does, so every round rejects stage 1
        from kryrank.dirk import get_table

        calls = []

        def residual_norm(system, core):
            calls.append(core)
            return 0.0 if len(calls) % 2 else 1.0

        monkeypatch.setattr(krylov, "residual_norm", residual_norm)
        rng = np.random.default_rng(39)
        a1, a2 = random_dd_tridiag(rng, 16), random_dd_tridiag(rng, 16)
        b = random_rhs(rng, 16, 16, 2)
        with pytest.raises(MaxIterationsExceeded) as info:
            krylov.adaptive_stage_solve((a1, a2), b, 1e-3, get_table("dirk2").a, max_iter=1)
        assert info.value.where == {"stage": 1}
        assert len(calls) == 4

    @pytest.mark.parametrize("kind", ["heat", "chang-cooper"])
    def test_rounding_level_tolerance_saturates(self, kind):
        (a1, a2), b = stage_pair(kind, 16)
        with pytest.raises(MaxIterationsExceeded, match="basis saturated") as info:
            solve_adaptive(a1, a2, b, 1e-18 * lr_frobenius(b))
        exc = info.value
        assert exc.saturated is True
        assert exc.best is not None and exc.best.u.shape[1] == 16
        assert len(exc.history) >= 2
