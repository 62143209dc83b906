"""Extended Krylov machinery for Sylvester equations in factored form.

For A1 F + F A2^T = B with B = U0 S0 V0^T, orthonormal bases of the spaces
span{U0, A1 U0, A1^{-1} U0, A1^2 U0, ...} (and likewise for A2, V0) are grown
incrementally.  The equation is projected onto them and the small projected
system solved densely.  Writing A Q = Q C + P with P orthogonal to Q on each
side, the residual of F = U S V^T is the hypot of three orthogonal blocks,
C_u S + S C_v^T - B~, P_u S and P_v S^T: an exact check at O(n r^2) BLAS-3
cost per stage, no QR, valid for orthonormal U, V, a twice-projected P and
seed blocks inside the spans.  These hold by construction: each basis starts
with its seed's orthonormal columns, so B~ is the seed's core, formed once
per solve and zero-padded as the bases grow.  A grown candidate is deflated
only when its remainder is at rounding level, so no power chain is cut while
it still adds a direction.
"""

import functools
import math
from contextlib import suppress
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BasisSaturated, DimensionMismatch, MaxIterationsExceeded
from .linalg import (
    _EPS, _bcgs2, _column_major_stack, _times, mgs_qr, solve_sylvester_dense, sylvester_schur,
)
from .lowrank import LowRankFactors


@dataclass
class ExtendedKrylovBasis:
    """Orthonormal basis of an extended Krylov space for one dimension.

    ``fwd_block`` and ``inv_block`` hold the most recent orthonormalized
    images under A and A^{-1}; growth applies the operator to them so each
    call extends the power chain by one in both directions.
    """

    q: np.ndarray
    fwd_block: np.ndarray
    inv_block: np.ndarray

    @property
    def rank(self):
        return self.q.shape[1]


def seed_basis(u0, orthonormal=False):
    if orthonormal:
        # a column-major seed is the basis as it is, with no copy
        q = np.asfortranarray(u0, dtype=float)
    else:
        q, _ = mgs_qr(u0)
    if q.shape[1] == 0:
        raise DimensionMismatch("seed block is numerically zero")
    # growth only reads the staging blocks, so they share q
    return ExtendedKrylovBasis(q, q, q)


def grow_basis(basis, op):
    """Extend the basis by one block of A-images and one of A^{-1}-images.

    The candidates are orthonormalized against the basis by ``_bcgs2``, and a
    candidate c is deflated only at rounding level: when its remainder is at
    most n*eps*||c||, the rounding bound of the first projection's n-term
    inner products, all that a candidate inside span(Q) leaves.  A larger
    remainder is a direction, with its power chain, that later rounds need,
    and ``_bcgs2``'s second pass keeps it orthonormal to Q.  At most n columns
    in total are kept.  Raises BasisSaturated when nothing survives.
    """
    n = basis.q.shape[0]
    if basis.rank >= n:
        raise BasisSaturated("basis already spans the full space")
    nf = basis.fwd_block.shape[1]
    ni = basis.inv_block.shape[1]
    if nf == 0 and ni == 0:
        raise BasisSaturated("both staging blocks are exhausted")
    cand = np.empty((n, nf + ni), order="F")
    if nf:
        cand[:, :nf] = op.apply(basis.fwd_block)
    if ni:
        cand[:, nf:] = op.solve(basis.inv_block)
    drop = n * _EPS * np.linalg.norm(cand, axis=0)
    new, accepted = _bcgs2(basis.q, cand, drop, n - basis.rank)
    if not accepted:
        raise BasisSaturated("no candidate column survived deflation")
    n_fwd = sum(j < nf for j in accepted)
    return ExtendedKrylovBasis(
        _column_major_stack(basis.q, new), new[:, :n_fwd], new[:, n_fwd:]
    )


@dataclass
class GalerkinSystem:
    """Projected system: each side's C = Q^T A Q as ``a1``/``a2``, the
    projected right-hand side ``b``, and each side's P = (I - Q Q^T) A Q."""

    a1: np.ndarray
    a2: np.ndarray
    b: np.ndarray
    p_u: np.ndarray
    p_v: np.ndarray


def _galerkin_side(op, q):
    """Coefficient block C and remainder P of A Q = Q C + P.

    A Q is projected out of Q in two blocked passes, in place; C adds up
    both passes' coefficients, so P is orthogonal to Q to rounding.  For a
    symmetric operator C is symmetrized exactly, so ``sylvester_schur``
    factors it by eigh.  P is column-major like Q (``apply`` keeps the
    layout), and so are both updates.
    """
    p = op.apply(q)
    c = q.T @ p
    p -= _times(q, c)
    c2 = q.T @ p
    p -= _times(q, c2)
    c += c2
    if op.symmetric:
        c = (c + c.T) / 2
    return c, p


def assemble_galerkin(a1, a2, u1, v1, core):
    """Project A1 F + F A2^T = B onto bases U1, V1 that start with the seed
    blocks, B = U1[:, :m1] ``core`` V1[:, :m2]^T: B~ is ``core`` zero-padded."""
    c_u, p_u = _galerkin_side(a1, u1)
    c_v, p_v = _galerkin_side(a2, v1)
    b_red = np.zeros((u1.shape[1], v1.shape[1]))
    b_red[: core.shape[0], : core.shape[1]] = core
    return GalerkinSystem(c_u, c_v, b_red, p_u, p_v)


def residual_norm(system, s1):
    """Frobenius norm of A1 F + F A2^T - B for F = U1 S1 V1^T.

    R = U (C_u S1 + S1 C_v^T - B~) V^T + P_u S1 V^T + U S1 P_v^T, and the
    three terms are mutually orthogonal, so ||R|| is the hypot of
    ||C_u S1 + S1 C_v^T - B~||, ||P_u S1|| and ||P_v S1^T||.
    """
    ru, rv = system.b.shape
    if s1.shape != (ru, rv):
        raise DimensionMismatch("core must be %d x %d, got %s" % (ru, rv, s1.shape))
    galerkin = system.a1 @ s1 + s1 @ system.a2.T - system.b
    blocks = (galerkin, system.p_u @ s1, system.p_v @ s1.T)
    return math.hypot(*(np.linalg.norm(blk) for blk in blocks))


def lte_tolerance(c, dt, order):
    """Residual tolerance matched to the local truncation error, C * dt^(p+1)."""
    if not (0 <= c < math.inf and 0 < dt < math.inf):
        raise DimensionMismatch("need finite C >= 0 and dt > 0, got C=%g, dt=%g" % (c, dt))
    if order < 1:
        raise DimensionMismatch("order must be >= 1")
    return float(c * dt ** (order + 1))


@dataclass
class SolveDiagnostics:
    """Growth count, basis ranks and stage residuals for one adaptive solve."""

    iterations: int
    rank_u: int
    rank_v: int
    stage_residuals: list = field(default_factory=list)
    reject_stages: list = field(default_factory=list)


def stage_sweep(b0, coeff, solve):
    """The DIRK stage recursion, once for every stage solver.

    Yields (B_k, Y_k) for k = 1..s with Y_k = solve(B_k) and
    B_k = B_0 + sum_{l<k} coeff[k,l] * (Y_l - B_l)/coeff[l,l]: projected
    cores in ``adaptive_stage_solve``, dense states in
    ``reference.dense_dirk_step``.  When resumed after stage k < s it forms
    that stage's increment in B_k's own buffer (a fresh n x n array per stage
    faults in new pages, which at n = 256 costs about as much as the stage
    itself), so a caller reads B_k before it resumes; the last B_s is left
    intact, since no stage reads its increment.  ``solve`` must return a new
    array.
    """
    s = coeff.shape[0]
    incs = []
    for k in range(s):
        bk = b0.copy()
        for l in range(k):
            bk += coeff[k, l] * incs[l]
        yk = solve(bk)
        yield bk, yk
        if k + 1 < s:
            np.subtract(yk, bk, out=bk)
            bk /= coeff[k, k]
            incs.append(bk)


def adaptive_stage_solve(ops, b, tol, coeff, max_iter=50):
    """Grow shared bases until every projected stage equation meets the tolerance.

    Parameters
    ----------
    ops : (op1, op2)
        The stage operator pair, shared by every stage (the tables are singly
        diagonally implicit) and used for basis growth.
    b : LowRankFactors
        Factored right-hand side seeding both bases.  Its core in them is
        formed once: ``b.s``, or one projection when ``b`` is not orthonormal.
    tol : float
        Residual tolerance of every stage (strict ``<`` acceptance).
    coeff : (s, s) ndarray
        Lower-triangular stage coefficients; ``stage_sweep`` forms stage k's
        rhs B~1 + sum_{l<k} coeff[k,l] * (S_l - B~_l)/coeff[l,l].

    Returns (u, cores, v, diagnostics); one core per stage.  Any stage
    failing the tolerance rejects the whole sweep and triggers one growth
    round before all stages are retried.  Each round projects and factors
    the pair once (``eigh`` when both projected blocks are symmetric, real
    Schur forms otherwise), and every stage only back-solves.
    """
    op1, op2 = ops
    s = coeff.shape[0]
    ub = seed_basis(b.u, orthonormal=b.orthonormal)
    vb = seed_basis(b.v, orthonormal=b.orthonormal)
    core = b.s if b.orthonormal else (ub.q.T @ b.u) @ b.s @ (b.v.T @ vb.q)
    history = []
    rejects = []
    best = None
    saturated = False
    for m in range(max_iter + 1):
        system = assemble_galerkin(op1, op2, ub.q, vb.q, core)
        schur = sylvester_schur(system.a1, system.a2)
        solve = functools.partial(solve_sylvester_dense, system.a1, system.a2, schur=schur)
        cores = []
        stage_res = []
        for k, (bk, sk) in enumerate(stage_sweep(system.b, coeff, solve)):
            res = residual_norm(replace(system, b=bk), sk)
            stage_res.append(res)
            if k == 0:
                best = LowRankFactors(ub.q, sk, vb.q, orthonormal=True)
            if not (res < tol):
                rejects.append(k)
                break
            cores.append(sk)
        history.append(stage_res[-1])
        if len(cores) == s:
            diag = SolveDiagnostics(m, ub.rank, vb.rank, stage_res, rejects)
            return ub.q, cores, vb.q, diag
        if m == max_iter:
            break
        # free the n x r remainders before growth allocates
        system = schur = None
        grew = False
        with suppress(BasisSaturated):
            ub = grow_basis(ub, op1)
            grew = True
        with suppress(BasisSaturated):
            vb = grow_basis(vb, op2)
            grew = True
        if not grew:
            saturated = True
            break
    exc = MaxIterationsExceeded(
        "stage residual %.3e above tolerance after %d growth rounds%s"
        % (history[-1], len(history) - 1, " (basis saturated)" if saturated else ""),
        best=best,
        history=history,
        saturated=saturated,
    )
    exc.where["stage"] = rejects[-1]
    raise exc


def solve_adaptive(a1, a2, b, eps_tol, max_iter=50):
    """Adaptive-rank solve of A1 F + F A2^T = B to Frobenius residual < eps_tol."""
    u, cores, v, diag = adaptive_stage_solve(
        (a1, a2), b, eps_tol, np.ones((1, 1)), max_iter=max_iter
    )
    return LowRankFactors(u, cores[0], v, orthonormal=True), diag
