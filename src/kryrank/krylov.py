"""Extended Krylov machinery for Sylvester equations in factored form.

For A1 F + F A2^T = B with B = U0 S0 V0^T, orthonormal bases of the spaces
span{U0, A1 U0, A1^{-1} U0, A1^2 U0, ...} (and likewise for A2, V0) are grown
incrementally.  The equation is projected onto them and the small projected
system solved densely; the Frobenius residual of the full equation is
recovered exactly from triangular factors of [Q, A Q] at O(r^3) cost, valid
because the seed blocks lie inside the spans.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BasisSaturated, DimensionMismatch, MaxIterationsExceeded
from .linalg import mgs_qr, solve_sylvester_dense
from .lowrank import LowRankFactors

# relative deflation threshold for new basis columns
_GROW_DROP = 1e-10


@dataclass
class ExtendedKrylovBasis:
    """Orthonormal basis of an extended Krylov space for one dimension.

    ``fwd_block`` and ``inv_block`` hold the most recent orthonormalized
    images under A and A^{-1}; growth applies the operator to them so each
    call extends the power chain by one in both directions.
    """

    q: np.ndarray
    m: int
    seed_rank: int
    fwd_block: np.ndarray
    inv_block: np.ndarray

    @property
    def rank(self):
        return self.q.shape[1]


def seed_basis(u0, orthonormal=False):
    u0 = np.asarray(u0, dtype=float)
    q, _ = mgs_qr(u0, ortho_prefix=u0.shape[1] if orthonormal else 0)
    if q.shape[1] == 0:
        raise DimensionMismatch("seed block is numerically zero")
    return ExtendedKrylovBasis(q, 0, q.shape[1], q.copy(), q.copy())


def grow_basis(basis, op):
    """Extend the basis by one block of A-images and one of A^{-1}-images.

    New columns are orthogonalized against the whole basis (two passes) and
    deflated when their residual norm drops below 1e-10 of the incoming
    column norm.  Raises BasisSaturated when nothing survives.
    """
    n = basis.q.shape[0]
    if basis.rank >= n:
        raise BasisSaturated("basis already spans the full space")
    nf = basis.fwd_block.shape[1]
    ni = basis.inv_block.shape[1]
    if nf == 0 and ni == 0:
        raise BasisSaturated("both staging blocks are exhausted")
    blocks = []
    kinds = []
    if nf:
        blocks.append(op.apply(basis.fwd_block))
        kinds += ["f"] * nf
    if ni:
        blocks.append(op.solve(basis.inv_block))
        kinds += ["i"] * ni
    cand = np.hstack(blocks)
    orig = np.linalg.norm(cand, axis=0)
    q = basis.q
    accepted = []
    accepted_kinds = []
    for j in range(cand.shape[1]):
        if basis.rank + len(accepted) >= n:
            break
        v = cand[:, j].copy()
        for _ in range(2):
            v -= q @ (q.T @ v)
            for w in accepted:
                v -= w * (w @ v)
        nrm = np.linalg.norm(v)
        if orig[j] > 0 and nrm > _GROW_DROP * orig[j]:
            accepted.append(v / nrm)
            accepted_kinds.append(kinds[j])
    if not accepted:
        raise BasisSaturated("no candidate column survived deflation")
    new = np.column_stack(accepted)
    fwd = new[:, [i for i, k in enumerate(accepted_kinds) if k == "f"]]
    inv = new[:, [i for i, k in enumerate(accepted_kinds) if k == "i"]]
    return ExtendedKrylovBasis(
        np.hstack([q, new]), basis.m + 1, basis.seed_rank, fwd, inv
    )


@dataclass
class GalerkinSystem:
    """Projected Sylvester system plus the triangular residual factors."""

    a1: np.ndarray
    a2: np.ndarray
    b: np.ndarray
    r_u: np.ndarray
    r_v: np.ndarray


def _galerkin_side(op, q):
    """Reduced operator Q^T A Q and the R factor of a QR of [Q, A Q].

    Only R enters the residual identity, and any orthogonal factorization of
    [Q, A Q] yields the same norm, so the A Q block is projected out of Q in
    two blocked passes and the remainder goes through a dense QR.
    """
    aq = op.apply(q)
    a_red = q.T @ aq
    p = aq - q @ a_red
    c2 = q.T @ p
    p -= q @ c2
    r = q.shape[1]
    r2 = np.linalg.qr(p, mode="r")
    r_fac = np.zeros((r + r2.shape[0], 2 * r))
    r_fac[:r, :r] = np.eye(r)
    r_fac[:r, r:] = a_red + c2
    r_fac[r:, r:] = r2
    return a_red, r_fac


def _reduced_rhs(b, qu, qv):
    return (qu.T @ b.u) @ b.s @ (b.v.T @ qv)


def assemble_galerkin(a1, a2, u1, v1, b):
    """Project A1 F + F A2^T = B onto bases U1, V1."""
    a1_red, r_u = _galerkin_side(a1, u1)
    a2_red, r_v = _galerkin_side(a2, v1)
    return GalerkinSystem(a1_red, a2_red, _reduced_rhs(b, u1, v1), r_u, r_v)


def residual_norm(system, s1):
    """Frobenius norm of A1 F + F A2^T - B for F = U1 S1 V1^T.

    Uses the identity R = [U1, A1 U1] [[-B~, S1], [S1, 0]] [V1, A2 V1]^T,
    so only the triangular QR factors of the bracketed blocks enter.
    """
    ru, rv = system.b.shape
    if s1.shape != (ru, rv):
        raise DimensionMismatch("core must be %d x %d, got %s" % (ru, rv, s1.shape))
    mid = np.zeros((2 * ru, 2 * rv))
    mid[:ru, :rv] = -system.b
    mid[:ru, rv:] = s1
    mid[ru:, :rv] = s1
    return float(np.linalg.norm(system.r_u @ mid @ system.r_v.T))


def lte_tolerance(c, dt, order):
    """Residual tolerance matched to the local truncation error, C * dt^(p+1)."""
    if c < 0 or dt <= 0:
        raise DimensionMismatch("need C >= 0 and dt > 0")
    if order < 1:
        raise DimensionMismatch("order must be >= 1")
    return float(c * dt ** (order + 1))


@dataclass
class SolveDiagnostics:
    """Growth count, final residual and basis ranks for one adaptive solve."""

    iterations: int
    residual: float
    rank_u: int
    rank_v: int
    history: list = field(default_factory=list)
    saturated: bool = False
    stage_residuals: list = field(default_factory=list)
    reject_stages: list = field(default_factory=list)


def _stage_side(cache, op, q):
    key = id(op)
    if key not in cache:
        cache[key] = _galerkin_side(op, q)
    return cache[key]


def adaptive_stage_solve(stage_ops, b, tols, coeff, max_iter=50):
    """Grow shared bases until every projected stage equation meets its tolerance.

    Parameters
    ----------
    stage_ops : list of (op1, op2)
        Per-stage operator pairs; growth always uses the first pair.
    b : LowRankFactors
        Factored right-hand side seeding both bases.
    tols : sequence of float
        Per-stage residual tolerances (strict ``<`` acceptance).
    coeff : (s, s) ndarray
        Lower-triangular stage coefficients; stage k's rhs is
        B~1 + sum_{l<k} coeff[k,l] * (S_l - B~_l)/coeff[l,l].

    Returns (u, cores, v, diagnostics); one core per stage.  Any stage
    failing its tolerance rejects the whole sweep and triggers one growth
    round before all stages are retried.
    """
    s = len(stage_ops)
    if len(tols) != s:
        raise DimensionMismatch("need one tolerance per stage")
    ub = seed_basis(b.u, orthonormal=b.orthonormal)
    vb = seed_basis(b.v, orthonormal=b.orthonormal)
    history = []
    rejects = []
    best = None
    saturated = False
    for m in range(max_iter + 1):
        cache1, cache2 = {}, {}
        b1 = _reduced_rhs(b, ub.q, vb.q)
        increments = []
        cores = []
        stage_res = []
        ok = True
        for k in range(s):
            op1, op2 = stage_ops[k]
            a1_red, r_u = _stage_side(cache1, op1, ub.q)
            a2_red, r_v = _stage_side(cache2, op2, vb.q)
            bk = b1.copy()
            for l in range(k):
                bk += coeff[k, l] * increments[l]
            sk = solve_sylvester_dense(a1_red, a2_red, bk)
            res = residual_norm(GalerkinSystem(a1_red, a2_red, bk, r_u, r_v), sk)
            stage_res.append(res)
            if k == 0:
                best = LowRankFactors(ub.q, sk, vb.q, orthonormal=True)
            if not (res < tols[k]):
                ok = False
                rejects.append(k)
                break
            increments.append((sk - bk) / coeff[k, k])
            cores.append(sk)
        history.append(stage_res[-1])
        if ok:
            diag = SolveDiagnostics(
                m, stage_res[-1], ub.rank, vb.rank, history, saturated,
                stage_res, rejects,
            )
            return ub.q, cores, vb.q, diag
        if m == max_iter:
            break
        grew = False
        try:
            ub = grow_basis(ub, stage_ops[0][0])
            grew = True
        except BasisSaturated:
            pass
        try:
            vb = grow_basis(vb, stage_ops[0][1])
            grew = True
        except BasisSaturated:
            pass
        if not grew:
            saturated = True
            break
    raise MaxIterationsExceeded(
        "stage residual %.3e above tolerance after %d growth rounds%s"
        % (history[-1], len(history) - 1, " (basis saturated)" if saturated else ""),
        best=best,
        history=history,
    )


def solve_adaptive(a1, a2, b, eps_tol, max_iter=50):
    """Adaptive-rank solve of A1 F + F A2^T = B to Frobenius residual < eps_tol."""
    u, cores, v, diag = adaptive_stage_solve(
        [(a1, a2)], b, [eps_tol], np.ones((1, 1)), max_iter=max_iter
    )
    return LowRankFactors(u, cores[0], v, orthonormal=True), diag
