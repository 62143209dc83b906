"""Low-rank matrix factors F = U S V^T and operations that stay in factored form."""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import _column_major_stack, _times, mgs_qr, reduced_svd


@dataclass(frozen=True)
class LowRankFactors:
    """F = U @ S @ V.T with U (n1 x r), S (r x r), V (n2 x r).

    ``orthonormal`` marks factors whose U and V columns are orthonormal; the
    truncation step re-orthonormalizes when the flag is unset.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    orthonormal: bool = False

    def __post_init__(self):
        u, s, v = self.u, self.s, self.v
        if u.ndim != 2 or s.ndim != 2 or v.ndim != 2:
            raise DimensionMismatch("factors must be 2-D arrays")
        if s.shape != (u.shape[1], v.shape[1]):
            raise DimensionMismatch(
                "core must be %d x %d, got %s" % (u.shape[1], v.shape[1], s.shape)
            )

    @property
    def rank(self):
        return self.s.shape[0]

    @property
    def shape(self):
        return (self.u.shape[0], self.v.shape[0])

    def materialize(self):
        return self.u @ self.s @ self.v.T


def truncate(f, eps):
    """SVD truncation keeping exactly the singular values sigma_j > eps.

    Non-orthonormal factors are first re-orthonormalized by QR on both sides
    (core absorbs the triangular factors).  At least one mode is always kept so
    the result never has rank zero.  Output factors are orthonormal.
    """
    if eps < 0:
        raise DimensionMismatch("truncation threshold must be >= 0")
    if f.orthonormal:
        u, core, v = f.u, f.s, f.v
    else:
        u, r1 = mgs_qr(f.u)
        v, r2 = mgs_qr(f.v)
        core = r1 @ f.s @ r2.T
    _, w1, sig, w2 = core_truncate(core, eps)
    return LowRankFactors(_times(u, w1), np.diag(sig), _times(v, w2), orthonormal=True)


def joint_basis(f, extra_u, extra_v):
    """Orthonormal bases spanning [f.u | extra_u] and [f.v | extra_v].

    Returns (qu, qv, core_f, cu, cv) with f = qu core_f qv^T and the extra
    columns at coordinates cu, cv, so any update extra_u C extra_v^T has
    joint core cu @ C @ cv.T.  Lets a caller apply several low-rank
    corrections and truncations as small-core operations in one fixed basis.
    Each side is stacked once and orthonormalized in that buffer, so qu and
    qv are column-major.
    """
    ru_cols = f.u.shape[1]
    rv_cols = f.v.shape[1]
    pre_u, pre_v = (ru_cols, rv_cols) if f.orthonormal else (0, 0)
    qu, ru = mgs_qr(_column_major_stack(f.u, extra_u), ortho_prefix=pre_u, overwrite=True)
    qv, rv = mgs_qr(_column_major_stack(f.v, extra_v), ortho_prefix=pre_v, overwrite=True)
    core_f = ru[:, :ru_cols] @ f.s @ rv[:, :rv_cols].T
    return qu, qv, core_f, ru[:, ru_cols:], rv[:, rv_cols:]


def core_truncate(core, eps):
    """SVD-truncate a core held in orthonormal bases, keeping sigma > eps.

    Returns (w1 diag(sigma) w2^T as a dense core, w1, sigma, w2) with a
    rank floor of one mode; ``truncate`` applies w1 and w2 to the outer
    factors.
    """
    w1, sig, w2 = reduced_svd(core)
    keep = max(1, int(np.sum(sig > eps)))
    w1 = w1[:, :keep]
    w2 = w2[:, :keep]
    sig = sig[:keep]
    return (w1 * sig) @ w2.T, w1, sig, w2


def conservative_truncate(f, range_u, range_v, rows_u, rows_v, modes, target, eps):
    """Truncate ``f`` at ``eps`` while pinning k moments to ``target`` (LoMaC).

    ``modes`` is a (k, p, q) stack of small cores E_j.  Moment j of F is
    <E_j, rows_u F rows_v^T> and the range carrying the moments is spanned by
    range_u E_j range_v^T, so one stack describes both maps.  An oblique
    projection onto the range makes the remainder moment-free, only the
    remainder is truncated, and the range coefficients are then solved for
    so the moments equal ``target`` exactly.  All corrections act on cores in
    one joint basis, through two k-by-(m1 m2) matrices formed once: row j of
    the moment matrix K measures moment j of a flattened core, and row j of
    R is the flattened core of range direction j.  Returns orthonormal
    column-major factors of rank at most rank(f) + range columns; the layout
    carries into the next step's Krylov seeds and every n-by-r pass over them.
    """
    modes = np.asarray(modes, dtype=float)
    qu, qv, core_f, cu, cv = joint_basis(f, range_u, range_v)
    kmat = ((rows_u @ qu).T @ modes @ (rows_v @ qv)).reshape(len(modes), -1)
    rmat = (cu @ modes @ cv.T).reshape(len(modes), -1)
    # the moment map of representable range updates goes through K, the
    # contraction that measures the moments below: basis components dropped
    # during the joint factorization otherwise break the pin once a large row
    # (the v^2 row has norm ~ vmax^2 sqrt(n) dv) amplifies them
    geff = kmat @ rmat.T
    # raw conditioning can grow like vth^4; Jacobi scaling keeps it O(1)
    dsc = 1.0 / np.sqrt(np.abs(np.diag(geff)))
    geff_s = geff * dsc[:, None] * dsc[None, :]
    c0 = dsc * np.linalg.solve(geff_s, dsc * (kmat @ core_f.ravel()))
    core2, _, _, _ = core_truncate(core_f - (c0 @ rmat).reshape(core_f.shape), eps)
    resid = np.asarray(target, dtype=float) - kmat @ core2.ravel()
    final = core2 + (dsc * np.linalg.solve(geff_s, dsc * resid) @ rmat).reshape(core_f.shape)
    # rounding-level modes of the corrected core would inflate the rank
    _, w1, sig, w2 = core_truncate(final, 1e-14 * np.linalg.norm(final))
    return LowRankFactors(_times(qu, w1), np.diag(sig), _times(qv, w2), orthonormal=True)


def lr_add(f, g):
    """F + G in factored form by block stacking; caller truncates."""
    if f.shape != g.shape:
        raise DimensionMismatch("lr_add: shapes %s and %s differ" % (f.shape, g.shape))
    u = _column_major_stack(f.u, g.u)
    v = _column_major_stack(f.v, g.v)
    rf, rg = f.rank, g.rank
    s = np.zeros((rf + rg, rf + rg))
    s[:rf, :rf] = f.s
    s[rf:, rf:] = g.s
    return LowRankFactors(u, s, v, orthonormal=False)


def lr_frobenius(f):
    """Frobenius norm without materializing F."""
    if f.orthonormal:
        return float(np.linalg.norm(f.s))
    gu = f.u.T @ f.u
    gv = f.v.T @ f.v
    val = float(np.einsum("ij,ik,kl,jl->", gu, f.s, gv, f.s))
    return float(np.sqrt(max(val, 0.0)))


def spectral_scale(f):
    """Largest singular value of the core, used to scale relative tolerances."""
    return float(np.linalg.norm(f.s, 2))


def lr_moments(f, rows_u, rows_v, modes):
    """Moments <E_j, rows_u F rows_v^T> of factored F, one per core of ``modes``.

    ``rows_u`` (p x n1) and ``rows_v`` (q x n2) are a model's functional rows
    and ``modes`` a (k, p, q) stack of cores E_j, the functionals
    ``conservative_truncate`` pins.  Returns k moments.  Cost
    O((p n1 + q n2) r).
    """
    if np.shape(rows_u)[1:] != f.shape[:1] or np.shape(rows_v)[1:] != f.shape[1:]:
        raise DimensionMismatch("functional rows do not match factors %s" % (f.shape,))
    proj = (rows_u @ f.u) @ f.s @ (rows_v @ f.v).T
    return np.einsum("jab,ab->j", np.asarray(modes, dtype=float), proj)
