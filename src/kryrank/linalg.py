"""Dense and banded kernels: tridiagonal solves, block Gram-Schmidt QR, SVD, Sylvester.

Periodic corners mean circulant: a tridiagonal operator with a nonzero
corner must have a constant diagonal and constant off-diagonals continued by
the corners, n >= 3 (heat's generator and its stage operators), and any other
periodic operator is rejected at construction with DimensionMismatch.  A
circulant's eigenvalues are the real DFT of its first column
(``circulant_spectrum``, which heat's exact reference also uses); it is solved
by one elementwise division between ``rfft`` and ``irfft``, with relative
residual ~1e-14, against ~5e-15 for Thomas, on a heat stage operator at n=512.  A
corner-free operator (lbfp's) is solved by Thomas elimination without
pivoting (the operators fed to it are diagonally dominant), run with
Python-float coefficients on row views updated in place, to cut per-row
overhead.  The DFT path raises SingularOperator on a relative test, so a
periodic Laplacian's null mode fails loudly at every n.
Factorizations are built lazily and cached on the operator, which is treated
as immutable after construction; ``scaled_shifted`` keeps its last result, so
a stage operator rebuilt each step is factorized once.
The dense Sylvester solve is Bartels-Stewart split into ``sylvester_schur`` (the
O(n^3) Schur forms, shareable) and a per-right-hand-side back-solve; a pair
declared symmetric is diagonalized by ``eigh`` instead, and the
back-solve is then one elementwise division.  Near-overlapping spectra raise
SpectralOverlap: the Schur back-solve checks its residual against 1e-6 of
the right-hand side after each solve, while the symmetric path checks once,
in ``eig_denominators`` when the pair is factored, an a-priori bound on that
same residual, O(mk) against the O(mk(m+k)) residual product, and at least
as strict.  scipy is imported only by the non-symmetric branches, at their
first call, so symmetric (heat) runs load numpy alone.
Block Gram-Schmidt updates a column-major block.  When the prefix q is
column-major too (``mgs_qr``'s work buffer), projections are formed in the
layout of the block they update, since a row-major product subtracted from a
column-major block costs a strided pass over it; a grown ``grow_basis``
basis is row-major and keeps the row-major product, because a column-major
one rounds differently against it, so heat's outputs stay byte-identical.
"""

import math

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    SingularOperator,
    SpectralOverlap,
)

_PIVOT_FLOOR = 1e-300
_EPS = np.finfo(float).eps
_MGS_DROP = 1e-12
# relative residual at which a Sylvester solve counts as spectral overlap
_OVERLAP_RTOL = 1e-6


def _as_matrix(b):
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        return b[:, None], True
    if b.ndim != 2:
        raise DimensionMismatch("right-hand side must be 1-D or 2-D, got ndim=%d" % b.ndim)
    return b, False


class TridiagonalOperator:
    """Tridiagonal matrix, optionally circulant through periodic corner entries.

    Parameters
    ----------
    diag : (n,) array_like
    lower, upper : (n-1,) array_like
        Sub- and super-diagonal.
    corner_upper, corner_lower : float, optional
        Entries at positions (0, n-1) and (n-1, 0) for periodic wrap.

    ``symmetric`` is fixed at construction: true when ``lower`` equals
    ``upper`` and the two corners are equal, exactly.  So is ``circulant``:
    true when a corner is nonzero.  Corners mean circulant: a nonzero corner
    requires n >= 3, a constant ``diag``, every ``lower`` entry equal to
    ``corner_upper`` and every ``upper`` entry equal to ``corner_lower``,
    exactly, and any other periodic operator raises DimensionMismatch.  A
    circulant operator is solved through the real DFT, a corner-free one by
    Thomas elimination.
    """

    def __init__(self, diag, lower, upper, corner_upper=0.0, corner_lower=0.0):
        self.diag = np.array(diag, dtype=float)
        self.lower = np.array(lower, dtype=float)
        self.upper = np.array(upper, dtype=float)
        n = self.diag.shape[0]
        if n < 2:
            raise DimensionMismatch("operator needs n >= 2, got n=%d" % n)
        if self.lower.shape != (n - 1,) or self.upper.shape != (n - 1,):
            raise DimensionMismatch(
                "off-diagonals must have length n-1=%d, got %d/%d"
                % (n - 1, self.lower.shape[0], self.upper.shape[0])
            )
        self.corner_upper = float(corner_upper)
        self.corner_lower = float(corner_lower)
        for arr in (self.diag, self.lower, self.upper):
            if not np.all(np.isfinite(arr)):
                raise DimensionMismatch("operator entries must be finite")
        if not (np.isfinite(self.corner_upper) and np.isfinite(self.corner_lower)):
            raise DimensionMismatch("corner entries must be finite")
        self._symmetric = bool(
            np.array_equal(self.lower, self.upper)
            and self.corner_upper == self.corner_lower
        )
        # corner-free operators (lbfp's) skip the O(n) checks
        self._circulant = bool(self.corner_upper or self.corner_lower)
        if self._circulant and not (
            n >= 3
            and np.all(self.diag == self.diag[0])
            and np.all(self.lower == self.corner_upper)
            and np.all(self.upper == self.corner_lower)
        ):
            raise DimensionMismatch(
                "periodic corners need a circulant operator: n >= 3, a constant "
                "diagonal and off-diagonals equal to the corners that wrap them"
            )
        self._fact = None
        self._shifted = None

    @property
    def symmetric(self):
        return self._symmetric

    @property
    def circulant(self):
        return self._circulant

    @property
    def n(self):
        return self.diag.shape[0]

    @property
    def shape(self):
        return (self.n, self.n)

    def apply(self, x):
        """Matrix-vector / matrix-matrix product A @ x."""
        xm, was_vec = _as_matrix(x)
        if xm.shape[0] != self.n:
            raise DimensionMismatch("apply: operand has %d rows, operator is %d" % (xm.shape[0], self.n))
        y = self.diag[:, None] * xm
        y[1:] += self.lower[:, None] * xm[:-1]
        y[:-1] += self.upper[:, None] * xm[1:]
        if self.corner_upper:
            y[0] += self.corner_upper * xm[-1]
        if self.corner_lower:
            y[-1] += self.corner_lower * xm[0]
        return y[:, 0] if was_vec else y

    def dense(self):
        a = np.diag(self.diag)
        a += np.diag(self.lower, -1)
        a += np.diag(self.upper, 1)
        a[0, -1] += self.corner_upper
        a[-1, 0] += self.corner_lower
        return a

    def scaled_shifted(self, shift, scale):
        """Return shift*I + scale*A; repeating the last (shift, scale) returns the same object."""
        if self._shifted is None or self._shifted[0] != (shift, scale):
            self._shifted = ((shift, scale), TridiagonalOperator(
                shift + scale * self.diag,
                scale * self.lower,
                scale * self.upper,
                corner_upper=scale * self.corner_upper,
                corner_lower=scale * self.corner_lower,
            ))
        return self._shifted[1]

    def circulant_spectrum(self):
        """The eigenvalues w = rfft(first column) of a circulant: A x = irfft(w * rfft(x))."""
        if not self._circulant:
            raise DimensionMismatch("operator is not circulant: it has no periodic corners")
        col = np.zeros(self.n)
        col[[0, 1, -1]] = self.diag[0], self.lower[0], self.corner_lower
        return np.fft.rfft(col)

    def _factorize(self):
        n = self.n
        if self._circulant:
            eig = self.circulant_spectrum()
            mag = np.abs(eig)
            if mag.min() <= n * _EPS * mag.max():
                raise SingularOperator(
                    "circulant eigenvalue %.3e is zero relative to %.3e"
                    % (mag.min(), mag.max())
                )
            self._fact = {"eig": eig}
            return
        # Thomas LU, no pivoting
        piv = np.empty(n)
        mult = np.empty(n - 1)
        piv[0] = self.diag[0]
        for i in range(n - 1):
            if abs(piv[i]) < _PIVOT_FLOOR:
                raise SingularOperator("zero pivot at row %d during elimination" % i)
            mult[i] = self.lower[i] / piv[i]
            piv[i + 1] = self.diag[i + 1] - mult[i] * self.upper[i]
        if abs(piv[-1]) < _PIVOT_FLOOR:
            raise SingularOperator("zero pivot at row %d during elimination" % (n - 1))
        self._fact = {"piv": piv, "mult": mult}

    def _tri_solve(self, b):
        # Python-float coefficients and C-ordered row views updated in place:
        # the same IEEE operations per row as the indexed recurrence, with
        # less interpreter work per row.
        piv = self._fact["piv"].tolist()
        y = b.copy()
        rows = list(y)
        for m, prev, cur in zip(self._fact["mult"].tolist(), rows, rows[1:]):
            cur -= m * prev
        rows[-1] /= piv[-1]
        # rows n-2 down to 0, each with the row below it
        upper = self.upper.tolist()
        for u, p, prev, cur in zip(upper[::-1], piv[-2::-1], rows[:0:-1], rows[-2::-1]):
            cur -= u * prev
            cur /= p
        return y

    def solve(self, b):
        """Solve A x = b; b may hold multiple right-hand sides as columns."""
        bm, was_vec = _as_matrix(b)
        if bm.shape[0] != self.n:
            raise DimensionMismatch("solve: rhs has %d rows, operator is %d" % (bm.shape[0], self.n))
        if self._fact is None:
            self._factorize()
        if self._circulant:
            eig = self._fact["eig"]
            x = np.fft.irfft(np.fft.rfft(bm, axis=0) / eig[:, None], self.n, axis=0)
        else:
            x = self._tri_solve(bm)
        return x[:, 0] if was_vec else x


def _times(a, x, col_major):
    """a @ x, formed column-major when ``col_major`` (the layout of the block it updates)."""
    return (x.T @ a.T).T if col_major else a @ x


def _bcgs2(q, cand, drop, cap):
    """Orthonormalize the columns of ``cand`` against orthonormal ``q`` and each other.

    Reorthogonalized block Gram-Schmidt (BCGS2; Barlow & Smoktunowicz, Numer.
    Math. 123 (2013)): the block is projected out of ``q`` in one pass;
    inside it each column gets two passes against the columns accepted
    before it and is accepted when its remainder exceeds ``drop`` (a scalar
    or one value per column), until ``cap`` columns are accepted.  The
    accepted block is projected out of ``q`` a second time and
    re-orthonormalized by a Cholesky QR, which keeps [q, new] orthonormal
    even for candidates that nearly lie in span(q); without a prefix the
    in-block passes alone leave it orthonormal.

    ``cand`` is column-major.  When ``q`` is too (``mgs_qr``'s prefix, or a
    basis fresh from ``seed_basis``), every n-by-k product that updates the
    block, both projections and the Cholesky finish, is formed column-major,
    with no strided pass over the block; on OpenBLAS it has the row-major
    product's bits, which ``tests/test_linalg.py`` checks.  Against a
    row-major ``q`` (a grown basis) the column-major form rounds
    differently, so the row-major products stay.  The in-block products go
    through ``np.dot``, which gives ``matmul``'s bits without the overhead
    ``matmul`` has on a one-column block.

    ``cand`` is overwritten: accepted columns are compacted, in order, to its
    front.  Returns (new, accepted) with ``new`` a view of ``cand`` and
    ``accepted`` the indices of the accepted candidates.
    """
    drop = np.broadcast_to(drop, cand.shape[1:])
    col_major = q.flags.f_contiguous
    if q.shape[1]:
        cand -= _times(q, q.T @ cand, col_major)
    accepted = []
    for j in range(cand.shape[1]):
        kp = len(accepted)
        if kp >= cap:
            break
        v = cand[:, j]
        if kp:
            w = cand[:, :kp]
            for _ in range(2):
                v -= np.dot(w, np.dot(w.T, v))
        nrm = math.sqrt(v @ v)
        if nrm > drop[j]:
            cand[:, kp] = v / nrm
            accepted.append(j)
    new = cand[:, : len(accepted)]
    if q.shape[1] and accepted:
        new -= _times(q, q.T @ new, col_major)
        # Cholesky QR of a block orthonormal to rounding: the triangular
        # factor is near I, so its inverse is well conditioned and keeps signs
        r_inv = np.linalg.inv(np.linalg.cholesky(new.T @ new)).T
        new[:] = _times(new, r_inv, col_major)
    return new, accepted


def mgs_qr(m, ortho_prefix=0):
    """Rank-revealing QR by block Gram-Schmidt with column-deficiency handling.

    Columns whose remainder falls below 1e-12 * ||M||_F are dropped from Q,
    and at most n columns survive; R = Q^T M, so Q @ R reproduces M up to
    the dropped remainders.  The first ``ortho_prefix`` columns are taken as
    already orthonormal and enter Q verbatim with identity rows in R; the
    rest are orthonormalized against them by ``_bcgs2``.

    Returns
    -------
    q : (n, k') ndarray
    r : (k', k) ndarray
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch("mgs_qr expects a 2-D array")
    n, k = m.shape
    if k < 1 or n < 1:
        raise DimensionMismatch("mgs_qr needs a nonempty matrix, got %d x %d" % (n, k))
    p = int(ortho_prefix)
    if not 0 <= p <= min(n, k):
        raise DimensionMismatch("ortho_prefix out of range")
    if p == k:
        return m.copy(), np.eye(k)
    work = np.array(m, order="F")
    new, _ = _bcgs2(work[:, :p], work[:, p:], _MGS_DROP * np.linalg.norm(m), n - p)
    q = work[:, : p + new.shape[1]]
    r = np.zeros((q.shape[1], k))
    r[:p, :p] = np.eye(p)
    r[:, p:] = q.T @ m[:, p:]
    return q, r


def reduced_svd(s):
    """SVD of a small core matrix; maps LAPACK non-convergence to ConvergenceFailure."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2:
        raise DimensionMismatch("reduced_svd expects a 2-D array")
    try:
        u, sig, vt = np.linalg.svd(s, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure("SVD did not converge: %s" % exc) from exc
    return u, sig, vt.T


def eig_denominators(w1, w2):
    """w1_i + w2_j as an (m, k) array, the back-solve's divisors on eigen factors.

    This is where the eigen path's overlap guard lives.  With orthogonal Z,
    X = Z1 (F / (w1_i + w2_j)) Z2^T has ||X|| <= ||B|| / sep,
    sep = min |w1_i + w2_j|, and a backward error in w of order
    max(m, k) eps max|w| per side (``eigh``'s; a circulant's DFT spectrum
    is closer) then bounds the relative residual of the back-solve by
    max(m, k) eps (max|w1| + max|w2|) / sep, up to the modest constant of
    that backward error.  SpectralOverlap is raised unless this
    bound is at most 1e-6, the level of the residual check that the Schur
    back-solve keeps: an O(mk) test, once per factorization, that rejects
    every pair whose back-solve could miss that level, so it is at least as
    strict as measuring the residual of each solve (and rejects some pairs
    whose solves would have passed).
    """
    denom = w1[:, None] + w2[None, :]
    sep = np.abs(denom).min()
    bound = max(w1.size, w2.size) * _EPS * (np.abs(w1).max() + np.abs(w2).max())
    if not (sep > 0.0 and bound <= _OVERLAP_RTOL * sep):
        raise SpectralOverlap(
            "spectra of A1 and -A2^T overlap: separation %.3e against a "
            "rounding bound of %.3e" % (sep, bound)
        )
    return denom


def sylvester_schur(a1, a2, symmetric=False):
    """Factor half of a Sylvester solve: (T1, Z1, T2, Z2) with A = Z T Z^T.

    With ``symmetric`` both sides are diagonalized by ``eigh``, and each T is
    the 1-D array of eigenvalues; the pair must then pass
    ``eig_denominators``' overlap guard.  ``eigh`` reads one triangle only,
    so a side that is not exactly symmetric raises DimensionMismatch rather
    than being diagonalized as the symmetric matrix its triangle describes.
    Otherwise both sides get their real Schur forms, and the back-solve
    checks its residual instead.  A failed or non-finite factorization
    raises SpectralOverlap.
    """
    factors = []
    if symmetric:
        for a in (a1, a2):
            if not np.array_equal(a, np.transpose(a), equal_nan=True):
                raise DimensionMismatch("symmetric factorization of a non-symmetric matrix")
            try:
                w, z = np.linalg.eigh(a)
            except (ValueError, np.linalg.LinAlgError) as exc:
                raise SpectralOverlap("Sylvester solve failed: %s" % exc) from exc
            if not np.all(np.isfinite(w)):
                raise SpectralOverlap("Sylvester solve failed: non-finite eigenvalues")
            factors += (w, z)
        eig_denominators(factors[0], factors[2])
        return tuple(factors)
    import scipy.linalg

    try:
        for a in (a1, a2):
            factors += scipy.linalg.schur(a, output="real")
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise SpectralOverlap("Sylvester solve failed: %s" % exc) from exc
    return tuple(factors)


def solve_sylvester_dense(a1, a2, b, schur=None):
    """Solve A1 X + X A2^T = B for dense square A1 (m x m), A2 (k x k), B (m x k).

    ``schur`` is ``sylvester_schur(a1, a2, ...)``, computed here (both sides
    Schur) when not given; the back-solve then repeats scipy's
    ``solve_sylvester(a1, a2.T, b)`` step for step, so the result is bitwise
    the same, and raises SpectralOverlap when its residual exceeds 1e-6
    relative to B (the spectra of A1 and -A2^T near-intersect).  With eigen
    factors the back-solve is ``F / (w1[:, None] + w2[None, :])``, bitwise
    what ``dtrsyl`` gives on the diagonal forms; its overlap guard ran when
    ``sylvester_schur`` factored the pair, so no residual is formed.  Either
    way a non-finite result raises SpectralOverlap.
    """
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    b = np.asarray(b, dtype=float)
    if a1.ndim != 2 or a1.shape[0] != a1.shape[1]:
        raise DimensionMismatch("A1 must be square")
    if a2.ndim != 2 or a2.shape[0] != a2.shape[1]:
        raise DimensionMismatch("A2 must be square")
    if b.shape != (a1.shape[0], a2.shape[0]):
        raise DimensionMismatch(
            "B must be %d x %d, got %s" % (a1.shape[0], a2.shape[0], b.shape)
        )
    t1, z1, t2, z2 = sylvester_schur(a1, a2) if schur is None else schur
    f = np.dot(np.dot(z1.T, b), z2)
    if t1.ndim == 1:
        # a zero denominator becomes inf/nan here and fails the finite check
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            y = f / (t1[:, None] + t2[None, :])
    else:
        import scipy.linalg

        y, y_scale, info = scipy.linalg.lapack.dtrsyl(t1, t2, f, tranb="C")
        if info < 0:
            raise SpectralOverlap("Sylvester solve failed: illegal value in term %d" % -info)
        y = y_scale * y
    x = np.dot(np.dot(z1, y), z2.T)
    if not np.all(np.isfinite(x)):
        raise SpectralOverlap("Sylvester solve produced non-finite entries")
    if t1.ndim == 1:
        return x
    res = a1 @ x + x @ a2.T - b
    scale = np.linalg.norm(b)
    # residual relative to B: a backward-stable solve keeps this at
    # eps * (|A1|+|A2|) / sep(A1, -A2), so exceeding 1e-6 means near-overlap
    if scale > 0.0 and np.linalg.norm(res) > _OVERLAP_RTOL * scale:
        raise SpectralOverlap("Sylvester residual too large; spectra likely overlap")
    return x
