"""Dense and banded kernels: tridiagonal solves, rank-revealing QR, SVD, Sylvester.

The tridiagonal solver is plain Thomas elimination without pivoting (the
operators fed to it are diagonally dominant) plus a rank-2 bordered correction
for periodic wrap entries.  Factorizations are built lazily and cached on the
operator, which is treated as immutable after construction.
"""

import math

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    SingularOperator,
    SpectralOverlap,
)

_PIVOT_FLOOR = 1e-300
_MGS_DROP = 1e-12


def _as_matrix(b):
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        return b[:, None], True
    if b.ndim != 2:
        raise DimensionMismatch("right-hand side must be 1-D or 2-D, got ndim=%d" % b.ndim)
    return b, False


class TridiagonalOperator:
    """Tridiagonal matrix, optionally with periodic corner entries.

    Parameters
    ----------
    diag : (n,) array_like
    lower, upper : (n-1,) array_like
        Sub- and super-diagonal.
    corner_upper, corner_lower : float, optional
        Entries at positions (0, n-1) and (n-1, 0) for periodic wrap.
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
        self._fact = None

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

    def __matmul__(self, x):
        return self.apply(x)

    def dense(self):
        a = np.diag(self.diag)
        a += np.diag(self.lower, -1)
        a += np.diag(self.upper, 1)
        a[0, -1] += self.corner_upper
        a[-1, 0] += self.corner_lower
        return a

    def scaled_shifted(self, shift, scale):
        """Return shift*I + scale*A as a new operator."""
        return TridiagonalOperator(
            shift + scale * self.diag,
            scale * self.lower,
            scale * self.upper,
            corner_upper=scale * self.corner_upper,
            corner_lower=scale * self.corner_lower,
        )

    def _factorize(self):
        # Thomas LU of the pure tridiagonal part; corners handled by a
        # Sherman-Morrison-Woodbury rank-2 bordered correction.
        n = self.n
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

        fact = {"piv": piv, "mult": mult}
        if self.corner_upper or self.corner_lower:
            # A = T + P Q^T with P = [e_0, e_{n-1}],
            # Q^T = [[0,...,0,cu],[cl,0,...,0]]
            p = np.zeros((n, 2))
            p[0, 0] = 1.0
            p[-1, 1] = 1.0
            z = self._tri_solve(fact, p)
            qt_z = np.empty((2, 2))
            qt_z[0] = self.corner_upper * z[-1]
            qt_z[1] = self.corner_lower * z[0]
            cap = np.eye(2) + qt_z
            det = cap[0, 0] * cap[1, 1] - cap[0, 1] * cap[1, 0]
            if abs(det) < _PIVOT_FLOOR:
                raise SingularOperator("singular corner capacitance matrix")
            fact["z"] = z
            fact["cap"] = cap
        self._fact = fact

    def _tri_solve(self, fact, b):
        piv, mult = fact["piv"], fact["mult"]
        n = self.n
        y = b.copy()
        for i in range(n - 1):
            y[i + 1] -= mult[i] * y[i]
        y[-1] /= piv[-1]
        for i in range(n - 2, -1, -1):
            y[i] = (y[i] - self.upper[i] * y[i + 1]) / piv[i]
        return y

    def solve(self, b):
        """Solve A x = b; b may hold multiple right-hand sides as columns."""
        bm, was_vec = _as_matrix(b)
        if bm.shape[0] != self.n:
            raise DimensionMismatch("solve: rhs has %d rows, operator is %d" % (bm.shape[0], self.n))
        if self._fact is None:
            self._factorize()
        x = self._tri_solve(self._fact, bm)
        if "cap" in self._fact:
            z, cap = self._fact["z"], self._fact["cap"]
            qt_x = np.vstack([self.corner_upper * x[-1], self.corner_lower * x[0]])
            x = x - z @ np.linalg.solve(cap, qt_x)
        return x[:, 0] if was_vec else x


def mgs_qr(m, drop_tol=None, ortho_prefix=0):
    """Modified Gram-Schmidt QR with column-deficiency handling.

    Columns whose post-orthogonalization norm falls below
    ``drop_tol`` (default 1e-12 * ||M||_F) are dropped from Q; R keeps their
    projection coefficients so Q @ R reproduces M up to the dropped residuals.
    One full re-orthogonalization pass keeps Q^T Q orthonormal near machine
    precision on ill-conditioned input.  A stack wider than its row count is
    handled the same way: at most n columns survive, the overflow lives in R.

    The first ``ortho_prefix`` columns are taken as already orthonormal and
    enter Q verbatim with identity rows in R; the remainder is projected
    against them blockwise before the per-column sweep.

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
    if drop_tol is None:
        drop_tol = _MGS_DROP * np.linalg.norm(m)
    p = int(ortho_prefix)
    if not 0 <= p <= min(n, k):
        raise DimensionMismatch("ortho_prefix out of range")
    q = np.zeros((n, k))
    r = np.zeros((k, k))
    rest = None
    if p:
        q[:, :p] = m[:, :p]
        r[:p, :p] = np.eye(p)
        if p < k:
            qp = q[:, :p]
            rest = m[:, p:].copy()
            for _ in range(2):
                c = qp.T @ rest
                rest -= qp @ c
                r[:p, p:] += c
    kp = p
    for j in range(p, k):
        v = rest[:, j - p].copy() if rest is not None else m[:, j].copy()
        if kp > p:
            # two projection passes: plain MGS alone can lose orthogonality
            for _ in range(2):
                c = q[:, p:kp].T @ v
                v -= q[:, p:kp] @ c
                r[p:kp, j] += c
        nrm = math.sqrt(v @ v)
        if kp < n and nrm > drop_tol:
            q[:, kp] = v / nrm
            r[kp, j] = nrm
            kp += 1
    return q[:, :kp].copy(), r[:kp, :].copy()


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


def solve_sylvester_dense(a1, a2, b):
    """Solve A1 X + X A2^T = B for dense square A1 (m x m), A2 (k x k), B (m x k).

    Bartels-Stewart via Schur forms.  Raises SpectralOverlap when the spectra
    of A1 and -A2^T (near-)intersect and the back-solve degrades.
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
    try:
        x = scipy.linalg.solve_sylvester(a1, a2.T, b)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise SpectralOverlap("Sylvester solve failed: %s" % exc) from exc
    if not np.all(np.isfinite(x)):
        raise SpectralOverlap("Sylvester solve produced non-finite entries")
    res = a1 @ x + x @ a2.T - b
    scale = np.linalg.norm(b)
    # residual relative to B: a backward-stable solve keeps this at
    # eps * (|A1|+|A2|) / sep(A1, -A2), so exceeding 1e-6 means near-overlap
    if scale > 0.0 and np.linalg.norm(res) > 1e-6 * scale:
        raise SpectralOverlap("Sylvester residual too large; spectra likely overlap")
    return x
