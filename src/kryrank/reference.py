"""Dense reference pipelines used for validation and timing baselines.

Heat's exact solution is taken in the real DFT basis that diagonalizes its
circulant generators, and its dense trajectory is stepped in their real
Hartley basis, built from the same FFT.  The dense steps run the same stage
algebra as the low-rank path but on full matrices, with no basis
compression anywhere.  For heat, discrepancies therefore isolate the
low-rank approximation itself.  For lbfp they do not: the dense step
applies no LoMaC moment pin, while
``lbfp_step`` pins each species to the moment system, so the two also differ
by Chang-Cooper's energy drift (second order in dv), which the pin removes
from the low-rank path only.
"""

import numpy as np

from .errors import DimensionMismatch, SpectralOverlap
from .lbfp import build_lbfp_operators, collision_coefficients, moment_step
from .linalg import eig_denominators, solve_sylvester_dense, sylvester_schur


def heat_reference(f0, d1_op, d2_op, t):
    """Exact semi-discrete solution e^{tD1} F0 e^{tD2}^T as a dense array.

    Heat's generators are circulant, so e^{tD} x = irfft(e^{t w} rfft(x)), w =
    ``circulant_spectrum`` (complex if D is not symmetric): O(n^2 log n) for
    F0's columns and rows.  A non-circulant generator raises DimensionMismatch.
    """
    if np.shape(f0) != (d1_op.n, d2_op.n):
        raise DimensionMismatch("F0 must be %d x %d, got %s" % (d1_op.n, d2_op.n, np.shape(f0)))
    w1, w2 = d1_op.circulant_spectrum(), d2_op.circulant_spectrum()
    g = np.fft.irfft(np.exp(t * w1)[:, None] * np.fft.rfft(f0, axis=0), d1_op.n, axis=0)
    return np.fft.irfft(np.fft.rfft(g, axis=1) * np.exp(t * w2), d2_op.n, axis=1)


def circulant_eigenbasis(f, d1_op, d2_op):
    """((w1, w2), Z1^T F Z2) for symmetric circulant D = Z diag(w) Z^T.

    Z is the discrete Hartley basis cas(2 pi j k / n) / sqrt(n), cas = cos +
    sin (Bracewell, JOSA 73 (1983)): real, symmetric and orthogonal, so Z^T
    = Z = Z^-1 and a second call moves a state back out.  Each axis costs one
    ``fft`` with the real part minus the imaginary part, O(n^2 log n) for F.
    Column k of Z mixes the DFT modes k and n-k, which share the eigenvalue
    ``circulant_spectrum``[min(k, n-k)] only when D is symmetric, so a
    non-symmetric or non-circulant generator raises DimensionMismatch.
    """
    if np.shape(f) != (d1_op.n, d2_op.n):
        raise DimensionMismatch("F must be %d x %d, got %s" % (d1_op.n, d2_op.n, np.shape(f)))
    ws = []
    for axis, op in enumerate((d1_op, d2_op)):
        if not op.symmetric:
            raise DimensionMismatch("the Hartley basis diagonalizes symmetric circulants only")
        w = op.circulant_spectrum().real
        ws.append(np.concatenate([w, w[1 : (op.n + 1) // 2][::-1]]))
        h = np.fft.fft(f, axis=axis, norm="ortho")
        f = h.real - h.imag
    return tuple(ws), f


def dense_dirk_step(f, table, dt, d1, d2, cache=None):
    """Full-rank DIRK step on a dense state, mirroring the low-rank stage recursion.

    ``cache`` maps a_kk to what the stage solves need; ``ButcherTable``
    enforces one a_kk, so a step factors one stage pair.  A caller that keeps
    d1, d2 and dt fixed may pass one dict to every step to factor the pair
    once per run; by default it lives for this step only.

    With 2-D generators the stage matrices I/2 - dt*a_kk*D get real Schur
    forms and each stage is solved by ``solve_sylvester_dense``'s ``dtrsyl``
    back-solve and residual check.

    With 1-D generators, d1 and d2 are the eigenvalues w of diagonal
    generators, and f is the state in their eigenbasis: a caller holding
    symmetric D = Z diag(w) Z^T moves its state in once, G = Z1^T F Z2,
    steps G, and moves the last state out once, Z1 G Z2^T (for heat,
    ``circulant_eigenbasis`` does both moves in O(n^2 log n), so a
    trajectory does no n^3 work).  The stage denominators
    (1/2 - dt*a_kk*w1_i) + (1/2 - dt*a_kk*w2_j) are formed once per a_kk,
    behind ``eig_denominators``' overlap guard, so no stage divides by a
    near-zero sum (the rounding error in w, scaled by dt*a_kk, stays within
    the guard's bound when w <= 0, as for heat).  Stage k solves
    Y_k = B_k / denominators and adds the increment (Y_k - B_k)/a_kk, O(n^2)
    per stage.  A non-finite result raises SpectralOverlap, as the
    back-solve does.

    A state whose shape does not match the generators' sizes, or a 2-D
    generator that is not square, raises DimensionMismatch.
    """
    cache = {} if cache is None else cache
    akk = table.a[0, 0]
    if np.ndim(d1) != np.ndim(d2):
        raise DimensionMismatch("generators must both be 1-D or both 2-D")
    diagonal = np.ndim(d1) == 1
    shape = np.shape(f)
    if len(shape) != 2 or any(
        np.shape(d) != (n,) * np.ndim(d) for d, n in zip((d1, d2), shape)
    ):
        raise DimensionMismatch(
            "state %s does not match generators %s and %s"
            % (shape, np.shape(d1), np.shape(d2))
        )
    if akk not in cache:
        if diagonal:
            cache[akk] = eig_denominators(0.5 - dt * akk * d1, 0.5 - dt * akk * d2)
        else:
            a1 = 0.5 * np.eye(f.shape[0]) - dt * akk * d1
            a2 = 0.5 * np.eye(f.shape[1]) - dt * akk * d2
            cache[akk] = (a1, a2, sylvester_schur(a1, a2))
    stage = cache[akk]
    incs = []
    for k in range(table.stages):
        b = f.copy()
        for l in range(k):
            b += table.a[k, l] * incs[l]
        if diagonal:
            yk = b / stage
        else:
            a1, a2, schur = stage
            yk = solve_sylvester_dense(a1, a2, b, schur)
        # in b's buffer: a fresh n x n array per stage faults in new pages,
        # which at n = 256 costs about as much as the stage itself
        np.subtract(yk, b, out=b)
        b /= akk
        incs.append(b)
    if diagonal and not np.all(np.isfinite(yk)):
        raise SpectralOverlap("Sylvester solve produced non-finite entries")
    return yk


def dense_lbfp_step(states, dense_fs, species, grids, dvs, table, dt):
    """Full-rank analogue of one coupled collision step (no truncation)."""
    new_states = moment_step(states, species, table, dt)
    coeffs = collision_coefficients(new_states, species)
    new_fs = []
    for a in range(len(species)):
        a1, a2 = build_lbfp_operators(grids[a], dvs[a], coeffs[a])
        new_fs.append(
            dense_dirk_step(dense_fs[a], table, dt, a1.dense(), a2.dense())
        )
    return new_states, new_fs


def l1_distance(f, ref, cell_area, block=1024):
    """Cell-sum L1 distance between low-rank factors and a dense array."""
    us = f.u @ f.s
    total = 0.0
    for i0 in range(0, ref.shape[0], block):
        chunk = us[i0 : i0 + block] @ f.v.T
        total += float(np.abs(chunk - ref[i0 : i0 + block]).sum())
    return cell_area * total
