"""Dense reference pipelines used for validation and timing baselines.

Heat's exact solution is taken in the real DFT basis that diagonalizes its
circulant generators, and its dense trajectory is stepped in their real
Hartley basis, built from the same FFT.  The dense steps run the low-rank
path's stage recursion, ``krylov.stage_sweep`` itself, but on full
matrices, with no basis compression anywhere.  For heat, discrepancies
therefore isolate the low-rank approximation itself.  For lbfp they do not:
the dense step applies no LoMaC moment pin, while ``lbfp_step`` pins each
species to the moment system, so the two also differ by Chang-Cooper's
energy drift (second order in dv), which the pin removes from the low-rank
path only.
"""

import functools
from dataclasses import replace

import numpy as np

from .dirk import assemble_stage_operator
from .errors import DimensionMismatch, SpectralOverlap
from .krylov import stage_sweep
from .lbfp import step_generators
from .linalg import solve_sylvester_dense, sylvester_schur


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


def dense_dirk_step(f, table, solve):
    """Full-rank DIRK step on a dense state: ``stage_sweep`` with a dense solver.

    ``solve`` maps a stage right-hand side B to the stage solution Y of
    (I/2 - dt*a_kk*D1) Y + Y (I/2 - dt*a_kk*D2)^T = B and returns a new array.
    ``ButcherTable`` enforces one a_kk, so a step has one stage pair, and the
    caller factors it once and may reuse the solver over every step with the
    same generators and dt: ``run_compare`` divides by the pair's eigenvalue
    sums in the generators' Hartley basis, ``dense_lbfp_step`` back-solves
    by Schur forms.  A stage solution whose shape differs from f's raises
    DimensionMismatch; a non-finite result raises SpectralOverlap, as the
    back-solve does.
    """
    for _, yk in stage_sweep(f, table.a, solve):
        if np.shape(yk) != np.shape(f):
            raise DimensionMismatch(
                "stage solution %s does not match state %s" % (np.shape(yk), np.shape(f))
            )
    if not np.all(np.isfinite(yk)):
        raise SpectralOverlap("Sylvester solve produced non-finite entries")
    return yk


def dense_lbfp_step(system, table, dt):
    """Full-rank analogue of one coupled collision step (no truncation).

    ``system`` is an ``LbfpSystem`` whose factors are dense arrays, and so is
    the result.  States and generators come from ``step_generators``, as in
    ``lbfp_step``.  Each species' stage matrices I/2 - dt*a_kk*D are the
    dense forms of the low-rank path's stage operators; their real Schur
    forms are computed once per step and every stage back-solves with them.
    """
    new_states, ops = step_generators(system, table, dt)
    akk = table.a[0, 0]
    new_fs = []
    for f, (d1, d2) in zip(system.factors, ops):
        a1 = assemble_stage_operator(d1, dt, akk).dense()
        a2 = assemble_stage_operator(d2, dt, akk).dense()
        solve = functools.partial(
            solve_sylvester_dense, a1, a2, schur=sylvester_schur(a1, a2)
        )
        new_fs.append(dense_dirk_step(f, table, solve))
    return replace(system, factors=new_fs, states=new_states)


def l1_distance(f, ref, cell_area):
    """Cell-sum L1 distance between low-rank factors and a dense array."""
    return cell_area * float(np.abs(f.materialize() - ref).sum())
