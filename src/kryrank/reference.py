"""Dense reference pipelines used for validation and timing baselines.

These run the same stage algebra as the low-rank path but on full matrices,
with no basis compression anywhere, so discrepancies isolate the low-rank
approximation itself.
"""

import numpy as np

from .lbfp import build_lbfp_operators, collision_coefficients, moment_step
from .linalg import solve_sylvester_dense, sylvester_schur


def propagator(d_op, t):
    """Dense e^{tD}; eigendecomposition when D is symmetric, expm otherwise.

    The branch follows ``d_op.symmetric``, which is exact: an operator whose
    asymmetry is merely small still goes to ``expm``, since ``eigh`` would
    read one triangle and drop it.
    """
    dense = d_op.dense()
    if d_op.symmetric:
        lam, q = np.linalg.eigh(dense)
        return (q * np.exp(t * lam)) @ q.T
    import scipy.linalg

    return scipy.linalg.expm(t * dense)


def heat_reference(f0, d1_op, d2_op, t):
    """Exact semi-discrete solution e^{tD1} F0 e^{tD2}^T as a dense array."""
    return propagator(d1_op, t) @ f0 @ propagator(d2_op, t).T


def dense_dirk_step(f, table, dt, d1, d2, cache=None, symmetric=False):
    """Full-rank DIRK step on a dense state, mirroring the low-rank stage recursion.

    ``cache`` maps a_kk to the stage matrices I/2 - dt*a_kk*D and their
    factors, so stages with equal a_kk share one factorization.  A caller that
    keeps d1, d2 and dt fixed may pass one dict to every step to factor each
    stage operator once per run; by default it lives for this step only.
    With ``symmetric`` both stage matrices are diagonalized by ``eigh`` and
    each stage back-solves by one elementwise division; a stage matrix that
    is not exactly symmetric then raises DimensionMismatch.  Otherwise they
    get real Schur forms and the ``dtrsyl`` back-solve.
    """
    cache = {} if cache is None else cache
    incs = []
    fk = f
    for k in range(table.stages):
        akk = table.a[k, k]
        b = f.copy()
        for l in range(k):
            b += table.a[k, l] * incs[l]
        if akk not in cache:
            a1 = 0.5 * np.eye(f.shape[0]) - dt * akk * d1
            a2 = 0.5 * np.eye(f.shape[1]) - dt * akk * d2
            cache[akk] = (a1, a2, sylvester_schur(a1, a2, symmetric))
        a1, a2, schur = cache[akk]
        fk = solve_sylvester_dense(a1, a2, b, schur)
        incs.append((fk - b) / akk)
    return fk


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
