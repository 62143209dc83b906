"""Dense reference pipelines used for validation and timing baselines.

These run the same stage algebra as the low-rank path but on full matrices,
with no basis compression anywhere.  For heat, discrepancies therefore
isolate the low-rank approximation itself.  For lbfp they do not: the dense
step applies no LoMaC moment pin, while ``lbfp_step`` pins each species to
the moment system, so the two also differ by Chang-Cooper's energy drift
(second order in dv), which the pin removes from the low-rank path only.
"""

import numpy as np

from .errors import SpectralOverlap
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
    factors; ``ButcherTable`` enforces one a_kk, so a step factors one stage
    pair.  A caller that keeps d1, d2 and dt fixed may pass one dict to every
    step to factor the pair once per run; by default it lives for this step
    only.  Without ``symmetric`` the pair gets real Schur forms and each
    stage is solved by ``solve_sylvester_dense``'s ``dtrsyl`` back-solve and
    residual check.

    With ``symmetric`` both stage matrices are diagonalized by ``eigh``
    (A = Z W Z^T; a matrix that is not exactly symmetric raises
    DimensionMismatch) and the whole step runs in that eigenbasis: the state
    moves in once, G = Z1^T F Z2, stage k solves Y_k = B_k / (w1_i + w2_j)
    elementwise and adds the increment (Y_k - B_k)/a_kk, and the last stage
    moves out once, Z1 Y_s Z2^T: four n^3 products per step whatever the
    number of stages.  The overlap guard is the a-priori bound that
    ``sylvester_schur`` checks when it factors the pair, so no stage divides
    by a near-zero w1_i + w2_j; a non-finite result raises SpectralOverlap,
    as the back-solve does.
    """
    cache = {} if cache is None else cache
    akk = table.a[0, 0]
    if akk not in cache:
        a1 = 0.5 * np.eye(f.shape[0]) - dt * akk * d1
        a2 = 0.5 * np.eye(f.shape[1]) - dt * akk * d2
        cache[akk] = (a1, a2, sylvester_schur(a1, a2, symmetric))
    a1, a2, schur = cache[akk]
    if symmetric:
        w1, z1, w2, z2 = schur
        denom = w1[:, None] + w2[None, :]
        f = z1.T @ f @ z2
    incs = []
    for k in range(table.stages):
        b = f.copy()
        for l in range(k):
            b += table.a[k, l] * incs[l]
        yk = b / denom if symmetric else solve_sylvester_dense(a1, a2, b, schur)
        incs.append((yk - b) / akk)
    if not symmetric:
        return yk
    out = z1 @ yk @ z2.T
    if not np.all(np.isfinite(out)):
        raise SpectralOverlap("Sylvester solve produced non-finite entries")
    return out


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
