"""Diagonally implicit Runge-Kutta stepping for stiff matrix ODEs dF/dt = D1 F + F D2^T.

Stage systems (I/2 - dt*a_kk*D1) F^(k) + F^(k) (I/2 - dt*a_kk*D2)^T = B^(k)
share a single pair of extended Krylov bases; if any stage residual misses its
tolerance the whole step is rejected and the bases regrown (with the stage-1
operators) before all stages are retried.  Tables are stiffly accurate, so the
step ends on the last stage core.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .krylov import adaptive_stage_solve
from .lowrank import LowRankFactors


@dataclass(frozen=True)
class ButcherTable:
    """Lower-triangular stage coefficients with positive diagonal.

    Stiff accuracy (b equal to the last row of a) and row-sum consistency
    (c_i = sum_j a_ij) are enforced at construction.
    """

    name: str
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    order: int

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        s = a.shape[0]
        if a.shape != (s, s) or b.shape != (s,) or c.shape != (s,):
            raise DimensionMismatch("inconsistent table shapes")
        if np.any(np.triu(a, 1) != 0.0):
            raise DimensionMismatch("stage matrix must be lower triangular")
        if np.any(np.diag(a) <= 0.0):
            raise DimensionMismatch("stage diagonal must be positive")
        if np.max(np.abs(b - a[-1])) > 1e-14:
            raise DimensionMismatch("table is not stiffly accurate (b != last row of a)")
        if np.max(np.abs(c - a.sum(axis=1))) > 1e-14:
            raise DimensionMismatch("abscissae do not match stage row sums")
        if abs(b.sum() - 1.0) > 1e-14:
            raise DimensionMismatch("stage weights do not sum to 1")

    @property
    def stages(self):
        return self.a.shape[0]


def _table(name, a, order):
    a = np.asarray(a, dtype=float)
    return ButcherTable(name, a, a[-1].copy(), a.sum(axis=1), order)


_GAMMA2 = 1.0 - np.sqrt(2.0) / 2.0
_X3 = 0.4358665215

_TABLES = {
    "be": _table("be", [[1.0]], 1),
    "dirk2": _table("dirk2", [[_GAMMA2, 0.0], [1.0 - _GAMMA2, _GAMMA2]], 2),
    "dirk3": _table(
        "dirk3",
        [
            [_X3, 0.0, 0.0],
            [(1.0 - _X3) / 2.0, _X3, 0.0],
            [
                -1.5 * _X3**2 + 4.0 * _X3 - 0.25,
                1.5 * _X3**2 - 5.0 * _X3 + 1.25,
                _X3,
            ],
        ],
        3,
    ),
}


def builtin_tables():
    """Stiffly accurate tables of orders 1-3, keyed 'be', 'dirk2', 'dirk3'."""
    return dict(_TABLES)


def get_table(name):
    try:
        return _TABLES[name]
    except KeyError:
        raise DimensionMismatch(
            "unknown table %r (have %s)" % (name, sorted(_TABLES))
        ) from None


def assemble_stage_operator(d_op, dt, akk):
    """I/2 - dt*akk*D as a new operator; the halves of the two sides add to I."""
    if dt <= 0 or akk <= 0:
        raise DimensionMismatch("need dt > 0 and akk > 0")
    return d_op.scaled_shifted(0.5, -dt * akk)


@dataclass
class StepDiagnostics:
    """Per-step record: growth rounds, final residuals, ranks."""

    krylov_iterations: int
    stage_residuals: list
    rank: int
    basis_rank_u: int
    basis_rank_v: int
    saturated: bool = False
    residual_history: list = field(default_factory=list)
    late_stage_restarts: int = 0


def dirk_step(f_n, table, dt, generators, tolerances, post_process=None, max_iter=50):
    """Advance F by one DIRK step of size dt.

    Parameters
    ----------
    f_n : LowRankFactors
        Current state with orthonormal factors.
    generators : (d1, d2) pair or list of one pair per stage
        Operators defining the right-hand side D1 F + F D2^T.
    tolerances : sequence of float
        Per-stage Krylov residual tolerances.
    post_process : callable, optional
        Applied once to the accepted step-end factors (truncation or a
        conservative correction).  Defaults to identity.

    Returns (f_next, StepDiagnostics).
    """
    s = table.stages
    gens = list(generators) if isinstance(generators, list) else [generators] * s
    if len(gens) != s:
        raise DimensionMismatch("need one generator pair per stage")
    if len(tolerances) != s:
        raise DimensionMismatch("need one tolerance per stage")
    cache = {}
    stage_ops = []
    for k in range(s):
        d1, d2 = gens[k]
        key = (id(d1), id(d2), float(table.a[k, k]))
        if key not in cache:
            cache[key] = (
                assemble_stage_operator(d1, dt, table.a[k, k]),
                assemble_stage_operator(d2, dt, table.a[k, k]),
            )
        stage_ops.append(cache[key])
    u, cores, v, diag = adaptive_stage_solve(
        stage_ops, f_n, list(tolerances), table.a, max_iter=max_iter
    )
    f_raw = LowRankFactors(u, cores[-1], v, orthonormal=True)
    f_next = post_process(f_raw) if post_process is not None else f_raw
    return f_next, StepDiagnostics(
        krylov_iterations=diag.iterations,
        stage_residuals=list(diag.stage_residuals),
        rank=f_next.rank,
        basis_rank_u=diag.rank_u,
        basis_rank_v=diag.rank_v,
        saturated=diag.saturated,
        residual_history=list(diag.history),
        late_stage_restarts=sum(1 for k in diag.reject_stages if k > 0),
    )
