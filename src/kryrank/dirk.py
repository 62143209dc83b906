"""Diagonally implicit Runge-Kutta stepping for stiff matrix ODEs dF/dt = D1 F + F D2^T.

Stage systems (I/2 - dt*a_kk*D1) F^(k) + F^(k) (I/2 - dt*a_kk*D2)^T = B^(k)
share a single pair of extended Krylov bases.  Tables are singly diagonally
implicit (one a_kk), so every stage has the same operator pair, and every
stage meets the same residual tolerance; if any stage misses it the whole step
is rejected and the bases regrown with that pair before all stages are
retried.  Tables are stiffly accurate, so the step ends on the last stage core.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .krylov import adaptive_stage_solve
from .lowrank import LowRankFactors


@dataclass(frozen=True)
class ButcherTable:
    """Lower-triangular stage coefficients with a constant positive diagonal.

    Every table is stiffly accurate (Hairer & Wanner, Solving ODEs II, 1996),
    so it is its stage matrix: the weights b are a's last row, the abscissae
    c its row sums, and the last stage is the step end.  The constant
    diagonal (a singly diagonally implicit table) and weights summing to 1
    are enforced at construction.
    """

    name: str
    a: np.ndarray
    order: int

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        object.__setattr__(self, "a", a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch("stage matrix must be square")
        if np.any(np.triu(a, 1) != 0.0):
            raise DimensionMismatch("stage matrix must be lower triangular")
        if np.any(np.diag(a) <= 0.0):
            raise DimensionMismatch("stage diagonal must be positive")
        if np.any(np.diag(a) != a[0, 0]):
            raise DimensionMismatch("stage diagonal must be constant")
        if abs(a[-1].sum() - 1.0) > 1e-14:
            raise DimensionMismatch("stage weights do not sum to 1")

    @property
    def stages(self):
        return self.a.shape[0]


_GAMMA2 = 1.0 - np.sqrt(2.0) / 2.0
_X3 = 0.4358665215

_TABLES = {
    "be": ButcherTable("be", [[1.0]], 1),
    "dirk2": ButcherTable("dirk2", [[_GAMMA2, 0.0], [1.0 - _GAMMA2, _GAMMA2]], 2),
    "dirk3": ButcherTable(
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
    if not (0 < dt < math.inf and 0 < akk < math.inf):
        raise DimensionMismatch("need finite dt > 0 and akk > 0, got dt=%g, akk=%g" % (dt, akk))
    return d_op.scaled_shifted(0.5, -dt * akk)


@dataclass
class StepDiagnostics:
    """Per-step record: growth rounds, final residuals, state rank."""

    krylov_iterations: int
    stage_residuals: list
    rank: int
    late_stage_restarts: int = 0


def dirk_step(f_n, table, dt, generators, tolerance, post_process=None):
    """Advance F by one DIRK step of size dt.

    Parameters
    ----------
    f_n : LowRankFactors
        Current state with orthonormal factors.
    generators : (d1, d2) pair
        Operators defining the right-hand side D1 F + F D2^T.
    tolerance : float
        Krylov residual tolerance every stage must meet.
    post_process : callable, optional
        Applied once to the accepted step-end factors (truncation or a
        conservative correction).  Defaults to identity.

    Returns (f_next, StepDiagnostics).
    """
    # scaled_shifted returns its last operator again for an equal (shift,
    # scale), so steps sharing dt share one factorized object
    d1, d2 = generators
    akk = table.a[0, 0]
    ops = (assemble_stage_operator(d1, dt, akk), assemble_stage_operator(d2, dt, akk))
    u, core, v, diag = adaptive_stage_solve(ops, f_n, tolerance, table.a)
    f_raw = LowRankFactors(u, core, v, orthonormal=True)
    f_next = post_process(f_raw) if post_process is not None else f_raw
    return f_next, StepDiagnostics(
        krylov_iterations=diag.iterations,
        stage_residuals=list(diag.stage_residuals),
        rank=f_next.rank,
        late_stage_restarts=sum(1 for k in diag.reject_stages if k > 0),
    )
