"""Two-dimensional periodic heat equation in low-rank form.

u_t = d1 u_xx + d2 u_yy on the unit torus, second-order central differences on
a uniform N1 x N2 grid.  The generator per direction is the circulant
tridiagonal (d/dx^2) * [-2 on the diagonal, 1 off, 1 in the corners].
"""

import numpy as np

from .errors import DimensionMismatch, NonPositiveDiffusion
from .linalg import TridiagonalOperator
from .lowrank import LowRankFactors, conservative_truncate, lr_moments, truncate

# rebound by the per-layer tracer in perfbench/layers.py; unused here
from .lowrank import core_truncate, joint_basis  # noqa: F401


def heat_grid(n):
    """Nodes x_i = i/n on [0,1) and the spacing 1/n."""
    dx = 1.0 / n
    return np.arange(n) * dx, dx


def build_heat_operator(n, d, dx):
    """Periodic central second difference scaled by the diffusivity d."""
    if not d > 0:
        raise NonPositiveDiffusion("diffusivity must be > 0, got %g" % d)
    if n < 3:
        raise DimensionMismatch("periodic stencil needs at least 3 points")
    k = d / dx**2
    return TridiagonalOperator(
        np.full(n, -2.0 * k),
        np.full(n - 1, k),
        np.full(n - 1, k),
        circulant=True,
    )


def heat_initial_condition(n1, n2=None):
    """Sum of two separable Gaussian bumps, returned with orthonormal factors."""
    if n2 is None:
        n2 = n1
    x, _ = heat_grid(n1)
    y, _ = heat_grid(n2)
    u = np.column_stack(
        [0.5 * np.exp(-400.0 * (x - 0.3) ** 2), 0.8 * np.exp(-400.0 * (x - 0.65) ** 2)]
    )
    v = np.column_stack(
        [np.exp(-400.0 * (y - 0.35) ** 2), np.exp(-400.0 * (y - 0.5) ** 2)]
    )
    return truncate(LowRankFactors(u, np.eye(2), v), 0.0)


def _mass_functional(shape, dx, dy):
    """(rows_u, rows_v, modes) of the cell sum dx*dy*sum_ij F_ij for ``lr_moments``."""
    n1, n2 = shape
    return np.full((1, n1), dx), np.full((1, n2), dy), np.ones((1, 1, 1))


def discrete_mass(f, dx, dy):
    """Cell-sum integral dx*dy*sum_ij F_ij, computed from the factors."""
    return float(lr_moments(f, *_mass_functional(f.shape, dx, dy))[0])


def lomac_null_correction(f, n_exact, dx, dy, eps):
    """Mass-preserving truncation for a generator with a constant null mode.

    The one-moment case of ``conservative_truncate``: the range is the
    constant, the functional the cell sum ``discrete_mass`` measures, pinned
    to ``n_exact``.  Returns orthonormal factors of rank at most rank(f)+1.
    """
    n1, n2 = f.shape
    ones_u, ones_v = np.ones((n1, 1)), np.ones((n2, 1))
    return conservative_truncate(
        f, ones_u, ones_v, *_mass_functional(f.shape, dx, dy), [n_exact], eps
    )
