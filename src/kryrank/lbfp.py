"""Multi-species Lenard-Bernstein collision model in a 2-D velocity space.

Each species relaxes through drag-diffusion against every species (itself
included): df_a/dt = sum_b nu_ab div_v[(v - u_ab) f_a + D_ab grad_v f_a].
The pair coefficients are driven by a small implicit moment system advanced
alongside the distribution functions; a conservative truncation pins the
kinetic moments of each species to the moment-system values after every step.

Velocity grids are cell-centered with zero-flux boundaries; fluxes use
Chang-Cooper weighting, which makes the discrete Maxwellian an exact steady
state and gives exactly zero column sums (discrete mass conservation).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, NewtonDivergence, NonPositiveDiffusion, SolveFailure
from .dirk import dirk_step
from .krylov import lte_tolerance, stage_sweep
from .linalg import TridiagonalOperator
from .lowrank import (
    LowRankFactors,
    conservative_truncate,
    lr_add,
    lr_moments,
    spectral_scale,
    truncate,
)

# rebound by the per-layer tracer in perfbench/layers.py; unused here
from .lowrank import core_truncate, joint_basis  # noqa: F401

_NU_PREFACTOR = 2.0**2.5
MIN_VELOCITY_CELLS = 8


@dataclass(frozen=True)
class SpeciesConfig:
    """Physical parameters and two-hump initial condition of one species.

    The initial state is 0.5 M(v; +drift, T) + 0.5 M(v; -drift, T), two
    counter-streaming Maxwellians of temperature ``temperature``; the mean
    velocity starts at zero and the kinetic temperature at
    temperature + mass*|drift|^2/2.
    """

    name: str
    mass: float
    charge: float
    density: float = 1.0
    temperature: float = 1.0
    drift: tuple = (0.0, 0.0)

    def __post_init__(self):
        # `not 0 < x < inf` rejects NaN too, which a `x <= 0` test lets through
        if not 0 < self.mass < math.inf:
            raise DimensionMismatch("species mass must be positive and finite")
        if not (0 < self.density < math.inf and 0 < self.temperature < math.inf):
            raise NonPositiveDiffusion("density and temperature must be positive and finite")

    @property
    def thermal_speed(self):
        return math.sqrt(self.temperature / self.mass)


def benchmark_species():
    """Ion/electron pair used throughout the relaxation experiments."""
    return [
        SpeciesConfig("ion", mass=1.0, charge=1.0, temperature=1.1, drift=(2.0, 2.0)),
        SpeciesConfig(
            "electron",
            mass=1.0 / 1836.0,
            charge=-1.0,
            temperature=0.9,
            drift=(10.0, 10.0),
        ),
    ]


def velocity_grid(n, vmax):
    """n cell centers on (-vmax, vmax), symmetric about 0, and the cell width."""
    if n < MIN_VELOCITY_CELLS:
        raise DimensionMismatch(
            "velocity grid needs at least %d cells, got %d" % (MIN_VELOCITY_CELLS, n)
        )
    if not 0 < vmax < math.inf:
        raise DimensionMismatch("velocity grid halfwidth must be positive and finite: %g" % vmax)
    dv = 2.0 * vmax / n
    return -vmax + (np.arange(n) + 0.5) * dv, dv


def maxwellian_factors(grid, density, u, vth2):
    """Rank-1 factors of density/(2 pi vth2) * exp(-|v-u|^2/(2 vth2)) on a square grid."""
    g1 = np.exp(-((grid - u[0]) ** 2) / (2.0 * vth2))
    g2 = np.exp(-((grid - u[1]) ** 2) / (2.0 * vth2))
    core = np.array([[density / (2.0 * math.pi * vth2)]])
    return LowRankFactors(g1[:, None], core, g2[:, None])


def bi_maxwellian_factors(grid, sp):
    """Counter-streaming initial condition of ``sp`` with orthonormal factors."""
    vth2 = sp.temperature / sp.mass
    plus = maxwellian_factors(grid, 0.5 * sp.density, sp.drift, vth2)
    minus = maxwellian_factors(grid, 0.5 * sp.density, (-sp.drift[0], -sp.drift[1]), vth2)
    return truncate(lr_add(plus, minus), 0.0)


@dataclass(frozen=True)
class MomentState:
    """Velocity moments of one species: density, flux, kinetic energy density.

    gam_k = integral v_k f dv and energy = 1/2 integral |v|^2 f dv; the mass
    factor lives in the species, so m*energy is the physical energy.
    """

    n: float
    gam1: float
    gam2: float
    energy: float

    def velocity(self):
        return (self.gam1 / self.n, self.gam2 / self.n)

    def temperature(self, mass):
        u1, u2 = self.velocity()
        return mass * (2.0 * self.energy - u1 * self.gam1 - u2 * self.gam2) / (
            2.0 * self.n
        )

    def as_vector(self):
        """(n, gam1, gam2, 2*energy), the invariant set the truncation pins."""
        return np.array([self.n, self.gam1, self.gam2, 2.0 * self.energy])


def kinetic_moments(f, grid, dv):
    """MomentState of F by the functionals ``lomac_project`` pins: energy is |v|^2 / 2."""
    n, g1, g2, v2 = lr_moments(f, *_moment_functionals(grid, dv)).tolist()
    return MomentState(n, g1, g2, 0.5 * v2)


def collision_coefficients(states, species):
    """Pair table at the given moment states as one (s, s, 4) array.

    coeffs[a, b] = (nu, u1, u2, D) of the ordered pair (a, b), and coeffs[a]
    is species a's (s, 4) block that ``build_lbfp_operators`` takes.  The
    formulas are those of ``_pair_table``, which the moment system uses.
    """
    return np.stack(_pair_table(_pack(states), _species_arrays(states, species)), -1)


def total_invariants(states, species):
    """Mass-weighted totals (momentum_1, momentum_2, energy) the model conserves."""
    p1 = sum(sp.mass * st.gam1 for sp, st in zip(species, states))
    p2 = sum(sp.mass * st.gam2 for sp, st in zip(species, states))
    en = sum(sp.mass * st.energy for sp, st in zip(species, states))
    return p1, p2, en


def equilibrium_state(states, species):
    """Common drift and temperature the coupled system relaxes toward."""
    mn = sum(sp.mass * st.n for sp, st in zip(species, states))
    ntot = sum(st.n for st in states)
    u1 = sum(sp.mass * st.gam1 for sp, st in zip(species, states)) / mn
    u2 = sum(sp.mass * st.gam2 for sp, st in zip(species, states)) / mn
    kin = sum(
        0.5 * sp.mass * st.n * (st.velocity()[0] ** 2 + st.velocity()[1] ** 2)
        for sp, st in zip(species, states)
    )
    therm = sum(
        st.n * st.temperature(sp.mass) for sp, st in zip(species, states)
    )
    tbar = (kin + therm - 0.5 * (u1**2 + u2**2) * mn) / ntot
    return np.array([u1, u2]), tbar


def _pack(states):
    return np.array(
        [x for st in states for x in (st.gam1, st.gam2, st.energy)]
    )


def _unpack(y, base):
    return [
        MomentState(st.n, y[3 * a], y[3 * a + 1], y[3 * a + 2])
        for a, st in enumerate(base)
    ]


def _species_arrays(states, species):
    """State-independent pair constants reused by every packed rhs evaluation."""
    n_arr = np.array([st.n for st in states])
    mass = np.array([sp.mass for sp in species])
    q2 = np.array([sp.charge**2 for sp in species])
    msum = mass[:, None] + mass[None, :]
    nu_pref = (
        _NU_PREFACTOR * q2[:, None] * q2[None, :] * n_arr[None, :]
        * (mass[None, :] / msum)
    )
    m_outer_4msum = mass[:, None] * mass[None, :] / (4.0 * msum)
    names = [sp.name for sp in species]
    return n_arr, mass, msum, nu_pref, m_outer_4msum, names


def _pair_table(y, arrs):
    """Pair coefficients (nu, u1, u2, D) as (..., s, s) arrays at the packed moments y.

    ``y`` may carry leading batch axes; each packed vector along them is
    evaluated independently by the same elementwise operations.

    nu_ab = 2^(5/2) e_a^2 e_b^2 n_b (m_b/(m_a+m_b)) (vth_a + vth_b)^(-3/2),
    u_ab the velocity midpoint, and D_ab = T_ab/m_a with the pair temperature
    T_ab = (m_a T_b + m_b T_a)/(m_a+m_b) + m_a m_b |u_a-u_b|^2/(4(m_a+m_b)),
    the unique combination conserving momentum and energy jointly, since
    m_a n_a nu_ab is symmetric in (a, b).
    """
    n_arr, mass, msum, nu_pref, m_outer_4msum, names = arrs
    g1 = y[..., 0::3]
    g2 = y[..., 1::3]
    u1 = g1 / n_arr
    u2 = g2 / n_arr
    t = mass * (2.0 * y[..., 2::3] - u1 * g1 - u2 * g2) / (2.0 * n_arr)
    bad = np.argwhere(t <= 0)
    if bad.size:
        # the first offending vector in batch order, then its first species
        first = tuple(bad[0])
        raise NonPositiveDiffusion(
            "species %s has non-positive temperature %g" % (names[first[-1]], t[first])
        )
    vth = np.sqrt(t / mass)
    nu = nu_pref * (vth[..., :, None] + vth[..., None, :]) ** -1.5
    du2 = (u1[..., :, None] - u1[..., None, :]) ** 2 + (u2[..., :, None] - u2[..., None, :]) ** 2
    tpair = (mass[:, None] * t[..., None, :] + mass[None, :] * t[..., :, None]) / msum
    tpair = tpair + m_outer_4msum * du2
    um1 = 0.5 * (u1[..., :, None] + u1[..., None, :])
    um2 = 0.5 * (u2[..., :, None] + u2[..., None, :])
    return nu, um1, um2, tpair / mass[:, None]


def _rhs_packed(y, arrs):
    """Time derivatives of the packed (gam1, gam2, energy) per species.

    dgam_a = sum_b nu_ab n_a (u_ab - u_a) and
    denergy_a = sum_b nu_ab (2 D_ab n_a - 2 E_a + u_ab . gam_a), vectorized
    over the pair table; densities are fixed.

    Leading batch axes of ``y`` are kept: the Newton stage solver evaluates
    all finite-difference perturbations in one call.
    """
    n_arr = arrs[0]
    nu, um1, um2, diff = _pair_table(y, arrs)
    g1 = y[..., 0::3]
    g2 = y[..., 1::3]
    en = y[..., 2::3]
    out = np.empty_like(y)
    out[..., 0::3] = (nu * n_arr[:, None] * (um1 - (g1 / n_arr)[..., :, None])).sum(axis=-1)
    out[..., 1::3] = (nu * n_arr[:, None] * (um2 - (g2 / n_arr)[..., :, None])).sum(axis=-1)
    out[..., 2::3] = (
        nu
        * (
            2.0 * diff * n_arr[:, None]
            - 2.0 * en[..., :, None]
            + um1 * g1[..., :, None]
            + um2 * g2[..., :, None]
        )
    ).sum(axis=-1)
    return out


def _fd_jacobian(resid, y, g):
    """Forward-difference Jacobian of ``resid`` at y, given g = resid(y).

    Column j is (resid(y + h_j e_j) - g) / h_j with h_j = 1e-7 (1 + |y_j|);
    ``resid`` maps a batch of states, one per row, and gets all m perturbed
    states in one call.
    """
    m = y.size
    h = 1e-7 * (1.0 + np.abs(y))
    yp = np.tile(y, (m, 1))
    yp[np.arange(m), np.arange(m)] += h
    return ((resid(yp) - g) / h[:, None]).T


def _moment_stage_solve(r, akk, dt, arrs, scale, max_newton=50):
    """Solve y = r + dt*akk*f(y) by damping-free Newton with a FD Jacobian.

    Returns f(y) at the solution, the stage derivative.
    """
    y = r.copy()
    history = []

    def rhs(x):
        try:
            return _rhs_packed(x, arrs)
        except NonPositiveDiffusion as exc:
            raise NewtonDivergence(
                "stage iterate is unphysical: %s" % exc, history
            ) from exc

    def resid(x):
        return x - dt * akk * rhs(x) - r

    for _ in range(max_newton):
        fy = rhs(y)
        g = y - dt * akk * fy - r
        res = float(np.max(np.abs(g)))
        history.append(res)
        if res <= 1e-12 * scale:
            return fy
        try:
            step = np.linalg.solve(_fd_jacobian(resid, y, g), g)
        except np.linalg.LinAlgError:
            raise NewtonDivergence(
                "singular stage Jacobian", history=history
            ) from None
        y = y - step
        if not np.all(np.isfinite(y)):
            raise NewtonDivergence("stage iterate left the finite range", history)
    raise NewtonDivergence(
        "moment stage Newton missed tolerance after %d iterations" % max_newton,
        history,
    )


def moment_step(states, species, table, dt):
    """Step-end moment states of one DIRK step of the moment system.

    ``krylov.stage_sweep`` runs on the change z = y - y0 from z = 0 (a sweep
    of y itself loses digits in its increments).  Stage k returns
    Z_k = B_k + dt*a_kk*f(y_k) from its Newton solution y_k, so the
    increments (Z_k - B_k)/a_kk are dt*f(y_k) to rounding, and the step end
    y0 + Z_s conserves linear invariants of the rhs to rounding, whatever the
    Newton tolerance.  A dt that is not positive and finite raises
    DimensionMismatch.
    """
    if not 0 < dt < math.inf:
        raise DimensionMismatch("moment step needs a positive finite dt, got %g" % dt)
    y0 = _pack(states)
    arrs = _species_arrays(states, species)
    scale = 1.0 + float(np.max(np.abs(y0)))
    akk = float(table.a[0, 0])

    def solve(b):
        return b + dt * akk * _moment_stage_solve(y0 + b, akk, dt, arrs, scale)

    # k counts the stages done, so on a failure it is the failing stage
    k = 0
    try:
        for k, (_, z) in enumerate(stage_sweep(np.zeros_like(y0), table.a, solve), 1):
            pass
    except NewtonDivergence as exc:
        exc.where["stage"] = k
        raise
    return _unpack(y0 + z, states)


def chang_cooper_delta(w):
    """Exponential-fitting weight 1/w - 1/(e^w - 1), elementwise.

    Series for small |w|; the large-|w| limits 1/w and 1 + 1/w come out of the
    expm1 form directly (overflow to inf is deliberate).  The expm1 form runs
    over the whole array, and only the entries with |w| < 1e-6 (where it
    loses digits or is 0/0) are overwritten by the series.
    """
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.subtract(1.0 / w, 1.0 / np.expm1(w), out=out)
    small = np.abs(w) < 1e-6
    if small.any():
        ws = w[small]
        out[small] = 0.5 - ws / 12.0 + ws**3 / 720.0
    return out


def _direction_operator(grid, dv, pairs, component):
    """Zero-flux Chang-Cooper generator for one velocity direction.

    ``pairs`` is a (p, 4) block of (nu, u1, u2, D) rows, one per partner
    species.  Face fluxes phi_k = S_k F_k - L_k F_{k-1} sit between cells k-1
    and k; every pair's S and L are formed in one pass over (p, n-1) arrays
    and summed over the pairs.  Rows are flux differences, so every column
    sums to zero and the cell sum is invariant.
    """
    pairs = np.asarray(pairs, dtype=float)
    d = pairs[:, 3:]
    bad = ~(d > 0)
    if bad.any():
        raise NonPositiveDiffusion("pair diffusion must be positive, got %g" % d[bad][0])
    nu = pairs[:, :1]
    drift = grid[:-1] + 0.5 * dv - pairs[:, 1 + component, None]
    delta = chang_cooper_delta(dv * drift / d)
    s = (nu * (d / dv + (1.0 - delta) * drift)).sum(axis=0)
    l = (nu * (d / dv - delta * drift)).sum(axis=0)
    diag = np.zeros(grid.size)
    diag[:-1] -= l
    diag[1:] -= s
    return TridiagonalOperator(diag / dv, l / dv, s / dv)


def build_lbfp_operators(grid, dv, pairs):
    """(A1, A2) so that df/dt = A1 F + F A2^T for one species' (p, 4) pair block."""
    return (
        _direction_operator(grid, dv, pairs, 0),
        _direction_operator(grid, dv, pairs, 1),
    )


def _power_rows(grid, w):
    """Rows (w, v w, v^2 w) on ``grid``."""
    rows = np.empty((3, grid.size))
    rows[0] = w
    rows[1] = grid * w
    rows[2] = grid * rows[1]
    return rows


# modes over the (1, v, v^2) rows of each side: n, gam1, gam2, |v|^2
_MOMENT_MODES = np.zeros((4, 3, 3))
_MOMENT_MODES[0, 0, 0] = 1.0
_MOMENT_MODES[1, 1, 0] = 1.0
_MOMENT_MODES[2, 0, 1] = 1.0
_MOMENT_MODES[3, 2, 0] = _MOMENT_MODES[3, 0, 2] = 1.0


def _moment_functionals(grid, dv):
    """(rows_u, rows_v, modes) of the moments (n, gam1, gam2, |v|^2) for ``lr_moments``.

    Midpoint quadrature with cell area dv^2: one set of (1, v, v^2) dv rows
    serves both sides; the modes pick 1x1, v1x1, 1xv2 and v1^2x1 + 1xv2^2.
    """
    rows = _power_rows(grid, dv)
    return rows, rows, _MOMENT_MODES


def lomac_project(f, target, mass, grid, dv, eps):
    """Truncate ``f`` to tolerance ``eps`` while pinning its moments to ``target``.

    The four-moment case of ``conservative_truncate`` on a square velocity
    grid: the moment-carrying part is represented in a Maxwellian-weighted
    polynomial range {w w, v1 w w, w v2 w, (v1^2 + v2^2) w w} paired with the
    moment functionals ``kinetic_moments`` measures, pinned to
    ``target.as_vector()``.
    """
    vth2 = target.temperature(mass) / mass
    weighted = _power_rows(grid, np.exp(-(grid**2) / (2.0 * vth2))).T
    return conservative_truncate(
        f, weighted, weighted, *_moment_functionals(grid, dv), target.as_vector(), eps
    )


@dataclass
class LbfpSystem:
    """Species set with per-species grids, distribution functions, and moment states.

    ``factors`` holds LowRankFactors for ``lbfp_step`` and dense arrays for
    ``reference.dense_lbfp_step``; each step returns the same kind it took.
    """

    species: list
    grids: list
    dvs: list
    factors: list
    states: list


def initialize_system(species, n_points, halfwidth=10.0):
    """Build grids sized to halfwidth*thermal_speed and the two-hump states."""
    grids, dvs, factors, states = [], [], [], []
    for sp in species:
        grid, dv = velocity_grid(n_points, halfwidth * sp.thermal_speed)
        f = bi_maxwellian_factors(grid, sp)
        grids.append(grid)
        dvs.append(dv)
        factors.append(f)
        states.append(kinetic_moments(f, grid, dv))
    return LbfpSystem(list(species), grids, dvs, factors, states)


def step_generators(system, table, dt):
    """(step-end moment states, [(D1, D2) per species]): the front half of every lbfp step.

    One DIRK step of the moment system, with the pair coefficients frozen at
    its step-end moments, so all DIRK stages share one operator pair per
    species.  ``lbfp_step`` and ``reference.dense_lbfp_step`` both read it.
    """
    new_states = moment_step(system.states, system.species, table, dt)
    coeffs = collision_coefficients(new_states, system.species)
    ops = [build_lbfp_operators(g, dv, c) for g, dv, c in zip(system.grids, system.dvs, coeffs)]
    return new_states, ops


def lbfp_step(system, table, dt, tol_constant, eps_rel=1e-8):
    """Advance the coupled system by one step of size dt.

    Order of operations: ``step_generators``; low-rank DIRK step per species
    with the conservative truncation pinning kinetic moments to the
    moment-system values.

    Returns (new_system, per-species StepDiagnostics list).
    """
    new_states, ops = step_generators(system, table, dt)
    tol = lte_tolerance(tol_constant, dt, table.order)
    new_factors = []
    diags = []
    for sp, f, grid, dv, pair, target in zip(
        system.species, system.factors, system.grids, system.dvs, ops, new_states
    ):

        def post(raw):
            return lomac_project(raw, target, sp.mass, grid, dv, eps_rel * spectral_scale(raw))

        try:
            f_next, d = dirk_step(f, table, dt, pair, tol, post_process=post)
        except SolveFailure as exc:
            exc.where["species"] = sp.name
            raise
        new_factors.append(f_next)
        diags.append(d)
    return replace(system, factors=new_factors, states=new_states), diags
