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
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NewtonDivergence, NonPositiveDiffusion
from .dirk import dirk_step
from .krylov import lte_tolerance
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
        if self.mass <= 0:
            raise DimensionMismatch("species mass must be positive")
        if self.density <= 0 or self.temperature <= 0:
            raise NonPositiveDiffusion("density and temperature must be positive")

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
    if n < 8:
        raise DimensionMismatch("velocity grid needs at least 8 cells, got %d" % n)
    dv = 2.0 * vmax / n
    return -vmax + (np.arange(n) + 0.5) * dv, dv


def maxwellian_factors(grid1, grid2, density, u, vth2):
    """Rank-1 factors of density/(2 pi vth2) * exp(-|v-u|^2/(2 vth2))."""
    g1 = np.exp(-((grid1 - u[0]) ** 2) / (2.0 * vth2))
    g2 = np.exp(-((grid2 - u[1]) ** 2) / (2.0 * vth2))
    core = np.array([[density / (2.0 * math.pi * vth2)]])
    return LowRankFactors(g1[:, None], core, g2[:, None])


def bi_maxwellian_factors(grid1, grid2, sp):
    """Counter-streaming initial condition of ``sp`` with orthonormal factors."""
    vth2 = sp.temperature / sp.mass
    plus = maxwellian_factors(grid1, grid2, 0.5 * sp.density, sp.drift, vth2)
    minus = maxwellian_factors(
        grid1, grid2, 0.5 * sp.density, (-sp.drift[0], -sp.drift[1]), vth2
    )
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


def kinetic_moments(f, grid1, grid2, dv):
    n, g1, g2, e = lr_moments(f, grid1, grid2, dv)
    return MomentState(n, g1, g2, e)


@dataclass(frozen=True)
class PairCoefficients:
    """Drag center, diffusion, and rate for one ordered species pair."""

    nu: float
    u1: float
    u2: float
    diffusion: float


def collision_coefficients(states, species):
    """Pair table coeffs[a][b] evaluated at the given moment states.

    The formulas are those of ``_pair_table``, which the moment system uses.
    """
    table = np.stack(_pair_table(_pack(states), _species_arrays(states, species)), -1)
    return [[PairCoefficients(*pair) for pair in row] for row in table.tolist()]


def moment_rhs(states, species):
    """Time derivatives (dgam1, dgam2, denergy) per species; densities are fixed.

    dgam_a = sum_b nu_ab n_a (u_ab - u_a) and
    denergy_a = sum_b nu_ab (2 D_ab n_a - 2 E_a + u_ab . gam_a).
    """
    out = _rhs_packed(_pack(states), _species_arrays(states, species))
    return [tuple(row) for row in out.reshape(-1, 3).tolist()]


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
    """Pair coefficients (nu, u1, u2, D) as (s, s) arrays at the packed moments y.

    nu_ab = 2^(5/2) e_a^2 e_b^2 n_b (m_b/(m_a+m_b)) (vth_a + vth_b)^(-3/2),
    u_ab the velocity midpoint, and D_ab = T_ab/m_a with the pair temperature
    T_ab = (m_a T_b + m_b T_a)/(m_a+m_b) + m_a m_b |u_a-u_b|^2/(4(m_a+m_b)),
    the unique combination conserving momentum and energy jointly, since
    m_a n_a nu_ab is symmetric in (a, b).
    """
    n_arr, mass, msum, nu_pref, m_outer_4msum, names = arrs
    g1 = y[0::3]
    g2 = y[1::3]
    u1 = g1 / n_arr
    u2 = g2 / n_arr
    t = mass * (2.0 * y[2::3] - u1 * g1 - u2 * g2) / (2.0 * n_arr)
    bad = np.flatnonzero(t <= 0)
    if bad.size:
        raise NonPositiveDiffusion(
            "species %s has non-positive temperature %g" % (names[bad[0]], t[bad[0]])
        )
    vth = np.sqrt(t / mass)
    nu = nu_pref * (vth[:, None] + vth[None, :]) ** -1.5
    du2 = (u1[:, None] - u1[None, :]) ** 2 + (u2[:, None] - u2[None, :]) ** 2
    tpair = (mass[:, None] * t[None, :] + mass[None, :] * t[:, None]) / msum
    tpair = tpair + m_outer_4msum * du2
    um1 = 0.5 * (u1[:, None] + u1[None, :])
    um2 = 0.5 * (u2[:, None] + u2[None, :])
    return nu, um1, um2, tpair / mass[:, None]


def _rhs_packed(y, arrs):
    """moment_rhs on the packed vector, vectorized over the pair table.

    The Newton stage solver calls this inside its finite difference loop.
    """
    n_arr = arrs[0]
    nu, um1, um2, diff = _pair_table(y, arrs)
    g1 = y[0::3]
    g2 = y[1::3]
    en = y[2::3]
    out = np.empty_like(y)
    out[0::3] = (nu * n_arr[:, None] * (um1 - (g1 / n_arr)[:, None])).sum(axis=1)
    out[1::3] = (nu * n_arr[:, None] * (um2 - (g2 / n_arr)[:, None])).sum(axis=1)
    out[2::3] = (
        nu
        * (
            2.0 * diff * n_arr[:, None]
            - 2.0 * en[:, None]
            + um1 * g1[:, None]
            + um2 * g2[:, None]
        )
    ).sum(axis=1)
    return out


def _moment_stage_solve(r, akk, dt, arrs, scale, max_newton=50):
    """Solve y = r + dt*akk*f(y) by damping-free Newton with a FD Jacobian."""
    y = r.copy()
    m = y.size
    history = []

    def rhs(x):
        try:
            return _rhs_packed(x, arrs)
        except NonPositiveDiffusion as exc:
            raise NewtonDivergence(
                "stage iterate is unphysical: %s" % exc, history
            ) from exc

    for _ in range(max_newton):
        fy = rhs(y)
        g = y - dt * akk * fy - r
        res = float(np.max(np.abs(g)))
        history.append(res)
        if res <= 1e-12 * scale:
            return y, fy
        jac = np.empty((m, m))
        for j in range(m):
            h = 1e-7 * (1.0 + abs(y[j]))
            yp = y.copy()
            yp[j] += h
            gp = yp - dt * akk * rhs(yp) - r
            jac[:, j] = (gp - g) / h
        try:
            step = np.linalg.solve(jac, g)
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


def moment_dirk_solve(states, species, table, dt):
    """One DIRK step of the moment system: (stage state sets, step-end states).

    The step end is assembled from the stage derivatives, y + dt*sum b_k f_k,
    so linear invariants of the rhs are conserved to rounding independent of
    the Newton tolerance.  Stage states are returned for diagnostics; operator
    assembly downstream uses only the step end.
    """
    y0 = _pack(states)
    arrs = _species_arrays(states, species)
    scale = 1.0 + float(np.max(np.abs(y0)))
    fs = []
    stage_states = []
    for k in range(table.stages):
        r = y0.copy()
        for l in range(k):
            r += dt * table.a[k, l] * fs[l]
        yk, fk = _moment_stage_solve(r, float(table.a[k, k]), dt, arrs, scale)
        fs.append(fk)
        stage_states.append(_unpack(yk, states))
    y1 = y0.copy()
    for k, fk in enumerate(fs):
        y1 += dt * table.b[k] * fk
    return stage_states, _unpack(y1, states)


def moment_step(states, species, table, dt):
    """Step-end moment states of one DIRK step (stage sets discarded)."""
    return moment_dirk_solve(states, species, table, dt)[1]


def chang_cooper_delta(w):
    """Exponential-fitting weight 1/w - 1/(e^w - 1), elementwise.

    Series for small |w|; the large-|w| limits 1/w and 1 + 1/w come out of the
    expm1 form directly (overflow to inf is deliberate).
    """
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    small = np.abs(w) < 1e-6
    ws = w[small]
    out[small] = 0.5 - ws / 12.0 + ws**3 / 720.0
    wl = w[~small]
    with np.errstate(over="ignore"):
        out[~small] = 1.0 / wl - 1.0 / np.expm1(wl)
    return out


def _direction_operator(grid, dv, pairs, component):
    """Zero-flux Chang-Cooper generator for one velocity direction.

    Face fluxes phi_k = S_k F_k - L_k F_{k-1} sit between cells k-1 and k;
    rows are flux differences, so every column sums to zero and the cell sum
    is invariant.
    """
    n = grid.size
    faces = grid[:-1] + 0.5 * dv
    s = np.zeros(n - 1)
    l = np.zeros(n - 1)
    for pc in pairs:
        d = pc.diffusion
        if d <= 0:
            raise NonPositiveDiffusion("pair diffusion must be positive, got %g" % d)
        u = pc.u1 if component == 0 else pc.u2
        drift = faces - u
        delta = chang_cooper_delta(dv * drift / d)
        s += pc.nu * (d / dv + (1.0 - delta) * drift)
        l += pc.nu * (d / dv - delta * drift)
    diag = np.zeros(n)
    diag[:-1] -= l
    diag[1:] -= s
    return TridiagonalOperator(diag / dv, l / dv, s / dv)


def build_lbfp_operators(grid, dv, pairs):
    """(A1, A2) so that df/dt = A1 F + F A2^T for one species."""
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


# modes over the (1, v, v^2) columns of each side: n, gam1, gam2, |v|^2
_MOMENT_MODES = np.zeros((4, 3, 3))
_MOMENT_MODES[0, 0, 0] = 1.0
_MOMENT_MODES[1, 1, 0] = 1.0
_MOMENT_MODES[2, 0, 1] = 1.0
_MOMENT_MODES[3, 2, 0] = _MOMENT_MODES[3, 0, 2] = 1.0


def lomac_project(f, target, mass, grid1, grid2, dv, eps):
    """Truncate ``f`` to tolerance ``eps`` while pinning its moments to ``target``.

    The four-moment case of ``conservative_truncate``: the moment-carrying
    part is represented in a Maxwellian-weighted polynomial range
    {w w, v1 w w, w v2 w, (v1^2 + v2^2) w w} paired with the plain moment
    functionals (1, v1, v2, |v|^2), pinned to ``target.as_vector()``.
    """
    vth2 = target.temperature(mass) / mass
    w1 = np.exp(-(grid1**2) / (2.0 * vth2))
    w2 = np.exp(-(grid2**2) / (2.0 * vth2))
    return conservative_truncate(
        f,
        _power_rows(grid1, w1).T,
        _power_rows(grid2, w2).T,
        _power_rows(grid1, dv),
        _power_rows(grid2, dv),
        _MOMENT_MODES,
        target.as_vector(),
        eps,
    )


@dataclass
class LbfpSystem:
    """Species set with per-species grids, low-rank states, and moment states."""

    species: list
    grids: list
    dvs: list
    factors: list
    states: list
    time: float = 0.0


def initialize_system(species, n_points, halfwidth=10.0):
    """Build grids sized to halfwidth*thermal_speed and the two-hump states."""
    grids, dvs, factors, states = [], [], [], []
    for sp in species:
        grid, dv = velocity_grid(n_points, halfwidth * sp.thermal_speed)
        f = bi_maxwellian_factors(grid, grid, sp)
        grids.append(grid)
        dvs.append(dv)
        factors.append(f)
        states.append(kinetic_moments(f, grid, grid, dv))
    return LbfpSystem(list(species), grids, dvs, factors, states)


def lbfp_step(system, table, dt, tol_constants, eps_rel=1e-8, max_iter=50):
    """Advance the coupled system by one step of size dt.

    Order of operations: implicit moment update; pair coefficients frozen at
    the updated moments (all DIRK stages then share one operator pair per
    species); low-rank DIRK step per species with the conservative truncation
    pinning kinetic moments to the moment-system values.

    Returns (new_system, per-species StepDiagnostics list).
    """
    if len(tol_constants) != table.stages:
        raise DimensionMismatch("need one tolerance constant per stage")
    new_states = moment_step(system.states, system.species, table, dt)
    coeffs = collision_coefficients(new_states, system.species)
    tols = [lte_tolerance(c, dt, table.order) for c in tol_constants]
    new_factors = []
    diags = []
    for a, sp in enumerate(system.species):
        grid, dv = system.grids[a], system.dvs[a]
        ops = build_lbfp_operators(grid, dv, coeffs[a])
        target = new_states[a]

        def post(raw, _t=target, _m=sp.mass, _g=grid, _dv=dv):
            return lomac_project(
                raw, _t, _m, _g, _g, _dv, eps_rel * spectral_scale(raw)
            )

        f_next, d = dirk_step(
            system.factors[a], table, dt, ops, tols,
            post_process=post, max_iter=max_iter,
        )
        new_factors.append(f_next)
        diags.append(d)
    return (
        LbfpSystem(
            system.species,
            system.grids,
            system.dvs,
            new_factors,
            new_states,
            system.time + dt,
        ),
        diags,
    )
