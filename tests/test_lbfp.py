"""Two-species velocity-space relaxation: moment ODEs, exponential-fitting
flux operators, and the conservative moment-pinning truncation.

Oracles: scalar recomputation of the pair coefficients and moment rhs,
explicit-Euler Richardson for the implicit moment step, conservation sums
evaluated with plain Python arithmetic, grid-sampled Maxwellian fixed points,
and dense midpoint quadrature on materialized matrices for every moment
claim about low-rank factors.
"""

import math
import warnings

import numpy as np
import pytest

from kryrank import lbfp
from kryrank.dirk import StepDiagnostics, get_table
from kryrank.errors import (
    DimensionMismatch,
    NewtonDivergence,
    NonPositiveDiffusion,
)
from kryrank.lbfp import (
    MIN_VELOCITY_CELLS,
    LbfpSystem,
    MomentState,
    SpeciesConfig,
    _fd_jacobian,
    _moment_stage_solve,
    _pack,
    _rhs_packed,
    _species_arrays,
    benchmark_species,
    bi_maxwellian_factors,
    build_lbfp_operators,
    chang_cooper_delta,
    collision_coefficients,
    equilibrium_state,
    initialize_system,
    kinetic_moments,
    lbfp_step,
    lomac_project,
    maxwellian_factors,
    moment_step,
    total_invariants,
    velocity_grid,
)
from kryrank.linalg import TridiagonalOperator
from kryrank.lowrank import LowRankFactors, lr_add, spectral_scale, truncate


def dense_moments(mat, grid1, grid2, dv):
    """Plain midpoint quadrature of (n, gam1, gam2, energy) on a full matrix."""
    cell = dv * dv
    n = cell * mat.sum()
    g1 = cell * (grid1[:, None] * mat).sum()
    g2 = cell * (mat * grid2[None, :]).sum()
    en = 0.5 * cell * ((grid1**2)[:, None] * mat + mat * (grid2**2)[None, :]).sum()
    return np.array([n, g1, g2, en])


def moment_vector(f, grid, dv):
    """(n, gam1, gam2, energy) of factors F on a square grid, by ``kinetic_moments``."""
    st = kinetic_moments(f, grid, dv)
    return np.array([st.n, st.gam1, st.gam2, st.energy])


def pair_oracle(sa, sb, sta, stb):
    """Scalar recomputation of (nu, u1, u2, D) for the ordered pair (a, b)."""
    ta = sta.temperature(sa.mass)
    tb = stb.temperature(sb.mass)
    va = math.sqrt(ta / sa.mass)
    vb = math.sqrt(tb / sb.mass)
    msum = sa.mass + sb.mass
    nu = (
        2.0**2.5
        * sa.charge**2
        * sb.charge**2
        * stb.n
        * (sb.mass / msum)
        / (va + vb) ** 1.5
    )
    ua = sta.velocity()
    ub = stb.velocity()
    du2 = (ua[0] - ub[0]) ** 2 + (ua[1] - ub[1]) ** 2
    t_pair = (sa.mass * tb + sb.mass * ta) / msum + sa.mass * sb.mass * du2 / (
        4.0 * msum
    )
    return nu, 0.5 * (ua[0] + ub[0]), 0.5 * (ua[1] + ub[1]), t_pair / sa.mass


def rhs_oracle(states, species):
    """Direct evaluation of the exchange formulas with pair_oracle terms."""
    out = []
    for a, (sa, sta) in enumerate(zip(species, states)):
        ua = sta.velocity()
        dg1 = dg2 = de = 0.0
        for b, (sb, stb) in enumerate(zip(species, states)):
            nu, u1, u2, dcoef = pair_oracle(sa, sb, sta, stb)
            dg1 += nu * sta.n * (u1 - ua[0])
            dg2 += nu * sta.n * (u2 - ua[1])
            de += nu * (
                2.0 * dcoef * sta.n
                - 2.0 * sta.energy
                + u1 * sta.gam1
                + u2 * sta.gam2
            )
        out.append((dg1, dg2, de))
    return out


def packed_rhs(states, species):
    """The moment system's rhs as (dgam1, dgam2, denergy) rows, one per species."""
    return _rhs_packed(_pack(states), _species_arrays(states, species)).reshape(-1, 3)


def looped_direction_oracle(grid, dv, pairs, component):
    """(diag, lower, upper) of one direction's generator, one pair at a time.

    The per-pair loop the one-pass operator replaced: each pair's
    Chang-Cooper face coefficients are accumulated into S and L in turn.
    """
    faces = grid[:-1] + 0.5 * dv
    s = np.zeros(grid.size - 1)
    l = np.zeros(grid.size - 1)
    for nu, u1, u2, d in pairs:
        drift = faces - (u1 if component == 0 else u2)
        delta = chang_cooper_delta(dv * drift / d)
        s += nu * (d / dv + (1.0 - delta) * drift)
        l += nu * (d / dv - delta * drift)
    diag = np.zeros(grid.size)
    diag[:-1] -= l
    diag[1:] -= s
    return diag / dv, l / dv, s / dv


def random_state(rng, mass):
    n = float(rng.uniform(0.5, 2.0))
    u = rng.uniform(-1.0, 1.0, 2)
    t = float(rng.uniform(0.5, 2.0))
    en = 0.5 * n * (u[0] ** 2 + u[1] ** 2) + n * t / mass
    return MomentState(n, n * u[0], n * u[1], en)


def state_at(n, u, t, mass):
    en = 0.5 * n * (u[0] ** 2 + u[1] ** 2) + n * t / mass
    return MomentState(n, n * u[0], n * u[1], en)


OJE_PAIR = [
    SpeciesConfig("a", 1.0, 1.0, temperature=2.0),
    SpeciesConfig("b", 1.0, 1.0, temperature=0.5),
]


def fast_pair_states():
    return [
        state_at(1.0, (0.3, -0.2), 2.0, 1.0),
        state_at(1.0, (-0.5, 0.4), 0.5, 1.0),
    ]


class TestSpeciesAndGrid:
    def test_benchmark_pair_parameters(self):
        ion, ele = benchmark_species()
        assert ion.mass == 1.0 and ion.charge == 1.0
        assert ion.temperature == 1.1 and ion.drift == (2.0, 2.0)
        assert ele.mass == 1.0 / 1836.0 and ele.charge == -1.0
        assert ele.temperature == 0.9 and ele.drift == (10.0, 10.0)

    def test_thermal_speed(self):
        sp = SpeciesConfig("s", 4.0, 1.0, temperature=9.0)
        assert abs(sp.thermal_speed - 1.5) <= 1e-15

    def test_velocity_grid_cells(self):
        grid, dv = velocity_grid(48, 6.0)
        assert grid.size == 48
        assert abs(dv - 12.0 / 48) <= 1e-15
        assert np.abs(np.diff(grid) - dv).max() <= 1e-13
        assert np.abs(grid + grid[::-1]).max() <= 1e-13
        assert abs(grid[0] + 6.0 - 0.5 * dv) <= 1e-13
        assert abs(grid[-1] - 6.0 + 0.5 * dv) <= 1e-13

    def test_velocity_grid_too_small(self):
        with pytest.raises(DimensionMismatch):
            velocity_grid(4, 1.0)

    @pytest.mark.parametrize("vmax", [-10.0, 0.0, math.nan, math.inf, -math.inf])
    def test_velocity_grid_halfwidth_positive_finite(self, vmax):
        # a negative halfwidth would step on a descending grid, and a zero or
        # non-finite one would build zero-density moment states
        with pytest.raises(DimensionMismatch):
            velocity_grid(16, vmax)
        with pytest.raises(DimensionMismatch):
            initialize_system(benchmark_species(), 16, halfwidth=vmax)

    def test_species_validation(self):
        with pytest.raises(DimensionMismatch):
            SpeciesConfig("s", 0.0, 1.0)
        with pytest.raises(NonPositiveDiffusion):
            SpeciesConfig("s", 1.0, 1.0, temperature=-1.0)
        with pytest.raises(NonPositiveDiffusion):
            SpeciesConfig("s", 1.0, 1.0, density=0.0)

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("mass", math.nan, DimensionMismatch),
            ("mass", math.inf, DimensionMismatch),
            ("temperature", math.nan, NonPositiveDiffusion),
            ("temperature", math.inf, NonPositiveDiffusion),
            ("density", math.nan, NonPositiveDiffusion),
            ("density", math.inf, NonPositiveDiffusion),
        ],
    )
    def test_species_rejects_non_finite(self, field, value, error):
        # a `<= 0` test lets NaN through; YAML input is screened by config,
        # so this is the Python API's own check
        kwargs = {"mass": 1.0, "charge": 1.0, field: value}
        with pytest.raises(error, match="finite"):
            SpeciesConfig("s", **kwargs)


class TestMomentState:
    def test_energy_velocity_temperature_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(16):
            mass = float(rng.uniform(0.1, 5.0))
            n = float(rng.uniform(0.5, 2.0))
            u = rng.uniform(-2.0, 2.0, 2)
            t = float(rng.uniform(0.2, 3.0))
            st = state_at(n, u, t, mass)
            assert abs(st.velocity()[0] - u[0]) <= 1e-13 * (1 + abs(u[0]))
            assert abs(st.velocity()[1] - u[1]) <= 1e-13 * (1 + abs(u[1]))
            assert abs(st.temperature(mass) - t) <= 1e-12 * t

    def test_as_vector_doubles_energy(self):
        st = MomentState(1.5, 0.25, -0.5, 2.0)
        assert np.array_equal(st.as_vector(), [1.5, 0.25, -0.5, 4.0])

    def test_maxwellian_moments(self):
        # vmax = 11 keeps the truncated tail below 1e-13 of each moment
        grid, dv = velocity_grid(256, 11.0)
        f = maxwellian_factors(grid, 0.8, (0.7, -0.4), 1.3)
        st = kinetic_moments(f, grid, dv)
        assert abs(st.n - 0.8) <= 1e-12
        assert abs(st.velocity()[0] - 0.7) <= 1e-12
        assert abs(st.velocity()[1] + 0.4) <= 1e-12
        assert abs(st.temperature(2.0) - 2.0 * 1.3) <= 1e-11

    def test_two_hump_initial_state(self):
        for sp in benchmark_species():
            grid, dv = velocity_grid(96, 10.0 * sp.thermal_speed)
            f = bi_maxwellian_factors(grid, sp)
            assert f.rank == 2
            st = kinetic_moments(f, grid, dv)
            tkin = sp.temperature + 0.5 * sp.mass * (
                sp.drift[0] ** 2 + sp.drift[1] ** 2
            )
            assert abs(st.n - 1.0) <= 1e-12
            assert abs(st.gam1) <= 1e-12
            assert abs(st.gam2) <= 1e-12
            assert abs(st.temperature(sp.mass) - tkin) <= 1e-12 * tkin


class TestCollisionCoefficients:
    def test_self_pair_collapse(self):
        rng = np.random.default_rng(3)
        st = random_state(rng, 1.5)
        sp = SpeciesConfig("s", 1.5, 1.0)
        _nu, u1, u2, d = collision_coefficients([st], [sp])[0, 0]
        t = st.temperature(1.5)
        assert abs(u1 - st.velocity()[0]) <= 1e-14
        assert abs(u2 - st.velocity()[1]) <= 1e-14
        assert abs(d - t / 1.5) <= 1e-14 * t

    def test_equal_state_pair(self):
        u = (0.4, -0.1)
        species = [SpeciesConfig("a", 1.0, 1.0), SpeciesConfig("b", 3.0, 1.0)]
        states = [state_at(1.0, u, 1.7, 1.0), state_at(1.0, u, 1.7, 3.0)]
        coeffs = collision_coefficients(states, species)
        for a in range(2):
            for b in range(2):
                _nu, u1, u2, d = coeffs[a, b]
                assert abs(u1 - u[0]) <= 1e-13
                assert abs(u2 - u[1]) <= 1e-13
                assert abs(d - 1.7 / species[a].mass) <= 1e-13

    def test_rate_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(16):
            masses = rng.uniform(0.2, 4.0, 3)
            species = [
                SpeciesConfig("s%d" % i, float(masses[i]), float(rng.uniform(0.5, 2)))
                for i in range(3)
            ]
            states = [random_state(rng, sp.mass) for sp in species]
            coeffs = collision_coefficients(states, species)
            for a in range(3):
                for b in range(3):
                    lhs = species[a].mass * states[a].n * coeffs[a, b, 0]
                    rhs = species[b].mass * states[b].n * coeffs[b, a, 0]
                    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            species = [
                SpeciesConfig("a", float(rng.uniform(0.2, 2)), 1.0),
                SpeciesConfig("b", float(rng.uniform(0.2, 2)), -1.0),
            ]
            states = [random_state(rng, sp.mass) for sp in species]
            coeffs = collision_coefficients(states, species)
            for a in range(2):
                for b in range(2):
                    nu, u1, u2, d = pair_oracle(
                        species[a], species[b], states[a], states[b]
                    )
                    got = coeffs[a, b]
                    assert abs(got[0] - nu) <= 1e-14 * nu
                    assert abs(got[1] - u1) <= 1e-14 * (1 + abs(u1))
                    assert abs(got[2] - u2) <= 1e-14 * (1 + abs(u2))
                    assert abs(got[3] - d) <= 1e-14 * d

    @pytest.mark.filterwarnings("error")
    def test_negative_temperature_rejected(self):
        # u.gam/2 = 2 exceeds the energy, so the thermal part is negative
        bad = MomentState(1.0, 2.0, 0.0, 1.0)
        with pytest.raises(NonPositiveDiffusion):
            collision_coefficients([bad], [SpeciesConfig("s", 1.0, 1.0)])

    @pytest.mark.filterwarnings("error")
    def test_unphysical_newton_iterate_is_newton_divergence(self):
        bad = MomentState(1.0, 2.0, 0.0, 1.0)
        arrs = _species_arrays([bad], [SpeciesConfig("s", 1.0, 1.0)])
        with pytest.raises(NewtonDivergence) as info:
            _moment_stage_solve(_pack([bad]), 1.0, 0.1, arrs, 1.0)
        assert isinstance(info.value.__cause__, NonPositiveDiffusion)


class TestMomentRhs:
    def test_single_species_stationary(self):
        rng = np.random.default_rng(13)
        st = random_state(rng, 1.0)
        (dg1, dg2, de), = packed_rhs([st], [SpeciesConfig("s", 1.0, 1.0)])
        scale = abs(st.energy) + 1.0
        assert abs(dg1) <= 1e-13 * scale
        assert abs(dg2) <= 1e-13 * scale
        assert abs(de) <= 1e-13 * scale

    def test_common_maxwellian_stationary(self):
        u = (0.2, -0.6)
        species = [SpeciesConfig("a", 1.0, 1.0), SpeciesConfig("b", 5.0, 1.0)]
        states = [state_at(1.3, u, 1.1, 1.0), state_at(0.7, u, 1.1, 5.0)]
        for dg1, dg2, de in packed_rhs(states, species):
            assert abs(dg1) <= 1e-13
            assert abs(dg2) <= 1e-13
            assert abs(de) <= 1e-13

    def test_conservation_sums(self):
        rng = np.random.default_rng(17)
        for _ in range(16):
            ns = int(rng.integers(2, 5))
            species = [
                SpeciesConfig("s%d" % i, float(rng.uniform(0.2, 4)), 1.0)
                for i in range(ns)
            ]
            states = [random_state(rng, sp.mass) for sp in species]
            rhs = packed_rhs(states, species)
            scale = sum(
                sp.mass * (abs(r[0]) + abs(r[1]) + abs(r[2]))
                for sp, r in zip(species, rhs)
            )
            p1 = sum(sp.mass * r[0] for sp, r in zip(species, rhs))
            p2 = sum(sp.mass * r[1] for sp, r in zip(species, rhs))
            en = sum(sp.mass * r[2] for sp, r in zip(species, rhs))
            assert abs(p1) <= 1e-12 * scale
            assert abs(p2) <= 1e-12 * scale
            assert abs(en) <= 1e-12 * scale

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(8):
            species = [
                SpeciesConfig("a", float(rng.uniform(0.2, 2)), 1.0),
                SpeciesConfig("b", float(rng.uniform(0.2, 2)), -1.0),
            ]
            states = [random_state(rng, sp.mass) for sp in species]
            got = packed_rhs(states, species)
            want = rhs_oracle(states, species)
            for g, w in zip(got, want):
                for x, y in zip(g, w):
                    assert abs(x - y) <= 1e-13 * (1.0 + abs(y))


def column_loop_jacobian(resid, y, g):
    """Forward-difference Jacobian built one perturbed state at a time."""
    m = y.size
    jac = np.empty((m, m))
    for j in range(m):
        h = 1e-7 * (1.0 + abs(y[j]))
        yp = y.copy()
        yp[j] += h
        jac[:, j] = (resid(yp) - g) / h
    return jac


class TestStageJacobian:
    def test_batched_is_bitwise_column_loop(self):
        rng = np.random.default_rng(29)
        for trial in range(40):
            ns = int(rng.integers(1, 5))
            species = [
                SpeciesConfig("s%d" % i, float(rng.uniform(0.2, 4)), float(rng.uniform(0.5, 2)))
                for i in range(ns)
            ]
            states = [random_state(rng, sp.mass) for sp in species]
            arrs = _species_arrays(states, species)
            y = _pack(states)
            r = y + 0.01 * rng.standard_normal(y.size)
            dt_akk = float(rng.uniform(0.01, 10.0))

            def resid(x):
                return x - dt_akk * _rhs_packed(x, arrs) - r

            g = resid(y)
            got = _fd_jacobian(resid, y, g)
            want = column_loop_jacobian(resid, y, g)
            assert got.tobytes(order="C") == want.tobytes(order="C"), trial

    def test_unphysical_perturbation_names_first_species(self):
        # b and c sit 1e-8 above zero thermal energy with gam1 = 1, so the
        # gam1 perturbation (h = 2e-7) drives their temperatures negative
        species = [SpeciesConfig(name, 1.0, 1.0) for name in "abc"]
        states = [
            state_at(1.0, (0.2, 0.1), 1.0, 1.0),
            MomentState(1.0, 1.0, 0.0, 0.5 + 5e-9),
            MomentState(1.0, 1.0, 0.0, 0.5 + 5e-9),
        ]
        arrs = _species_arrays(states, species)
        y = _pack(states)

        def resid(x):
            return x - 0.1 * _rhs_packed(x, arrs)

        g = resid(y)
        with pytest.raises(NonPositiveDiffusion) as loop:
            column_loop_jacobian(resid, y, g)
        with pytest.raises(NonPositiveDiffusion) as batched:
            _fd_jacobian(resid, y, g)
        assert str(batched.value) == str(loop.value)
        assert str(batched.value).startswith("species b ")
        with pytest.raises(NewtonDivergence) as info:
            _moment_stage_solve(y, 1.0, 0.1, arrs, 1.0)
        assert str(info.value.__cause__) == str(loop.value)


class TestEquilibriumState:
    def test_benchmark_temperature(self):
        species = benchmark_species()
        states = [
            state_at(
                1.0,
                (0.0, 0.0),
                sp.temperature
                + 0.5 * sp.mass * (sp.drift[0] ** 2 + sp.drift[1] ** 2),
                sp.mass,
            )
            for sp in species
        ]
        ubar, tbar = equilibrium_state(states, species)
        assert abs(tbar - 3.02723) <= 5e-6
        assert np.abs(ubar).max() <= 1e-12

    def test_single_species_identity(self):
        st = state_at(1.2, (0.4, -0.9), 1.7, 2.0)
        ubar, tbar = equilibrium_state([st], [SpeciesConfig("s", 2.0, 1.0)])
        assert np.abs(ubar - [0.4, -0.9]).max() <= 1e-13
        assert abs(tbar - 1.7) <= 1e-13

    def test_identical_species_identity(self):
        species = [SpeciesConfig("a", 1.5, 1.0), SpeciesConfig("b", 1.5, 1.0)]
        states = [state_at(0.8, (0.1, 0.3), 2.2, 1.5)] * 2
        ubar, tbar = equilibrium_state(states, species)
        assert np.abs(ubar - [0.1, 0.3]).max() <= 1e-13
        assert abs(tbar - 2.2) <= 1e-13

    def test_conservation_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(16):
            species = [
                SpeciesConfig("s%d" % i, float(rng.uniform(0.2, 4)), 1.0)
                for i in range(3)
            ]
            states = [random_state(rng, sp.mass) for sp in species]
            ubar, tbar = equilibrium_state(states, species)
            mn = sum(sp.mass * st.n for sp, st in zip(species, states))
            ntot = sum(st.n for st in states)
            me = sum(sp.mass * st.energy for sp, st in zip(species, states))
            u1 = sum(sp.mass * st.gam1 for sp, st in zip(species, states)) / mn
            u2 = sum(sp.mass * st.gam2 for sp, st in zip(species, states)) / mn
            t_ref = (me - 0.5 * (u1**2 + u2**2) * mn) / ntot
            assert abs(ubar[0] - u1) <= 1e-12 * (1 + abs(u1))
            assert abs(ubar[1] - u2) <= 1e-12 * (1 + abs(u2))
            assert abs(tbar - t_ref) <= 1e-12 * t_ref

    def test_equilibrium_is_rhs_fixed_point(self):
        rng = np.random.default_rng(31)
        species = [
            SpeciesConfig("a", 0.7, 1.0),
            SpeciesConfig("b", 2.3, -1.0),
        ]
        states = [random_state(rng, sp.mass) for sp in species]
        ubar, tbar = equilibrium_state(states, species)
        eq_states = [
            state_at(st.n, tuple(ubar), tbar, sp.mass)
            for sp, st in zip(species, states)
        ]
        scale = max(abs(st.energy) for st in eq_states)
        for trip in packed_rhs(eq_states, species):
            for x in trip:
                assert abs(x) <= 1e-10 * scale


class TestMomentDirk:
    def test_equilibrium_fixed_point(self):
        u = (0.25, -0.15)
        species = [SpeciesConfig("a", 1.0, 1.0), SpeciesConfig("b", 4.0, 1.0)]
        states = [state_at(1.0, u, 1.4, 1.0), state_at(1.0, u, 1.4, 4.0)]
        for name in ("be", "dirk2", "dirk3"):
            end = moment_step(states, species, get_table(name), 0.2)
            for st0, st1 in zip(states, end):
                for a, b in zip(st0.as_vector(), st1.as_vector()):
                    assert abs(a - b) <= 1e-13 * (1.0 + abs(a))

    def test_backward_euler_richardson(self):
        # one BE step differs from explicit Euler by O(dt^2)
        states = fast_pair_states()

        def gap(dt):
            end = moment_step(states, OJE_PAIR, get_table("be"), dt)
            rhs = packed_rhs(states, OJE_PAIR)
            total = 0.0
            for st0, st1, r in zip(states, end, rhs):
                ee = (
                    st0.gam1 + dt * r[0],
                    st0.gam2 + dt * r[1],
                    st0.energy + dt * r[2],
                )
                total += (
                    (st1.gam1 - ee[0]) ** 2
                    + (st1.gam2 - ee[1]) ** 2
                    + (st1.energy - ee[2]) ** 2
                )
            return math.sqrt(total)

        ratio = gap(0.05) / gap(0.025)
        assert 3.2 <= ratio <= 4.8

    def test_step_conserves_invariants(self):
        for states, species in (
            (fast_pair_states(), OJE_PAIR),
            (initialize_system(benchmark_species(), 64).states, benchmark_species()),
        ):
            i0 = total_invariants(states, species)
            for name in ("be", "dirk2", "dirk3"):
                end = moment_step(states, species, get_table(name), 0.1)
                i1 = total_invariants(end, species)
                scale = abs(i0[2]) + 1.0
                for a, b in zip(i0, i1):
                    assert abs(a - b) <= 1e-13 * scale

    def test_densities_never_move(self):
        states = fast_pair_states()
        end = moment_step(states, OJE_PAIR, get_table("dirk3"), 0.3)
        assert [st.n for st in end] == [st.n for st in states]

    @pytest.mark.parametrize("name", ["be", "dirk2", "dirk3"])
    def test_long_run_invariants_constant(self, name):
        species = benchmark_species()
        states = initialize_system(species, 64).states
        p0 = total_invariants(states, species)
        pscale = sum(
            sp.mass * st.n * math.sqrt(st.temperature(sp.mass) / sp.mass)
            for sp, st in zip(species, states)
        )
        for _ in range(100):
            states = moment_step(states, species, get_table(name), 0.1)
        p1 = total_invariants(states, species)
        assert abs(p1[0] - p0[0]) <= 1e-12 * pscale
        assert abs(p1[1] - p0[1]) <= 1e-12 * pscale
        assert abs(p1[2] - p0[2]) <= 1e-12 * abs(p0[2])

    @pytest.mark.xfail(
        strict=True,
        reason="the benchmark pair's cross-species rate (~1e-5) sets an "
        "energy-exchange time around 2e4, so temperatures are nowhere near "
        "common by t=10; the run leaves them ~68% from the shared value",
    )
    def test_long_run_temperatures_equilibrate_by_t10(self):
        species = benchmark_species()
        states = initialize_system(species, 64).states
        _, tbar = equilibrium_state(states, species)
        for _ in range(100):
            states = moment_step(states, species, get_table("be"), 0.1)
        for sp, st in zip(species, states):
            assert abs(st.temperature(sp.mass) - tbar) <= 1e-6 * tbar

    def test_equal_mass_pair_equilibrates_by_t10(self):
        # positive control for the strict xfail above: the same run, with an
        # equal-mass, unit-charge pair that collides at an O(1) rate, reaches
        # the common temperature, so that xfail comes from the benchmark
        # pair's physics (exchange time ~2e4), not from the exchange term
        species = [
            SpeciesConfig("hot", mass=1.0, charge=1.0, temperature=2.0),
            SpeciesConfig("cold", mass=1.0, charge=1.0, temperature=0.5),
        ]
        states = initialize_system(species, 16).states
        _, tbar = equilibrium_state(states, species)
        for _ in range(100):
            states = moment_step(states, species, get_table("be"), 0.1)
        for sp, st in zip(species, states):
            assert abs(st.temperature(sp.mass) - tbar) <= 1e-6 * tbar

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -0.1])
    def test_non_positive_or_non_finite_dt_rejected(self, dt, monkeypatch):
        # typed and before any Newton work, with warnings as errors: unchecked,
        # inf raises a RuntimeWarning from the FD Jacobian, nan and inf a
        # NewtonDivergence, and 0 and -0.1 return a step
        calls = []
        monkeypatch.setattr(lbfp, "_moment_stage_solve", lambda *args: calls.append(args))
        system = initialize_system(benchmark_species(), 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatch, match="positive finite dt"):
                moment_step(system.states, system.species, get_table("dirk2"), dt)
            with pytest.raises(DimensionMismatch, match="positive finite dt"):
                lbfp_step(system, get_table("dirk2"), dt, 1e-3)
        assert calls == []

    def test_newton_divergence_reports_history(self):
        with pytest.raises(NewtonDivergence) as info:
            moment_step(fast_pair_states(), OJE_PAIR, get_table("be"), 1e6)
        assert info.value.history
        assert info.value.where == {"stage": 0}

    def test_newton_divergence_names_the_stage(self, monkeypatch):
        real = lbfp._moment_stage_solve
        calls = []

        def stage_solve(*args):
            calls.append(args)
            if len(calls) == 2:
                raise NewtonDivergence("second stage fails", [1.0])
            return real(*args)

        monkeypatch.setattr(lbfp, "_moment_stage_solve", stage_solve)
        with pytest.raises(NewtonDivergence) as info:
            moment_step(fast_pair_states(), OJE_PAIR, get_table("dirk2"), 0.1)
        assert info.value.where == {"stage": 1}


class TestChangCooperDelta:
    def test_small_argument_limit(self):
        assert abs(chang_cooper_delta(1e-12) - 0.5) <= 1e-12
        assert abs(chang_cooper_delta(0.0) - 0.5) == 0.0

    def test_series_switch_continuity(self):
        # the direct branch rounds at ~eps/w next to the switch point
        below = chang_cooper_delta(0.999e-6)
        above = chang_cooper_delta(1.001e-6)
        assert abs(below - above) <= 1e-9

    def test_large_argument_asymptote(self):
        assert abs(chang_cooper_delta(30.0) - 1.0 / 30.0) <= 2e-13

    def test_reflection_identity(self):
        for w in (0.1, 1.0, 5.0):
            assert abs(chang_cooper_delta(-w) + chang_cooper_delta(w) - 1.0) <= 1e-13
        rng = np.random.default_rng(37)
        w = rng.uniform(-30.0, 30.0, 64)
        total = chang_cooper_delta(-w) + chang_cooper_delta(w)
        assert np.abs(total - 1.0).max() <= 1e-13

    def test_bounded_and_monotone(self):
        w = np.linspace(-25.0, 25.0, 2001)
        d = chang_cooper_delta(w)
        assert d.min() > 0.0 and d.max() < 1.0
        assert np.all(np.diff(d) < 0.0)

    def test_vectorized_matches_scalar(self):
        w = np.array([[-2.0, 1e-9], [0.3, 12.0]])
        d = chang_cooper_delta(w)
        assert d.shape == (2, 2)
        for idx in np.ndindex(2, 2):
            assert d[idx] == chang_cooper_delta(float(w[idx]))

    @staticmethod
    def masked_delta(w):
        """Each branch on its own entries only: the series and the expm1 form."""
        w = np.asarray(w, dtype=float)
        out = np.empty_like(w)
        small = np.abs(w) < 1e-6
        ws = w[small]
        out[small] = 0.5 - ws / 12.0 + ws**3 / 720.0
        wl = w[~small]
        with np.errstate(over="ignore"):
            out[~small] = 1.0 / wl - 1.0 / np.expm1(wl)
        return out

    def test_bitwise_equal_to_masked_form_without_warnings(self):
        edges = [0.0, 0.999e-6, 1e-6, 1.001e-6, 700.0, 800.0, 1e-12, 0.3, 30.0]
        w = np.array(edges + [-x for x in edges] + [np.nan])
        rng = np.random.default_rng(38)
        cases = [
            w,
            w.reshape(1, -1),
            rng.uniform(-1e-5, 1e-5, 257),
            rng.uniform(-40.0, 40.0, 257),
            np.array(0.0),
            np.array(-3e-7),
            np.array(800.0),
            np.empty(0),
        ]
        with warnings.catch_warnings():
            # exact 0 (0/0 in the expm1 form) and overflow must not warn
            warnings.simplefilter("error")
            for case in cases:
                got = chang_cooper_delta(case)
                want = self.masked_delta(case)
                assert got.shape == case.shape
                assert np.array_equal(got, want, equal_nan=True), case
                # every entry, with its sign of zero: the same bits
                assert got.tobytes() == want.tobytes()
            assert chang_cooper_delta(0.0) == 0.5
            assert chang_cooper_delta(800.0) == 1.0 / 800.0
            assert chang_cooper_delta(-800.0) == 1.0 + 1.0 / -800.0


class TestLbfpOperators:
    def test_column_sums_vanish(self):
        system = initialize_system(benchmark_species(), 128)
        coeffs = collision_coefficients(system.states, system.species)
        for a in range(2):
            ops = build_lbfp_operators(system.grids[a], system.dvs[a], coeffs[a])
            for op in ops:
                dense = op.dense()
                bound = 1e-13 * np.abs(dense).max()
                assert np.abs(dense.sum(axis=0)).max() <= bound

    def test_application_conserves_cell_sum(self):
        rng = np.random.default_rng(41)
        grid, dv = velocity_grid(64, 6.0)
        st = random_state(rng, 1.0)
        pairs = collision_coefficients([st], [SpeciesConfig("s", 1.0, 1.0)])[0]
        a1, a2 = build_lbfp_operators(grid, dv, pairs)
        f = rng.standard_normal((64, 64))
        df = a1.dense() @ f + f @ a2.dense().T
        assert abs(df.sum()) <= 1e-12 * np.abs(df).sum()

    def test_maxwellian_fixed_point(self):
        rng = np.random.default_rng(43)
        for _ in range(16):
            t = float(rng.uniform(0.5, 3.0))
            u = rng.uniform(-1.5, 1.5, 2)
            grid, dv = velocity_grid(96, 8.0 * math.sqrt(t) + np.abs(u).max() + 1.0)
            st = state_at(1.0, tuple(u), t, 1.0)
            pairs = collision_coefficients([st], [SpeciesConfig("s", 1.0, 1.0)])[0]
            a1, a2 = build_lbfp_operators(grid, dv, pairs)
            f = maxwellian_factors(grid, 1.0, tuple(u), t).materialize()
            res = a1.dense() @ f + f @ a2.dense().T
            anorm = max(np.linalg.norm(a1.dense()), np.linalg.norm(a2.dense()))
            assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(f) * anorm

    def test_additive_in_pairs(self):
        grid, dv = velocity_grid(32, 5.0)
        # (nu, u1, u2, D) rows
        pa = [0.8, 0.2, -0.1, 1.5]
        pb = [0.3, -0.4, 0.6, 0.7]
        both = build_lbfp_operators(grid, dv, [pa, pb])[0].dense()
        split = (
            build_lbfp_operators(grid, dv, [pa])[0].dense()
            + build_lbfp_operators(grid, dv, [pb])[0].dense()
        )
        assert np.abs(both - split).max() <= 1e-13 * np.abs(both).max()

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_one_pass_matches_per_pair_loop_bitwise(self, p):
        rng = np.random.default_rng(40 + p)
        masses = rng.uniform(0.2, 4.0, p)
        species = [SpeciesConfig("s%d" % i, float(masses[i]), 1.0) for i in range(p)]
        states = [random_state(rng, sp.mass) for sp in species]
        coeffs = collision_coefficients(states, species)
        for a in range(p):
            grid, dv = velocity_grid(48, 6.0 * math.sqrt(species[a].mass) + 2.0)
            for component, op in enumerate(build_lbfp_operators(grid, dv, coeffs[a])):
                want = looped_direction_oracle(grid, dv, coeffs[a].tolist(), component)
                assert np.array_equal(op.diag, want[0])
                assert np.array_equal(op.lower, want[1])
                assert np.array_equal(op.upper, want[2])

    def test_large_diffusion_second_difference_limit(self):
        n = 64
        grid, dv = velocity_grid(n, 5.0)
        nu, dcoef = 0.7, 1e6
        a1 = build_lbfp_operators(grid, dv, [[nu, 0.0, 0.0, dcoef]])[0]
        c = nu * dcoef / dv**2
        diag = np.full(n, -2.0 * c)
        diag[0] = diag[-1] = -c
        ref = TridiagonalOperator(diag, np.full(n - 1, c), np.full(n - 1, c))
        assert np.abs(a1.dense() - ref.dense()).max() <= 1e-5 * c

    def test_nonpositive_diffusion_rejected(self):
        grid, dv = velocity_grid(16, 2.0)
        # NaN must fail here, naming the value, not later as a non-finite
        # operator entry
        for d in (-0.5, 0.0, math.nan):
            bad = [1.0, 0.0, 0.0, d]
            with pytest.raises(NonPositiveDiffusion, match="got %g" % d):
                build_lbfp_operators(grid, dv, [bad])


class TestLomacProject:
    def test_lr_moments_agree_with_dense_quadrature(self):
        rng = np.random.default_rng(47)
        grid, dv = velocity_grid(64, 7.0)
        u = np.linalg.qr(rng.standard_normal((64, 5)))[0]
        v = np.linalg.qr(rng.standard_normal((64, 5)))[0]
        f = LowRankFactors(u, rng.standard_normal((5, 5)), v, orthonormal=True)
        got = moment_vector(f, grid, dv)
        want = dense_moments(f.materialize(), grid, grid, dv)
        assert np.abs(got - want).max() <= 1e-11 * (1.0 + np.abs(want).max())

    def test_pins_random_targets(self):
        rng = np.random.default_rng(53)
        grid, dv = velocity_grid(64, 8.0)
        for _ in range(32):
            base = maxwellian_factors(
                grid,
                float(rng.uniform(0.5, 2.0)),
                tuple(rng.uniform(-1.0, 1.0, 2)),
                float(rng.uniform(0.7, 1.5)),
            )
            bump = maxwellian_factors(
                grid,
                float(rng.uniform(0.05, 0.3)),
                tuple(rng.uniform(-2.0, 2.0, 2)),
                float(rng.uniform(0.5, 1.0)),
            )
            f = truncate(lr_add(base, bump), 0.0)
            target = state_at(
                float(rng.uniform(0.5, 2.0)),
                tuple(rng.uniform(-1.0, 1.0, 2)),
                float(rng.uniform(0.5, 2.0)),
                1.0,
            )
            out = lomac_project(
                f, target, 1.0, grid, dv, 1e-8 * spectral_scale(f)
            )
            got = dense_moments(out.materialize(), grid, grid, dv)
            want = target.as_vector() * np.array([1.0, 1.0, 1.0, 0.5])
            mscale = target.n * math.sqrt(target.temperature(1.0))
            assert abs(got[0] - want[0]) <= 1e-12 * want[0]
            assert abs(got[1] - want[1]) <= 1e-12 * mscale
            assert abs(got[2] - want[2]) <= 1e-12 * mscale
            assert abs(got[3] - want[3]) <= 1e-12 * want[3]

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1.0])
    def test_threshold_outside_zero_to_inf_rejected(self, eps):
        # unchecked, nan cuts the remainder to one mode and -1 keeps all of it
        grid, dv = velocity_grid(32, 8.0)
        f = maxwellian_factors(grid, 1.0, (0.5, -0.3), 1.2)
        with pytest.raises(DimensionMismatch, match="threshold"):
            lomac_project(f, kinetic_moments(f, grid, dv), 1.0, grid, dv, eps)

    def test_own_moments_identity(self):
        grid, dv = velocity_grid(64, 8.0)
        f = truncate(
            lr_add(
                maxwellian_factors(grid, 1.0, (0.5, -0.3), 1.2),
                maxwellian_factors(grid, 0.4, (-1.0, 0.8), 0.7),
            ),
            0.0,
        )
        target = kinetic_moments(f, grid, dv)
        out = lomac_project(f, target, 1.0, grid, dv, 0.0)
        diff = np.linalg.norm(out.materialize() - f.materialize())
        assert diff <= 1e-12 * np.linalg.norm(f.materialize())

    def test_odd_perturbation_lands_in_remainder(self):
        grid, dv = velocity_grid(64, 8.0)
        f = truncate(
            lr_add(
                maxwellian_factors(grid, 1.0, (0.5, -0.3), 1.2),
                maxwellian_factors(grid, 0.4, (-1.0, 0.8), 0.7),
            ),
            0.0,
        )
        target = kinetic_moments(f, grid, dv)
        h = np.sin(grid) * np.exp(-(grid**2) / 2.0)
        pert = LowRankFactors(h[:, None] * 1e-4, np.array([[1.0]]), h[:, None])
        fp = truncate(lr_add(f, pert), 0.0)
        out = lomac_project(
            fp, target, 1.0, grid, dv, 1e-14 * spectral_scale(fp)
        )
        got = dense_moments(out.materialize(), grid, grid, dv)
        want = np.array([target.n, target.gam1, target.gam2, target.energy])
        mscale = target.n * math.sqrt(target.temperature(1.0))
        assert abs(got[0] - want[0]) <= 1e-12 * want[0]
        assert abs(got[1] - want[1]) <= 1e-12 * mscale
        assert abs(got[2] - want[2]) <= 1e-12 * mscale
        assert abs(got[3] - want[3]) <= 1e-12 * want[3]
        kept = np.linalg.norm(out.materialize() - fp.materialize())
        assert kept <= 1e-10 * np.linalg.norm(fp.materialize())

    def test_idempotent(self):
        grid, dv = velocity_grid(64, 8.0)
        f = truncate(
            lr_add(
                maxwellian_factors(grid, 1.0, (0.3, 0.4), 1.0),
                maxwellian_factors(grid, 0.5, (-0.8, -0.2), 0.6),
            ),
            0.0,
        )
        target = state_at(1.2, (0.1, -0.2), 1.1, 1.0)
        eps = 1e-8 * spectral_scale(f)
        once = lomac_project(f, target, 1.0, grid, dv, eps)
        twice = lomac_project(once, target, 1.0, grid, dv, eps)
        diff = np.linalg.norm(twice.materialize() - once.materialize())
        assert diff <= 1e-12 * np.linalg.norm(once.materialize())

    def test_output_orthonormal_and_rank_bounded(self):
        rng = np.random.default_rng(59)
        grid, dv = velocity_grid(48, 7.0)
        u = np.linalg.qr(rng.standard_normal((48, 6)))[0]
        v = np.linalg.qr(rng.standard_normal((48, 6)))[0]
        f = LowRankFactors(u, np.diag([1.0, 0.5, 0.1, 1e-3, 1e-5, 1e-7]), v,
                           orthonormal=True)
        target = state_at(1.0, (0.2, 0.1), 1.3, 1.0)
        out = lomac_project(f, target, 1.0, grid, dv, 1e-4)
        assert out.orthonormal
        assert np.abs(out.u.T @ out.u - np.eye(out.rank)).max() <= 1e-12
        assert np.abs(out.v.T @ out.v - np.eye(out.rank)).max() <= 1e-12
        assert out.rank <= f.rank + 4

    def test_wide_grid_energy_pin(self):
        # near-Maxwellian data on a grid reaching |v| ~ 400: the v^2 moment
        # row amplifies any basis bookkeeping error by ~1e6, which is where
        # a coefficient-space pin first breaks down
        rng = np.random.default_rng(61)
        t = 0.9 * 1836.0 + 100.0 / 1836.0 * 1836.0
        grid, dv = velocity_grid(64, 10.0 * math.sqrt(t))
        base = maxwellian_factors(grid, 1.0, (0.0, 0.0), t)
        bump = maxwellian_factors(grid, 1e-3, (20.0, -15.0), 0.5 * t)
        f = truncate(lr_add(base, bump), 0.0)
        target = kinetic_moments(f, grid, dv)
        for _ in range(4):
            out = lomac_project(
                f, target, 1.0, grid, dv, 1e-8 * spectral_scale(f)
            )
            got = dense_moments(out.materialize(), grid, grid, dv)
            assert abs(got[0] - target.n) <= 1e-12 * target.n
            assert abs(got[3] - target.energy) <= 1e-12 * target.energy
            f = out


class TestLbfpStep:
    def build_common_maxwellian_system(self):
        u = (0.3, -0.2)
        t = 1.4
        species = [SpeciesConfig("a", 1.0, 1.0), SpeciesConfig("b", 4.0, 1.0)]
        grids, dvs, factors, states = [], [], [], []
        for sp in species:
            grid, dv = velocity_grid(64, 8.0 * math.sqrt(t / sp.mass) + 1.0)
            f = maxwellian_factors(grid, 1.0, u, t / sp.mass)
            grids.append(grid)
            dvs.append(dv)
            factors.append(f)
            states.append(kinetic_moments(f, grid, dv))
        return LbfpSystem(species, grids, dvs, factors, states), t

    def test_common_maxwellian_persists(self):
        system, t = self.build_common_maxwellian_system()
        start = [f.materialize() for f in system.factors]
        cur = system
        for _ in range(10):
            cur, _diags = lbfp_step(cur, get_table("dirk2"), 0.1, 1e-3)
        for a in range(2):
            drift = np.linalg.norm(cur.factors[a].materialize() - start[a])
            assert drift <= 1e-11 * np.linalg.norm(start[a])
            tk = cur.states[a].temperature(cur.species[a].mass)
            assert abs(tk - t) <= 1e-11 * t

    def test_infinite_tolerance_constant_rejected(self):
        system = initialize_system(benchmark_species(), 16)
        with pytest.raises(DimensionMismatch):
            lbfp_step(system, get_table("be"), 0.1, math.inf)

    @pytest.mark.parametrize("eps_rel", [math.nan, math.inf, -1.0])
    def test_truncation_threshold_outside_zero_to_inf_rejected(self, eps_rel):
        # unchecked, eps_rel=nan returns a step with no error
        system = initialize_system(benchmark_species(), 16)
        with pytest.raises(DimensionMismatch, match="threshold"):
            lbfp_step(system, get_table("be"), 0.1, 1e-3, eps_rel=eps_rel)

    def test_species_mass_pinned(self):
        system = initialize_system(benchmark_species(), 64)
        cur, _diags = lbfp_step(system, get_table("dirk2"), 0.1, 1e-3)
        for a in range(2):
            n = kinetic_moments(cur.factors[a], cur.grids[a], cur.dvs[a]).n
            assert abs(n - system.states[a].n) <= 1e-13 * system.states[a].n

    def test_invariants_over_twenty_steps(self):
        system = initialize_system(benchmark_species(), 64)
        species = system.species

        def kinetic_totals(state):
            p1 = p2 = en = 0.0
            for sp, f, g, dv in zip(
                species, state.factors, state.grids, state.dvs
            ):
                st = kinetic_moments(f, g, dv)
                p1 += sp.mass * st.gam1
                p2 += sp.mass * st.gam2
                en += sp.mass * st.energy
            return np.array([p1, p2, en])

        k0 = kinetic_totals(system)
        pscale = sum(
            sp.mass * st.n * math.sqrt(st.temperature(sp.mass) / sp.mass)
            for sp, st in zip(species, system.states)
        )
        cur = system
        for _ in range(20):
            cur, _diags = lbfp_step(cur, get_table("dirk2"), 0.1, 1e-3)
        drift = np.abs(kinetic_totals(cur) - k0)
        assert drift[0] <= 1e-11 * pscale
        assert drift[1] <= 1e-11 * pscale
        assert drift[2] <= 1e-11 * abs(k0[2])

    def test_kinetic_moments_track_moment_system(self):
        system = initialize_system(benchmark_species(), 64)
        cur = system
        for _ in range(3):
            cur, _diags = lbfp_step(cur, get_table("be"), 0.1, 1.0)
        for a in range(2):
            got = moment_vector(cur.factors[a], cur.grids[a], cur.dvs[a])
            st = cur.states[a]
            want = np.array([st.n, st.gam1, st.gam2, st.energy])
            scale = np.array([st.n, 1.0, 1.0, st.energy])
            assert np.abs(got - want).max() <= 1e-11 * np.abs(scale).max()

    @pytest.mark.parametrize("name", ["be", "dirk2", "dirk3"])
    def test_minimum_grid_pins_moments(self, name):
        table = get_table(name)
        cur = initialize_system(benchmark_species(), MIN_VELOCITY_CELLS)
        for _ in range(5):
            want = moment_step(cur.states, cur.species, table, 0.1)
            cur, diags = lbfp_step(cur, table, 0.1, 1e-3)
            assert cur.states == want
            for a, d in enumerate(diags):
                assert 1 <= d.rank <= MIN_VELOCITY_CELLS
                got = moment_vector(cur.factors[a], cur.grids[a], cur.dvs[a])
                st = cur.states[a]
                ref = np.array([st.n, st.gam1, st.gam2, st.energy])
                scale = max(st.n, 1.0, st.energy)
                assert np.abs(got - ref).max() <= 1e-11 * scale

    def test_diagnostics_shape(self):
        system = initialize_system(benchmark_species(), 48)
        cur, diags = lbfp_step(system, get_table("dirk2"), 0.1, 1e-3)
        assert len(diags) == 2
        for d in diags:
            assert isinstance(d, StepDiagnostics)
            assert d.rank >= 1
            assert d.krylov_iterations >= 0
            assert d.late_stage_restarts <= 2
