"""Benchmark drivers: each experiment kind produces a fixed set of CSV files.

All CSVs are comma-separated with '.' decimals and LF line endings, floats in
%.12e, a header line first and a trailing metadata comment line.  The bytes
are identical across runs at the same seed and BLAS thread count; timing.csv
is the exception since wall clocks are not reproducible.
"""

import functools
import math
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .dirk import dirk_step, get_table
from .errors import ConfigError, SolveFailure
from .heat import (
    build_heat_operator,
    discrete_mass,
    heat_grid,
    heat_initial_condition,
    lomac_null_correction,
)
from .krylov import lte_tolerance
from .lbfp import initialize_system, kinetic_moments, lbfp_step, total_invariants
from .linalg import eig_denominators
from .lowrank import spectral_scale, truncate
from .reference import (
    circulant_eigenbasis,
    dense_dirk_step,
    dense_lbfp_step,
    heat_reference,
    l1_distance,
)


@functools.cache
def _build_tag():
    """Version tag of the CSV footer, looked up at the first CSV write."""
    try:
        from importlib.metadata import version

        return "kryrank-" + version("kryrank")
    except Exception:
        return "kryrank-dev"


def _fmt(value):
    if isinstance(value, float):
        return "%.12e" % value
    return str(value)


def write_csv(path, header, rows):
    """Write rows under a header, ending with the schema/build metadata line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
        fh.write("# schema_version=1,build=%s\n" % _build_tag())


def _step_count(t_final, dt):
    return max(1, int(round(t_final / dt)))


def _advance(step_fn, state, steps, dt, where):
    """Every driver's step loop: yields (step, t, state, diag) after each step.

    ``step_fn(state)`` returns (state, diag); t = (step + 1) * dt is the time
    the step ends at.  A SolveFailure leaves with ``where`` naming the step
    and t, then the caller's keys, then the failure's own 0-based stage and
    species, where it has them.
    """
    for step in range(steps):
        t = (step + 1) * dt
        try:
            state, diag = step_fn(state)
        except SolveFailure as exc:
            exc.where = {"step": step, "t": t, **where, **exc.where}
            raise
        yield step, t, state, diag


def _history_row(step, t, f, diag):
    """The rank_history.csv row of a step that ended on the state f."""
    residuals = ";".join("%.6e" % r for r in diag.stage_residuals)
    return step, t, f.rank, diag.krylov_iterations, diag.late_stage_restarts, residuals


def _heat_point(cfg, lam, table):
    """Integrate one (lambda, dt) heat run and compare against the exact map."""
    n = cfg.n[0]
    _, dx = heat_grid(n)
    d1 = build_heat_operator(n, cfg.diffusion[0], dx)
    d2 = build_heat_operator(n, cfg.diffusion[1], dx)
    f0 = heat_initial_condition(n)
    n_exact = discrete_mass(f0, dx, dx)
    dt = lam * dx * dx
    steps = _step_count(cfg.t_final, dt)
    tol = lte_tolerance(cfg.tolerance_constant, dt, table.order)

    def post(raw):
        eps = cfg.eps_rel * spectral_scale(raw)
        if cfg.lomac:
            return lomac_null_correction(raw, n_exact, dx, dx, eps)
        return truncate(raw, eps)

    def step_fn(f):
        return dirk_step(f, table, dt, (d1, d2), tol, post_process=post)

    history = []
    for step, t, f, diag in _advance(step_fn, f0, steps, dt, {"lambda": lam}):
        history.append(_history_row(step, t, f, diag))
    ref = heat_reference(f0.materialize(), d1, d2, steps * dt)
    return {
        "lambda": lam,
        "dt": dt,
        "steps": steps,
        "error": l1_distance(f, ref, dx * dx),
        "initial": f0,
        "operators": (d1, d2),
        "reference": ref,
        "history": history,
    }


def _observed_orders(results):
    """Slope between consecutive (dt, error) rows; first entry is blank."""
    orders = [""]
    for prev, cur in zip(results, results[1:]):
        if prev["error"] > 0 and cur["error"] > 0 and cur["dt"] != prev["dt"]:
            orders.append(
                "%.12e"
                % (
                    math.log(cur["error"] / prev["error"])
                    / math.log(cur["dt"] / prev["dt"])
                )
            )
        else:
            orders.append("")
    return orders


def _write_rank_history(out_dir, series_histories):
    rows = []
    for series, history in series_histories:
        for entry in history:
            rows.append((series,) + entry)
    write_csv(
        Path(out_dir) / "rank_history.csv",
        ("series", "step", "t", "rank", "krylov_iters", "restarts", "stage_residuals"),
        rows,
    )


def run_heat_convergence(cfg, out_dir):
    """Sweep the step-size ratios, writing convergence.csv and rank_history.csv."""
    table = get_table(cfg.integrator)
    results = [_heat_point(cfg, lam, table) for lam in cfg.lambdas]
    orders = _observed_orders(results)
    write_csv(
        Path(out_dir) / "convergence.csv",
        ("lambda", "dt", "error", "observed_order"),
        [
            (res["lambda"], res["dt"], res["error"], order)
            for res, order in zip(results, orders)
        ],
    )
    _write_rank_history(
        out_dir,
        [("lambda=%g" % res["lambda"], res["history"]) for res in results],
    )
    return results


def _kinetic_states(system):
    return [
        kinetic_moments(f, g, dv)
        for f, g, dv in zip(system.factors, system.grids, system.dvs)
    ]


def run_lbfp_relax(cfg, out_dir):
    """Advance the collision benchmark, logging moments and conservation drift.

    Conservation entries are relative: mass per species against its initial
    value (the max over species is reported), energy against the initial
    total, and momentum against the thermal scale sum_a m_a n_a vth_a, since
    the initial total momentum is zero for counter-streaming states.
    """
    table = get_table(cfg.integrator)
    system = initialize_system(cfg.species, cfg.n[0], cfg.halfwidth)
    dt = cfg.dt
    steps = _step_count(cfg.t_final, dt)

    kin0 = _kinetic_states(system)
    p10, p20, e0 = total_invariants(kin0, system.species)
    masses0 = [st.n for st in kin0]
    p_scale = sum(
        sp.mass * st.n * math.sqrt(st.temperature(sp.mass) / sp.mass)
        for sp, st in zip(system.species, kin0)
    )

    def conservation_row(t, kin):
        mass_err = max(
            abs(st.n - n0) / abs(n0) for st, n0 in zip(kin, masses0)
        )
        p1, p2, en = total_invariants(kin, system.species)
        return (
            t,
            mass_err,
            math.hypot(p1 - p10, p2 - p20) / p_scale,
            abs(en - e0) / abs(e0),
        )

    def moment_rows(t, kin, iters):
        return [
            (
                t,
                sp.name,
                st.n,
                st.gam1,
                st.gam2,
                st.energy,
                st.temperature(sp.mass),
                f.rank,
                it,
            )
            for sp, st, f, it in zip(system.species, kin, system.factors, iters)
        ]

    cons_rows = [conservation_row(0.0, kin0)]
    mom_rows = moment_rows(0.0, kin0, [0] * len(system.species))
    histories = {sp.name: [] for sp in system.species}

    def step_fn(state):
        return lbfp_step(state, table, dt, cfg.tolerance_constant, eps_rel=cfg.eps_rel)

    for step, t, system, diags in _advance(step_fn, system, steps, dt, {}):
        kin = _kinetic_states(system)
        cons_rows.append(conservation_row(t, kin))
        mom_rows.extend(
            moment_rows(t, kin, [d.krylov_iterations for d in diags])
        )
        for sp, f, d in zip(system.species, system.factors, diags):
            histories[sp.name].append(_history_row(step, t, f, d))
    write_csv(
        Path(out_dir) / "conservation.csv",
        ("t", "mass_err", "momentum_err", "energy_err"),
        cons_rows,
    )
    write_csv(
        Path(out_dir) / "moments.csv",
        (
            "t",
            "species",
            "n",
            "gam1",
            "gam2",
            "energy",
            "temperature",
            "rank",
            "krylov_iters",
        ),
        mom_rows,
    )
    _write_rank_history(out_dir, [(sp.name, histories[sp.name]) for sp in cfg.species])
    return {"system": system, "conservation": cons_rows}


def run_complexity(cfg, out_dir):
    """Time the chosen pipeline over the grid-size list; median over repetitions.

    Timing covers only the step loop: state construction and CSV writing stay
    outside the clock.
    """
    # both pipelines factor non-symmetric Chang-Cooper operators by real
    # Schur forms; importing scipy here keeps its import off the first clock
    import scipy.linalg  # noqa: F401

    table = get_table(cfg.integrator)
    dt = cfg.dt
    steps = _step_count(cfg.t_final, dt)
    rows = []
    for n in cfg.n:
        system0 = initialize_system(cfg.species, n, cfg.halfwidth)
        if cfg.pipeline == "adaptive":

            def advance(system):
                return lbfp_step(
                    system, table, dt, cfg.tolerance_constant, eps_rel=cfg.eps_rel
                )
        else:
            system0 = replace(system0, factors=[f.materialize() for f in system0.factors])

            def advance(system):
                return dense_lbfp_step(system, table, dt), None
        samples = []
        for _rep in range(cfg.timing_reps):
            t0 = time.perf_counter()
            for _ in _advance(advance, system0, steps, dt, {"n": n}):
                pass
            samples.append(time.perf_counter() - t0)
        rows.append((n, statistics.median(samples)))
    slope = ""
    if len(rows) >= 2:
        xs = np.log([float(r[0]) for r in rows])
        ys = np.log([max(r[1], 1e-12) for r in rows])
        slope = float(np.polyfit(xs, ys, 1)[0])
    write_csv(
        Path(out_dir) / "timing.csv",
        ("n", "wall_seconds"),
        rows + [("slope", slope)],
    )
    return {"rows": rows, "slope": slope}


def run_compare(cfg, out_dir):
    """Run the adaptive and full-rank pipelines side by side on the heat sweep.

    The full-rank run steps in the generators' eigenbasis: heat generators
    are symmetric circulants, so each λ moves F0 into their real Hartley
    basis once (G = Z1^T F0 Z2 by ``circulant_eigenbasis``), forms the stage
    divisors (1/2 - dt*a_kk*w1_i) + (1/2 - dt*a_kk*w2_j) once, behind
    ``eig_denominators``' overlap guard, passes ``dense_dirk_step`` a solver
    dividing by them at every step, and moves the last state out once by the
    same transform: O(n^2 log n) per λ and O(n^2) per step, with no dense
    generator and no n^3 work.
    """
    if cfg.kind != "heat-convergence":
        raise ConfigError("compare needs a heat-convergence config", "kind")
    table = get_table(cfg.integrator)
    _, dx = heat_grid(cfg.n[0])

    def point(lam):
        res = _heat_point(cfg, lam, table)
        ops = res["operators"]
        (w1, w2), g = circulant_eigenbasis(res["initial"].materialize(), *ops)
        dt_akk = res["dt"] * table.a[0, 0]
        denom = eig_denominators(0.5 - dt_akk * w1, 0.5 - dt_akk * w2)
        for _ in range(res["steps"]):
            g = dense_dirk_step(g, table, lambda b: b / denom)
        fd = circulant_eigenbasis(g, *ops)[1]
        err_dense = float(np.abs(fd - res["reference"]).sum()) * dx * dx
        return res["lambda"], res["dt"], res["error"], err_dense

    rows = []
    for lam, dt, err_lr, err_dense in map(point, cfg.lambdas):
        if err_dense > 0:
            ratio = err_lr / err_dense
        else:
            ratio = 0.0 if err_lr == 0 else math.inf
        rows.append((lam, dt, err_lr, err_dense, ratio))
    write_csv(
        Path(out_dir) / "paired_errors.csv",
        ("lambda", "dt", "err_lowrank", "err_dense", "ratio"),
        rows,
    )
    return rows
