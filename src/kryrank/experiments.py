"""Benchmark drivers: each experiment kind produces a fixed set of CSV files.

All CSVs are comma-separated with '.' decimals and LF line endings, floats in
%.12e, a header line first and a trailing metadata comment line.  With one
worker thread the bytes are identical across runs at the same seed; timing.csv
is the exception since wall clocks are not reproducible.
"""

import math
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .dirk import dirk_step, get_table
from .errors import ConfigError
from .heat import (
    build_heat_operator,
    discrete_mass,
    heat_grid,
    heat_initial_condition,
    lomac_null_correction,
)
from .krylov import lte_tolerance
from .lbfp import initialize_system, kinetic_moments, lbfp_step, total_invariants
from .lowrank import spectral_scale, truncate
from .reference import dense_dirk_step, dense_lbfp_step, heat_reference, l1_distance


def _build_tag():
    try:
        from importlib.metadata import version

        return "kryrank-" + version("kryrank")
    except Exception:
        return "kryrank-dev"


_BUILD = _build_tag()


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
        fh.write("# schema_version=1,build=%s\n" % _BUILD)


def _parallel_map(fn, items, threads):
    """Map preserving input order; sweep points run on worker threads."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _residual_cell(residuals):
    return ";".join("%.6e" % r for r in residuals)


def _heat_point(cfg, lam, table):
    """Integrate one (lambda, dt) heat run and compare against the exact map."""
    n = cfg.n[0]
    _, dx = heat_grid(n)
    d1 = build_heat_operator(n, cfg.diffusion[0], dx)
    d2 = build_heat_operator(n, cfg.diffusion[1], dx)
    f0 = heat_initial_condition(n)
    n_exact = discrete_mass(f0, dx, dx)
    dt = lam * dx * dx
    steps = max(1, int(round(cfg.t_final / dt)))
    tols = [lte_tolerance(c, dt, table.order) for c in cfg.tolerance_constants]

    def post(raw):
        eps = cfg.eps_rel * spectral_scale(raw)
        if cfg.lomac:
            return lomac_null_correction(raw, n_exact, dx, dx, eps)
        return truncate(raw, eps)

    f = f0
    history = []
    for step in range(steps):
        f, diag = dirk_step(f, table, dt, (d1, d2), tols, post_process=post)
        history.append(
            (
                step,
                (step + 1) * dt,
                f.rank,
                diag.krylov_iterations,
                diag.late_stage_restarts,
                _residual_cell(diag.stage_residuals),
            )
        )
    t_end = steps * dt
    ref = heat_reference(f0.materialize(), d1, d2, t_end)
    return {
        "lambda": lam,
        "dt": dt,
        "steps": steps,
        "t_end": t_end,
        "error": l1_distance(f, ref, dx * dx),
        "factors": f,
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


def run_heat_convergence(cfg, out_dir, threads=1):
    """Sweep the step-size ratios, writing convergence.csv and rank_history.csv."""
    table = get_table(cfg.integrator)
    results = _parallel_map(
        lambda lam: _heat_point(cfg, lam, table), list(cfg.lambdas), threads
    )
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
        kinetic_moments(f, g, g, dv)
        for f, g, dv in zip(system.factors, system.grids, system.dvs)
    ]


def run_lbfp_relax(cfg, out_dir, threads=1):
    """Advance the collision benchmark, logging moments and conservation drift.

    Conservation entries are relative: mass per species against its initial
    value (the max over species is reported), energy against the initial
    total, and momentum against the thermal scale sum_a m_a n_a vth_a, since
    the initial total momentum is zero for counter-streaming states.
    """
    del threads
    table = get_table(cfg.integrator)
    system = initialize_system(cfg.species, cfg.n[0], cfg.halfwidth)
    dt = cfg.dt
    steps = max(1, int(round(cfg.t_final / dt)))

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
    for step in range(steps):
        system, diags = lbfp_step(
            system, table, dt, cfg.tolerance_constants, eps_rel=cfg.eps_rel
        )
        t = (step + 1) * dt
        kin = _kinetic_states(system)
        cons_rows.append(conservation_row(t, kin))
        mom_rows.extend(
            moment_rows(t, kin, [d.krylov_iterations for d in diags])
        )
        for sp, f, d in zip(system.species, system.factors, diags):
            histories[sp.name].append(
                (
                    step,
                    t,
                    f.rank,
                    d.krylov_iterations,
                    d.late_stage_restarts,
                    _residual_cell(d.stage_residuals),
                )
            )
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


def run_complexity(cfg, out_dir, threads=1):
    """Time the chosen pipeline over the grid-size list; median over repetitions.

    Timing covers only the step loop: state construction and CSV writing stay
    outside the clock, and grid sizes run serially regardless of the thread
    count so measurements do not contend.
    """
    del threads
    table = get_table(cfg.integrator)
    dt = cfg.dt
    steps = max(1, int(round(cfg.t_final / dt)))
    rows = []
    for n in cfg.n:
        system0 = initialize_system(cfg.species, n, cfg.halfwidth)
        dense0 = None
        if cfg.pipeline == "dense":
            dense0 = [f.materialize() for f in system0.factors]
        samples = []
        for _rep in range(cfg.timing_reps):
            if cfg.pipeline == "adaptive":
                state = system0
                t0 = time.perf_counter()
                for _ in range(steps):
                    state, _diag = lbfp_step(
                        state, table, dt, cfg.tolerance_constants, eps_rel=cfg.eps_rel
                    )
                samples.append(time.perf_counter() - t0)
            else:
                states = list(system0.states)
                dense_fs = [arr.copy() for arr in dense0]
                t0 = time.perf_counter()
                for _ in range(steps):
                    states, dense_fs = dense_lbfp_step(
                        states,
                        dense_fs,
                        system0.species,
                        system0.grids,
                        system0.dvs,
                        table,
                        dt,
                    )
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


def run_compare(cfg, out_dir, threads=1):
    """Run the adaptive and full-rank pipelines side by side on the heat sweep."""
    if cfg.kind != "heat-convergence":
        raise ConfigError("compare needs a heat-convergence config", "kind")
    table = get_table(cfg.integrator)
    _, dx = heat_grid(cfg.n[0])

    def point(lam):
        res = _heat_point(cfg, lam, table)
        fd = res["initial"].materialize()
        d1m, d2m = (d.dense() for d in res["operators"])
        for _ in range(res["steps"]):
            fd = dense_dirk_step(fd, table, res["dt"], d1m, d2m)
        err_dense = float(np.abs(fd - res["reference"]).sum()) * dx * dx
        return res["lambda"], res["dt"], res["error"], err_dense

    results = _parallel_map(point, list(cfg.lambdas), threads)
    rows = []
    for lam, dt, err_lr, err_dense in results:
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
