"""Command-line front end: run, compare, and validate subcommands.

Exit codes: 0 success, 1 runtime failure (solver or self-check), 2 bad
configuration.  The output directory comes from the config file, overridden
by KRYRANK_OUT and then by --out; no other environment variable is read.
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .config import load_config
from .dirk import assemble_stage_operator, get_table
from .errors import (
    ConfigError,
    KryrankError,
    MaxIterationsExceeded,
    SingularOperator,
    SolveFailure,
)
from .experiments import (
    run_compare,
    run_complexity,
    run_heat_convergence,
    run_lbfp_relax,
)
from .heat import build_heat_operator, heat_initial_condition
from .krylov import grow_basis, seed_basis, solve_adaptive
from .lbfp import (
    benchmark_species,
    chang_cooper_delta,
    initialize_system,
    kinetic_moments,
    lbfp_step,
    moment_step,
)
from .linalg import TridiagonalOperator
from .lowrank import LowRankFactors, lr_frobenius, spectral_scale, truncate

_RUNNERS = {
    "heat-convergence": run_heat_convergence,
    "lbfp-relax": run_lbfp_relax,
    "complexity-sweep": run_complexity,
}


def _add_common(sub):
    sub.add_argument("config", help="YAML experiment file")
    sub.add_argument("--out", default=None, help="output directory override")
    sub.add_argument("--seed", type=int, default=None, help="seed override")
    # sweeps run serially; 1 stays accepted for scripts that still pass it
    sub.add_argument("--threads", type=int, choices=(1,), help=argparse.SUPPRESS)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kryrank",
        description="Adaptive-rank implicit integrator benchmarks",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    _add_common(
        commands.add_parser("run", help="run the experiment and write its CSVs")
    )
    _add_common(
        commands.add_parser(
            "compare", help="run adaptive and full-rank pipelines side by side"
        )
    )
    _add_common(
        commands.add_parser(
            "validate", help="check the config and run quick numerical self-tests"
        )
    )
    return parser


def _random_tridiag(rng, n):
    return TridiagonalOperator(
        -rng.uniform(2.0, 3.0, n),
        rng.uniform(-0.5, 0.5, n - 1),
        rng.uniform(-0.5, 0.5, n - 1),
    )


def _self_check(seed):
    """Cheap seeded end-to-end checks; returns (name, passed, detail) triples."""
    rng = np.random.default_rng(seed)
    results = []

    worst = id_gap = 0.0
    for _ in range(3):
        n = 24
        a1 = _random_tridiag(rng, n)
        a2 = _random_tridiag(rng, n)
        b = LowRankFactors(rng.standard_normal((n, 2)), np.eye(2), rng.standard_normal((n, 2)))
        eps = 1e-8 * lr_frobenius(b)
        f, diag = solve_adaptive(a1, a2, b, eps)
        dense = f.materialize()
        resid = a1.dense() @ dense + dense @ a2.dense().T - b.materialize()
        norm = float(np.linalg.norm(resid))
        worst = max(worst, norm / lr_frobenius(b))
        id_gap = max(id_gap, abs(diag.residual - norm) / lr_frobenius(b))
    results.append(("sylvester-residual", worst <= 1e-8, "max rel %.2e" % worst))
    # both residuals round at ~1e-16 ||B||, up to 1e-6 of a converged one
    # (4e-11 ||B|| and up here), so the gap is taken in units of ||B||
    results.append(("residual-identity", id_gap <= 1e-12, "max gap %.2e of ||B||" % id_gap))

    w = rng.uniform(-30.0, 30.0, 64)
    gap = float(np.max(np.abs(chang_cooper_delta(w) + chang_cooper_delta(-w) - 1.0)))
    results.append(("flux-weight-identity", gap <= 1e-13, "max gap %.2e" % gap))

    d = build_heat_operator(64, 0.5, 1.0 / 64)
    drift = float(np.max(np.abs(d.apply(np.ones(64)))))
    scale = float(np.max(np.abs(d.dense())))
    results.append(("constant-null-mode", drift <= 1e-12 * scale, "max drift %.2e" % drift))

    # heat's stage operators take the DFT path; its generator is singular
    stage = assemble_stage_operator(d, 1e-3, 0.5)
    x = rng.standard_normal((64, 3))
    err = float(np.max(np.abs(stage.solve(stage.apply(x)) - x)) / np.max(np.abs(x)))
    try:
        d.solve(np.ones(64))
        singular = False
    except SingularOperator:
        singular = True
    detail = "round trip %.2e, generator %s" % (err, "singular" if singular else "solved")
    results.append(("circulant-solve", stage.circulant and err <= 1e-12 and singular, detail))

    # a heat stage basis seeded by a converged solve keeps near-rounding
    # remainders; past rank 100 it stays orthonormal only by BCGS2's 2nd pass
    stage = assemble_stage_operator(build_heat_operator(128, 0.5, 1.0 / 128), 400.0 / 128**2, 1.0)
    f, _ = solve_adaptive(stage, stage, heat_initial_condition(128), 1e-10)
    basis = seed_basis(truncate(f, 1e-10 * spectral_scale(f)).u, orthonormal=True)
    while basis.rank <= 100:
        basis = grow_basis(basis, stage)
    loss = float(np.linalg.norm(basis.q.T @ basis.q - np.eye(basis.rank), 2))
    detail = "||Q^T Q - I|| %.2e at rank %d" % (loss, basis.rank)
    results.append(("basis-orthogonality", loss <= 1e-13, detail))

    # one lbfp step: LoMaC's joint basis keeps both factors orthonormal and
    # pins each species' kinetic moments to the moment system's
    system = initialize_system(benchmark_species(), 2000)
    table = get_table("be")
    want = moment_step(system.states, system.species, table, 0.1)
    system, _ = lbfp_step(system, table, 0.1, 1.0)
    loss = pin = 0.0
    for sp, f, grid, dv, st in zip(
        system.species, system.factors, system.grids, system.dvs, want
    ):
        for q in (f.u, f.v):
            loss = max(loss, float(np.linalg.norm(q.T @ q - np.eye(f.rank), 2)))
        got = kinetic_moments(f, grid, grid, dv).as_vector()
        # fluxes of counter-streaming humps are near 0: scale them by n vth
        flux = st.n * np.sqrt(st.temperature(sp.mass) / sp.mass)
        scale = np.array([st.n, flux, flux, 2.0 * st.energy])
        pin = max(pin, float(np.max(np.abs(got - st.as_vector()) / scale)))
    detail = "||Q^T Q - I|| %.2e, moments %.2e relative" % (loss, pin)
    results.append(("lomac-pin", loss <= 1e-13 and pin <= 1e-12, detail))
    return results


def _failure_details(exc):
    """Location, residual history and best basis ranks a failed solve carries, as lines."""
    lines = []
    if isinstance(exc, SolveFailure):
        if exc.where:
            lines.append("at " + ", ".join("%s=%s" % kv for kv in exc.where.items()))
        lines.append("residual history: %s" % " ".join("%.3e" % r for r in exc.history))
    if isinstance(exc, MaxIterationsExceeded):
        if exc.best is not None:
            ranks = (exc.best.u.shape[1], exc.best.v.shape[1])
            lines.append("best basis ranks: u=%d v=%d" % ranks)
        lines.append("basis saturated: %s" % ("yes" if exc.saturated else "no"))
    return lines


def _canonical_lines(cfg):
    lines = [
        "kind = %s" % cfg.kind,
        "integrator = %s" % cfg.integrator,
        "grid.n = %s" % ", ".join(str(n) for n in cfg.n),
        "time.t_final = %g" % cfg.t_final,
    ]
    if cfg.lambdas:
        lines.append("time.lambda = %s" % ", ".join("%g" % v for v in cfg.lambdas))
    else:
        lines.append("time.dt = %g" % cfg.dt)
    lines += [
        "truncation.eps_rel = %g" % cfg.eps_rel,
        "tolerances = %g" % cfg.tolerance_constant,
        "lomac = %s" % ("true" if cfg.lomac else "false"),
        "pipeline = %s" % cfg.pipeline,
        "diffusion = %g, %g" % cfg.diffusion,
        "species = %s"
        % "; ".join(
            "%s(m=%g, q=%g, n=%g, T=%g, u=(%g, %g))"
            % (sp.name, sp.mass, sp.charge, sp.density, sp.temperature, *sp.drift)
            for sp in cfg.species
        ),
        "grid_halfwidth = %g" % cfg.halfwidth,
        "timing_reps = %d" % cfg.timing_reps,
        "seed = %d" % cfg.seed,
        "output = %s" % cfg.output,
    ]
    return lines


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_override = args.out
        if out_override is None:
            out_override = os.environ.get("KRYRANK_OUT")
        cfg = cfg.with_overrides(output=out_override, seed=args.seed)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2

    if args.command == "validate":
        for line in _canonical_lines(cfg):
            print(line)
        failed = 0
        for name, ok, detail in _self_check(cfg.seed):
            print("self-check %s: %s (%s)" % (name, "ok" if ok else "FAIL", detail))
            failed += 0 if ok else 1
        return 1 if failed else 0

    out_dir = Path(cfg.output)
    try:
        if args.command == "compare":
            run_compare(cfg, out_dir)
        else:
            _RUNNERS[cfg.kind](cfg, out_dir)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except KryrankError as exc:
        print(
            "%s: %s [kind=%s integrator=%s]"
            % (type(exc).__name__, exc, cfg.kind, cfg.integrator),
            file=sys.stderr,
        )
        for line in _failure_details(exc):
            print("  " + line, file=sys.stderr)
        return 1
    print("wrote %s outputs to %s" % (cfg.kind, out_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
