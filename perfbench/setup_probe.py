"""Time one fresh-process set-up of a workload and print the seconds taken.

Set-up is importing kryrank, loading the config, and building the grid,
the operators and the initial factors.  Run from the checkout root:

    python3 perfbench/setup_probe.py CONFIG.yaml run|compare
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402


def main(config_path, command):
    sys.path.insert(0, "src")
    from kryrank import load_config
    from kryrank.heat import (
        build_heat_operator,
        heat_grid,
        heat_initial_condition,
    )
    from kryrank.lbfp import (
        build_lbfp_operators,
        collision_coefficients,
        initialize_system,
    )

    cfg = load_config(config_path)
    n = cfg.n[0]
    if cfg.kind == "heat-convergence":
        _, dx = heat_grid(n)
        d1 = build_heat_operator(n, cfg.diffusion[0], dx)
        d2 = build_heat_operator(n, cfg.diffusion[1], dx)
        f0 = heat_initial_condition(n)
        if command == "compare":
            # the dense pipeline's operands
            for build in (d1.dense, d2.dense, f0.materialize):
                build()
    else:
        system = initialize_system(cfg.species, n, cfg.halfwidth)
        coeffs = collision_coefficients(system.states, system.species)
        for a in range(len(system.species)):
            build_lbfp_operators(system.grids[a], system.dvs[a], coeffs[a])
    return time.perf_counter() - _T0


if __name__ == "__main__":
    print(repr(main(sys.argv[1], sys.argv[2])))
