"""Adaptive-rank implicit time integration for stiff matrix ODEs.

Low-rank states evolve under dF/dt = D1 F + F D2^T with DIRK schemes whose
stage equations are solved in a shared extended Krylov basis grown until the
exact projected residual matches the local truncation error.  Conservative
truncations pin physically invariant moments.  Two driver models ship with
the package: the periodic 2-D heat equation and a multi-species
Lenard-Bernstein collision benchmark, with a CLI running convergence,
relaxation, and complexity experiments.
"""

from .config import ExperimentConfig, load_config, validate_config
from .dirk import (
    ButcherTable,
    StepDiagnostics,
    assemble_stage_operator,
    builtin_tables,
    dirk_step,
    get_table,
)
from .errors import (
    BasisSaturated,
    ConfigError,
    ConvergenceFailure,
    DimensionMismatch,
    KryrankError,
    MaxIterationsExceeded,
    NewtonDivergence,
    NonPositiveDiffusion,
    SingularOperator,
    SpectralOverlap,
)
from .heat import (
    build_heat_operator,
    discrete_mass,
    heat_grid,
    heat_initial_condition,
    lomac_null_correction,
)
from .krylov import (
    ExtendedKrylovBasis,
    SolveDiagnostics,
    adaptive_stage_solve,
    assemble_galerkin,
    grow_basis,
    lte_tolerance,
    residual_norm,
    seed_basis,
    solve_adaptive,
)
from .lbfp import (
    LbfpSystem,
    MomentState,
    PairCoefficients,
    SpeciesConfig,
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
    moment_dirk_solve,
    moment_rhs,
    moment_step,
    total_invariants,
    velocity_grid,
)
from .linalg import (
    TridiagonalOperator,
    mgs_qr,
    reduced_svd,
    solve_sylvester_dense,
)
from .lowrank import (
    LowRankFactors,
    conservative_truncate,
    lr_add,
    lr_frobenius,
    lr_moments,
    spectral_scale,
    truncate,
)
from .reference import (
    dense_dirk_step,
    dense_lbfp_step,
    heat_reference,
    l1_distance,
    propagator,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
