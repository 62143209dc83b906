"""Adaptive-rank implicit time integration for stiff matrix ODEs.

Low-rank states evolve under dF/dt = D1 F + F D2^T with DIRK schemes whose
stage equations are solved in a shared extended Krylov basis grown until the
exact projected residual matches the local truncation error.  Conservative
truncations pin physically invariant moments.  Two driver models ship with
the package: the periodic 2-D heat equation and a multi-species
Lenard-Bernstein collision benchmark, with a CLI running convergence,
relaxation, and complexity experiments.

The package exports only ``load_config``; import everything else from its
module, e.g. ``from kryrank.krylov import solve_adaptive``.
"""

from .config import load_config

__all__ = ["load_config"]
