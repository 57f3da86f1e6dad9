"""Bound states of the reduced semi-relativistic two-body wave equation.

The package solves for binding energies E = M - m1 - m2 of a pair of
particles interacting through a spherically symmetric potential, with
relativistic corrections kept to second order in the velocity.  Two
independent routes are provided: a shifted-l expansion (``engine``) that
yields closed-form leading energies plus perturbative corrections, and a
finite-difference eigenvalue solver (``oracle``) for the same radial
equation.  ``cli`` exposes both along with reference-table reproduction.
"""

from .engine import (
    CoulombClosedForm,
    CoulombReference,
    QuantumNumbers,
    SletSolution,
    coulomb_closed_form,
    coulomb_reference,
    solve,
)
from .oracle import OracleSolution, RadialGrid, default_grid, solve_selfconsistent
from .potentials import ParticlePair, PotentialModel, parse_potential

__version__ = "0.1.0"

__all__ = [
    "CoulombClosedForm",
    "CoulombReference",
    "OracleSolution",
    "ParticlePair",
    "PotentialModel",
    "QuantumNumbers",
    "RadialGrid",
    "SletSolution",
    "__version__",
    "coulomb_closed_form",
    "coulomb_reference",
    "default_grid",
    "parse_potential",
    "solve",
    "solve_selfconsistent",
]
