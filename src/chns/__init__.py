"""Coupled phase-field, flow and solute solver on a staggered grid.

The package splits along the model structure: :mod:`~chns.grid` holds the
discrete calculus, :mod:`~chns.potential` the double-well potentials,
:mod:`~chns.elliptic` the transform-based elliptic solves, :mod:`~chns.chd` the
phase-field and solute stepping, :mod:`~chns.hydro` the projection flow
step, :mod:`~chns.coupled` the run loop and scenarios,
:mod:`~chns.diagnostics` the energy ledger, :mod:`~chns.stationary`
equilibria and decay-rate fits, and :mod:`~chns.cli` the command line.
"""

from .chd import ChdStepReport, ModelParams, ch_step, chd_step, chemical_potential, sigma_step
from .coupled import RunConfig, ScenarioConfig, cfl_dt, coupled_step, initial_state, run
from .diagnostics import LedgerRow, free_energy, kinetic_energy, total_energy
from .elliptic import SolverConfig, inverse_neumann_laplacian, solve_spd, v0_norm_sq
from .grid import GridSpec, MacVelocity, ScalarField
from .hydro import korteweg_force, ns_step, viscosity_field
from .potential import PotentialParams
from .state import SimState
from .stationary import Equilibrium, RateFit, rate_fit, solve_stationary

__version__ = "0.1.0"

__all__ = [
    "ChdStepReport",
    "Equilibrium",
    "GridSpec",
    "LedgerRow",
    "MacVelocity",
    "ModelParams",
    "PotentialParams",
    "RateFit",
    "RunConfig",
    "ScalarField",
    "ScenarioConfig",
    "SimState",
    "SolverConfig",
    "cfl_dt",
    "ch_step",
    "chd_step",
    "chemical_potential",
    "coupled_step",
    "free_energy",
    "initial_state",
    "inverse_neumann_laplacian",
    "kinetic_energy",
    "korteweg_force",
    "ns_step",
    "rate_fit",
    "run",
    "sigma_step",
    "solve_spd",
    "solve_stationary",
    "total_energy",
    "v0_norm_sq",
    "viscosity_field",
    "__version__",
]
