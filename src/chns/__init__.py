"""Coupled phase-field, flow and solute solver on a staggered grid.

The package splits along the model structure: :mod:`~chns.grid` holds the
discrete calculus, :mod:`~chns.potential` the double-well potentials,
:mod:`~chns.elliptic` the transform-based elliptic solves, :mod:`~chns.chd` the
phase-field and solute stepping, :mod:`~chns.hydro` the projection flow
step, :mod:`~chns.coupled` the run loop and scenarios,
:mod:`~chns.diagnostics` the energy ledger, :mod:`~chns.stationary`
equilibria and decay-rate fits, and :mod:`~chns.cli` the command line.
"""

__version__ = "0.1.0"
