"""Navier-Stokes step: semi-implicit predictor plus pressure projection.

The momentum balance is ``dv/dt + (v . grad) v = div(2 nu(phi) D v)
- grad p + (mu + chi sigma) grad phi`` with no-slip walls, discretized on
the staggered grid of :mod:`chns.grid`:

* convection in conservative (flux) form with centered face averages,
* the symmetric viscous stress with cell-centered normal components and
  corner shear components (corner viscosity is the arithmetic mean of
  the four adjacent cells, clamped at walls),
* no-slip via pinned normal faces plus antisymmetric tangential ghosts,
* the face divergence of each flux and stress taken by the grid's own
  :func:`~chns.grid.div_raw`.

Time stepping treats the constant ``nu_f = max(nu1, nu2)`` implicitly and
the remainder of the stress explicitly:
``(I - dt nu_f L) v* = v + dt (F - nu_f L v)``, with ``L`` the no-slip
component Laplacian and ``F = -div(v (x) v) + div(2 nu D v) + force`` the
explicit terms.  Subtracting ``(I - dt nu_f L) v`` from both sides leaves
``(I - dt nu_f L)(v* - v) = dt F``, so the predictor is solved for its
increment, ``v* = v + dt (I - dt nu_f L)^{-1} F``: one exact
sine-transform Helmholtz solve per component, and no explicit
application of ``L``.  An implicit constant below the largest viscosity
would leave the explicit remainder only conditionally stable (Dong &
Shen, J. Comput. Phys. 231, 2012).  A non-incremental pressure projection
then enforces the discrete divergence constraint to rounding: ``lap q =
div(v*) / dt``, solved exactly by a cosine transform, ``v = v* - dt grad
q``, with ``q`` returned as the (zero-mean) pressure.  ``F`` is summed into
the stress divergence's arrays, ``v*`` is formed inside the Helmholtz
solution and ``v* - dt grad q`` inside the gradient arrays, each in the
operation order of the plain expression, so no bit changes and fewer
grid-sized arrays are alive at once.

``dissipation_quadrature`` evaluates ``int 2 nu |D v|^2`` with corner
weights halved along the walls, which makes it the exact negative of
``face_inner(viscous_stress_div(v), v)``; the energy ledger relies on
that summation-by-parts pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chd import ModelParams
from .elliptic import SolverError, face_helmholtz, neumann_solve
from .grid import GridSpec, MacVelocity, ScalarField, div_raw, grad_raw

__all__ = [
    "CflError",
    "ProjectionReport",
    "dissipation_quadrature",
    "korteweg_force",
    "ns_step",
    "project",
    "viscosity_field",
    "viscous_stress_div",
]

# perfbench/tracing.py (WRAPS) patches this name, which nothing calls;
# ROADMAP item 1 drops it with the tracer's entries
cg_raw = None


class CflError(SolverError):
    """Advective time-step restriction violated."""


@dataclass
class ProjectionReport:
    """Pressure-solve bookkeeping for one flow step.

    ``pressure_iters`` and ``helmholtz_iters`` stay 0: the step's linear
    solves are direct.  The post-projection divergence is measured from
    the state by :func:`~chns.diagnostics.ledger_row`.
    """

    pressure_iters: int = 0
    helmholtz_iters: int = 0


def viscosity_field(phi: ScalarField, p: ModelParams) -> ScalarField:
    """Affine phase-interpolated viscosity, clamped to the phase interval.

    Lies in ``[min(nu1, nu2), max(nu1, nu2)]`` for any input.
    """
    r = np.clip(phi.values, -1.0, 1.0)
    return ScalarField(phi.grid, 0.5 * p.nu1 * (1.0 + r) + 0.5 * p.nu2 * (1.0 - r))


def _corner_viscosity(nu: np.ndarray) -> np.ndarray:
    padded = np.pad(nu, 1, mode="edge")
    return 0.25 * (
        padded[:-1, :-1] + padded[1:, :-1] + padded[:-1, 1:] + padded[1:, 1:]
    )


def _strain_rates(spec: GridSpec, u: np.ndarray, v: np.ndarray):
    """Normal strains at cells, shear sum ``du/dy + dv/dx`` at corners.

    Tangential wall values use antisymmetric ghosts (velocity vanishes on
    the wall itself); normal wall values vanish because the wall-normal
    faces carry zero.
    """
    dux = (u[1:, :] - u[:-1, :]) / spec.hx
    dvy = (v[:, 1:] - v[:, :-1]) / spec.hy
    du_dy = np.zeros((spec.nx + 1, spec.ny + 1))
    du_dy[:, 1:-1] = (u[:, 1:] - u[:, :-1]) / spec.hy
    du_dy[:, 0] = 2.0 * u[:, 0] / spec.hy
    du_dy[:, -1] = -2.0 * u[:, -1] / spec.hy
    dv_dx = np.zeros((spec.nx + 1, spec.ny + 1))
    dv_dx[1:-1, :] = (v[1:, :] - v[:-1, :]) / spec.hx
    dv_dx[0, :] = 2.0 * v[0, :] / spec.hx
    dv_dx[-1, :] = -2.0 * v[-1, :] / spec.hx
    return dux, dvy, du_dy + dv_dx


def viscous_stress_div(vel: MacVelocity, nu: ScalarField) -> MacVelocity:
    """Divergence of the symmetric stress ``2 nu(phi) D v`` on faces."""
    spec = vel.grid
    u, v = vel.u, vel.v
    # the strain arrays become the stresses in place
    txx, tyy, tau = _strain_rates(spec, u, v)
    txx *= 2.0 * nu.values
    tyy *= 2.0 * nu.values
    tau *= _corner_viscosity(nu.values)
    fu = np.zeros_like(u)
    fu[1:-1, :] = div_raw(spec, txx, tau[1:-1, :])
    fv = np.zeros_like(v)
    fv[:, 1:-1] = div_raw(spec, tau[:, 1:-1], tyy)
    return MacVelocity(spec, fu, fv)


def dissipation_quadrature(vel: MacVelocity, nu: ScalarField) -> float:
    """Viscous dissipation ``int 2 nu |D v|^2`` with wall-halved corner
    weights, the exact quadratic form of :func:`viscous_stress_div`."""
    spec = vel.grid
    dux, dvy, shear = _strain_rates(spec, vel.u, vel.v)
    cells = 2.0 * nu.values * (dux * dux + dvy * dvy)
    w = np.ones((spec.nx + 1, spec.ny + 1))
    w[0, :] *= 0.5
    w[-1, :] *= 0.5
    w[:, 0] *= 0.5
    w[:, -1] *= 0.5
    corners = w * _corner_viscosity(nu.values) * shear * shear
    return spec.cell_area * float(np.sum(cells) + np.sum(corners))


def _advect_momentum(spec: GridSpec, u: np.ndarray, v: np.ndarray):
    """Conservative self-transport ``div(v (x) v)`` on both face sets."""
    # normal fluxes u^2, v^2 at cells; the cross flux u v at corners serves
    # both components and vanishes on the walls
    ubar = 0.5 * (u[1:, :] + u[:-1, :])
    vbar = 0.5 * (v[:, 1:] + v[:, :-1])
    uv = np.zeros((spec.nx + 1, spec.ny + 1))
    uv[1:-1, 1:-1] = 0.5 * (v[1:, 1:-1] + v[:-1, 1:-1])
    uv[1:-1, 1:-1] *= 0.5 * (u[1:-1, 1:] + u[1:-1, :-1])
    adv_u = np.zeros_like(u)
    adv_u[1:-1, :] = div_raw(spec, ubar * ubar, uv[1:-1, :])
    adv_v = np.zeros_like(v)
    adv_v[:, 1:-1] = div_raw(spec, uv[:, 1:-1], vbar * vbar)
    return adv_u, adv_v


def korteweg_force(
    phi: ScalarField, mu: ScalarField, sigma: ScalarField, p: ModelParams
) -> MacVelocity:
    """Capillary and osmotic forcing ``(mu + chi sigma) grad phi`` on faces."""
    spec = phi.grid
    q = mu.values + p.chi * sigma.values
    gu, gv = grad_raw(spec, phi.values)
    gu[1:-1, :] *= 0.5 * (q[1:, :] + q[:-1, :])
    gv[:, 1:-1] *= 0.5 * (q[:, 1:] + q[:, :-1])
    return MacVelocity(spec, gu, gv)


def project(vel_star: MacVelocity, dt: float) -> tuple[MacVelocity, ScalarField, ProjectionReport]:
    """Remove the divergence of ``vel_star``: solve ``lap q = div(v*)/dt``
    and subtract ``dt grad q``.  Returns the corrected field, the
    zero-mean pressure and a report."""
    spec = vel_star.grid
    d = div_raw(spec, vel_star.u, vel_star.v) / dt
    q = neumann_solve(ScalarField(spec, -d))
    # v* - dt grad q, formed inside the gradient arrays
    gu, gv = grad_raw(spec, q.values)
    gu *= dt
    gv *= dt
    np.subtract(vel_star.u, gu, out=gu)
    np.subtract(vel_star.v, gv, out=gv)
    return MacVelocity(spec, gu, gv), q, ProjectionReport()


def ns_step(
    vel: MacVelocity,
    phi: ScalarField,
    mu: ScalarField,
    sigma: ScalarField,
    p: ModelParams,
    dt: float,
) -> tuple[MacVelocity, ScalarField, ProjectionReport]:
    """One projection step of the momentum equation.

    Raises :class:`CflError` if ``dt`` exceeds the hard advective bound
    ``min(hx, hy) / |vel|_inf``.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    spec = vel.grid
    vmax = vel.max_abs()
    if dt * vmax > min(spec.hx, spec.hy) * (1.0 + 1.0e-12):
        raise CflError(
            f"dt = {dt:.3e} exceeds the advective bound "
            f"{min(spec.hx, spec.hy) / vmax:.3e} at |vel|_inf = {vmax:.3e}"
        )

    nu = viscosity_field(phi, p)
    nu_floor = max(p.nu1, p.nu2)
    adv_u, adv_v = _advect_momentum(spec, vel.u, vel.v)
    visc = viscous_stress_div(vel, nu)
    force = korteweg_force(phi, mu, sigma, p)
    # F = visc - adv + force, summed into the stress divergence: the bits
    # of -adv + visc + force, as v - a is v + (-a) and addition commutes
    visc.u -= adv_u
    visc.u += force.u
    visc.v -= adv_v
    visc.v += force.v
    del nu, adv_u, adv_v, force

    # the predictor's increment: (I - dt nu_floor lap)(v* - v) = dt F
    acc_u, acc_v = face_helmholtz(spec, visc.u, visc.v, dt * nu_floor)
    # v* = v + dt acc, formed inside acc
    acc_u *= dt
    acc_v *= dt
    acc_u += vel.u
    acc_v += vel.v
    return project(MacVelocity(spec, acc_u, acc_v), dt)
