"""Navier-Stokes step: semi-implicit predictor plus pressure projection.

The momentum balance is ``dv/dt + (v . grad) v = div(2 nu(phi) D v)
- grad p + (mu + chi sigma) grad phi`` with no-slip walls, discretized on
the staggered grid of :mod:`chns.grid`:

* convection in conservative (flux) form with centered face averages,
* the symmetric viscous stress with cell-centered normal components and
  corner shear components (corner viscosity is the arithmetic mean of
  the four adjacent cells, clamped at walls),
* no-slip via pinned normal faces plus antisymmetric tangential ghosts.

Time stepping treats the constant floor ``min(nu1, nu2)`` of the
viscosity implicitly (one Helmholtz solve per component, an exact
sine-transform solve) and the remainder of the stress explicitly.  A
non-incremental pressure projection then enforces the discrete
divergence constraint to rounding: ``lap q = div(v*) / dt``, solved
exactly by a cosine transform, ``v = v* - dt grad q``, with ``q``
returned as the (zero-mean) pressure.

``dissipation_quadrature`` evaluates ``int 2 nu |D v|^2`` with corner
weights halved along the walls, which makes it the exact negative of
``face_inner(viscous_stress_div(v), v)``; the energy ledger relies on
that summation-by-parts pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chd import ModelParams
from .elliptic import face_helmholtz, neumann_solve
from .grid import (
    GridSpec,
    MacVelocity,
    ScalarField,
    div_raw,
    grad_raw,
)

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
# ROADMAP item 2 drops it with the tracer's entries
cg_raw = None


class CflError(RuntimeError):
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
    dux, dvy, shear = _strain_rates(spec, u, v)
    txx = 2.0 * nu.values * dux
    tyy = 2.0 * nu.values * dvy
    tau = _corner_viscosity(nu.values) * shear
    fu = np.zeros_like(u)
    fu[1:-1, :] = (txx[1:, :] - txx[:-1, :]) / spec.hx + (
        tau[1:-1, 1:] - tau[1:-1, :-1]
    ) / spec.hy
    fv = np.zeros_like(v)
    fv[:, 1:-1] = (tyy[:, 1:] - tyy[:, :-1]) / spec.hy + (
        tau[1:, 1:-1] - tau[:-1, 1:-1]
    ) / spec.hx
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
    # x-momentum: normal flux u^2 at cells, cross flux u v at corners
    ubar_c = 0.5 * (u[1:, :] + u[:-1, :])
    flux_xx = ubar_c * ubar_c
    flux_xy = np.zeros((spec.nx + 1, spec.ny + 1))
    vbar = 0.5 * (v[1:, :] + v[:-1, :])  # at interior-x corners
    ubar_y = np.zeros((spec.nx - 1, spec.ny + 1))
    ubar_y[:, 1:-1] = 0.5 * (u[1:-1, 1:] + u[1:-1, :-1])
    flux_xy[1:-1, :] = vbar * ubar_y
    adv_u = np.zeros_like(u)
    adv_u[1:-1, :] = (flux_xx[1:, :] - flux_xx[:-1, :]) / spec.hx + (
        flux_xy[1:-1, 1:] - flux_xy[1:-1, :-1]
    ) / spec.hy
    # y-momentum, mirrored
    vbar_c = 0.5 * (v[:, 1:] + v[:, :-1])
    flux_yy = vbar_c * vbar_c
    flux_yx = np.zeros((spec.nx + 1, spec.ny + 1))
    ubar = 0.5 * (u[:, 1:] + u[:, :-1])  # at interior-y corners
    vbar_x = np.zeros((spec.nx + 1, spec.ny - 1))
    vbar_x[1:-1, :] = 0.5 * (v[1:, 1:-1] + v[:-1, 1:-1])
    flux_yx[:, 1:-1] = ubar * vbar_x
    adv_v = np.zeros_like(v)
    adv_v[:, 1:-1] = (flux_yy[:, 1:] - flux_yy[:, :-1]) / spec.hy + (
        flux_yx[1:, 1:-1] - flux_yx[:-1, 1:-1]
    ) / spec.hx
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


def _lap_u(spec: GridSpec, u: np.ndarray) -> np.ndarray:
    """Component Laplacian on u-faces: stored zeros at normal walls,
    antisymmetric ghosts across tangential walls."""
    out = np.zeros_like(u)
    out[1:-1, :] = (u[2:, :] - 2.0 * u[1:-1, :] + u[:-2, :]) / spec.hx**2
    out[1:-1, 1:-1] += (u[1:-1, 2:] - 2.0 * u[1:-1, 1:-1] + u[1:-1, :-2]) / spec.hy**2
    out[1:-1, 0] += (u[1:-1, 1] - 3.0 * u[1:-1, 0]) / spec.hy**2
    out[1:-1, -1] += (u[1:-1, -2] - 3.0 * u[1:-1, -1]) / spec.hy**2
    return out


def _lap_v(spec: GridSpec, v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v)
    out[:, 1:-1] = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / spec.hy**2
    out[1:-1, 1:-1] += (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / spec.hx**2
    out[0, 1:-1] += (v[1, 1:-1] - 3.0 * v[0, 1:-1]) / spec.hx**2
    out[-1, 1:-1] += (v[-2, 1:-1] - 3.0 * v[-1, 1:-1]) / spec.hx**2
    return out


def project(vel_star: MacVelocity, dt: float) -> tuple[MacVelocity, ScalarField, ProjectionReport]:
    """Remove the divergence of ``vel_star``: solve ``lap q = div(v*)/dt``
    and subtract ``dt grad q``.  Returns the corrected field, the
    zero-mean pressure and a report."""
    spec = vel_star.grid
    d = div_raw(spec, vel_star.u, vel_star.v) / dt
    # the discrete divergence integrates to zero analytically; drop the
    # rounding dust so the compatibility check sees a clean mean
    d -= d.mean()
    q = neumann_solve(ScalarField(spec, -d))
    gu, gv = grad_raw(spec, q.values)
    vel = MacVelocity(spec, vel_star.u - dt * gu, vel_star.v - dt * gv)
    return vel, q, ProjectionReport()


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
    nu_floor = min(p.nu1, p.nu2)
    adv_u, adv_v = _advect_momentum(spec, vel.u, vel.v)
    visc = viscous_stress_div(vel, nu)
    force = korteweg_force(phi, mu, sigma, p)

    rhs_u = vel.u + dt * (
        -adv_u + visc.u - nu_floor * _lap_u(spec, vel.u) + force.u
    )
    rhs_v = vel.v + dt * (
        -adv_v + visc.v - nu_floor * _lap_v(spec, vel.v) + force.v
    )

    u_star, v_star = face_helmholtz(spec, rhs_u, rhs_v, dt * nu_floor)
    return project(MacVelocity(spec, u_star, v_star), dt)
