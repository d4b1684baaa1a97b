"""Energy bookkeeping and conservation checks.

The total energy splits into kinetic energy plus the free energy

``F = int 1/2 |grad phi|^2 + psi(phi) + 1/2 sigma^2 - chi sigma phi
+ (beta/2) (phi - mean phi, N(phi - mean phi))``,

and the semi-discrete balance reads ``dE/dt + D = -alpha (mean phi - c0)
int mu`` with dissipation ``D = int 2 nu(phi) |D v|^2 + |grad mu|^2 +
|grad(sigma - chi phi)|^2``.  The per-step ledger records every term of
that balance together with mass, separation and divergence diagnostics;
``bel_residual`` is the defect of the backward-Euler version of the
balance and shrinks linearly with the step size.

All quadratures reuse the grid operators, so the identities they satisfy
(summation by parts, exact adjointness) carry over to the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .chd import ChdStepReport, ModelParams, nonlocal_potential
from .grid import (
    ScalarField,
    div_raw,
    face_inner,
    grad_norm_sq,
    integrate,
    l2_inner,
    mean,
)
from .hydro import dissipation_quadrature, viscosity_field
from .potential import psi
from .state import SimState

__all__ = [
    "LEDGER_FIELDS",
    "LedgerRow",
    "MassReport",
    "bel_residual",
    "dissipation",
    "free_energy",
    "kinetic_energy",
    "ledger_row",
    "mass_check",
    "sigma_l4",
]


@dataclass
class LedgerRow:
    """One recorded step of the energy and mass balance."""

    step: int
    t: float
    kinetic: float
    free_energy: float
    total_energy: float
    diss_visc: float
    diss_mu: float
    diss_cross: float
    oono_work: float
    bel_residual: float
    mean_phi: float
    mean_sigma: float
    sep_delta: float
    div_inf: float
    sigma_l4: float
    newton_iters: int


LEDGER_FIELDS = tuple(f.name for f in fields(LedgerRow))


def kinetic_energy(state: SimState) -> float:
    return 0.5 * face_inner(state.vel, state.vel)


def free_energy(phi: ScalarField, sigma: ScalarField, p: ModelParams) -> float:
    """Mixing plus interaction free energy of the pair ``(phi, sigma)``.

    The nonlocal term costs one cosine-transform solve for
    ``N(phi - mean phi)`` when ``beta`` is nonzero.
    """
    out = 0.5 * grad_norm_sq(phi) + integrate(ScalarField(phi.grid, psi(phi.values, p.potential)))
    out += 0.5 * l2_inner(sigma, sigma)
    out -= p.chi * l2_inner(sigma, phi)
    # droplet-64 runs beta = 0 and spinodal-128 beta = 1: both sides are measured
    if p.beta != 0.0:
        fluct = ScalarField(phi.grid, phi.values - phi.values.mean())
        nphi, _ = nonlocal_potential(phi)
        out += 0.5 * p.beta * l2_inner(fluct, nphi)
    return out


def dissipation(state: SimState, p: ModelParams) -> tuple[float, float, float]:
    """Viscous, chemical and cross-diffusion dissipation rates, each
    nonnegative up to rounding."""
    nu = viscosity_field(state.phi, p)
    d_visc = dissipation_quadrature(state.vel, nu)
    d_mu = grad_norm_sq(state.mu)
    cross = ScalarField(state.grid, state.sigma.values - p.chi * state.phi.values)
    d_cross = grad_norm_sq(cross)
    return d_visc, d_mu, d_cross


def sigma_l4(sigma: ScalarField) -> float:
    return float(integrate(ScalarField(sigma.grid, np.square(np.square(sigma.values)))) ** 0.25)


def bel_residual(
    e_prev: float,
    e_new: float,
    diss_new: float,
    oono_new: float,
    dt: float,
) -> float:
    """Defect of the backward-Euler energy balance across one step."""
    return (e_new - e_prev) + dt * diss_new + dt * oono_new


def ledger_row(
    state: SimState,
    p: ModelParams,
    prev: LedgerRow | None = None,
    dt: float | None = None,
    report: ChdStepReport | None = None,
) -> LedgerRow:
    """Assemble the ledger row for the current state.

    ``prev`` and ``dt`` feed the energy-balance residual; the first row
    of a run leaves it at zero.
    """
    kin = kinetic_energy(state)
    free = free_energy(state.phi, state.sigma, p)
    total = kin + free
    d_visc, d_mu, d_cross = dissipation(state, p)
    oono = p.alpha * (mean(state.phi) - p.c0) * integrate(state.mu)
    if prev is not None and dt is not None:
        resid = bel_residual(prev.total_energy, total, d_visc + d_mu + d_cross, oono, dt)
    else:
        resid = 0.0
    return LedgerRow(
        step=state.step,
        t=state.t,
        kinetic=kin,
        free_energy=free,
        total_energy=total,
        diss_visc=d_visc,
        diss_mu=d_mu,
        diss_cross=d_cross,
        oono_work=oono,
        bel_residual=resid,
        mean_phi=mean(state.phi),
        mean_sigma=mean(state.sigma),
        sep_delta=1.0 - float(np.max(np.abs(state.phi.values))),
        div_inf=float(np.max(np.abs(div_raw(state.grid, state.vel.u, state.vel.v)))),
        sigma_l4=sigma_l4(state.sigma),
        newton_iters=0 if report is None else report.newton_iters,
    )


@dataclass
class MassReport:
    """Deviation of the recorded means from their closed-form laws."""

    sigma_drift: float
    phi_abs_dev: float
    phi_law_rel_err: float


def mass_check(rows: list, p: ModelParams) -> MassReport:
    """Compare the recorded means against exact per-step mass laws.

    The solute mean is conserved; the phase mean approaches ``c0``
    geometrically, one factor ``1/(1 + alpha dt_k)`` per recorded step
    (realized step sizes are taken from the time column).  The relative
    error is measured against the initial deficit, the natural scale of
    the law; when a run starts on target that scale is rounding dust, so
    ``phi_abs_dev`` is the meaningful number there.
    """
    if not rows:
        raise ValueError("mass check needs at least one ledger row")
    sigma0 = rows[0].mean_sigma
    sigma_drift = max(abs(r.mean_sigma - sigma0) for r in rows)
    d0 = expected = rows[0].mean_phi - p.c0
    worst = 0.0
    prev_t = rows[0].t
    for r in rows[1:]:
        expected /= 1.0 + p.alpha * (r.t - prev_t)
        prev_t = r.t
        worst = max(worst, abs((r.mean_phi - p.c0) - expected))
    return MassReport(
        sigma_drift=sigma_drift,
        phi_abs_dev=worst,
        phi_law_rel_err=worst / max(abs(d0), 1.0e-300),
    )
