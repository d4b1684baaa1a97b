"""Stationary states and algebraic decay-rate estimation.

At equilibrium the velocity vanishes and the solute locks onto the phase
field, ``sigma = chi phi + const``, with the constant fixed by the
conserved solute mean.  Substituting that relation reduces the problem
to a single phase-field equation: the zero-mean part of

``-lap phi + psi'(phi) - chi sigma(phi) + beta N(phi - m)``

must vanish, where the mean ``m`` is ``c0`` when mass exchange is active
and the seed's mean otherwise.  The solver runs a semi-implicit gradient
flow on the reduced free energy (convex part implicit, concave quadratic
and couplings explicit) with the mean pinned exactly at every iteration
and the pseudo-step adapted so the energy never increases.

``rate_fit`` estimates the algebraic decay exponent of a distance-to-
equilibrium series: a least-squares slope ``m`` of ``log(deficit)``
against ``log(1 + t)`` over the tail maps to ``kappa = -m / (1 - 2 m)``.
The estimate is reported, never asserted; fits on non-monotone tails are
refused and near-exponential decay is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import potential as pot
from .chd import ModelParams, _newton_solve, nonlocal_potential
from .elliptic import SolverConfig
from .grid import ScalarField, grad_norm_sq, inner_raw, integrate, laplacian_raw, mean

__all__ = [
    "Equilibrium",
    "RateFit",
    "RateFitError",
    "StationaryError",
    "deficit_norm",
    "rate_fit",
    "solve_stationary",
]

MAX_FLOW_ITER = 5000


class StationaryError(RuntimeError):
    """Gradient flow failed to reach the requested residual."""


class RateFitError(ValueError):
    """Decay series unsuitable for an algebraic-rate fit."""


@dataclass
class Equilibrium:
    """Converged stationary pair with solver bookkeeping."""

    phi: ScalarField
    sigma: ScalarField
    residual_inf: float
    iterations: int
    free_energy_value: float
    mean_phi: float
    mean_sigma: float


def _reduced_energy(phi: np.ndarray, spec, p: ModelParams) -> tuple[float, ScalarField | None]:
    """Free energy after eliminating sigma, up to a phi-independent
    constant.  Returns the energy and the nonlocal field for reuse."""
    f = ScalarField(spec, phi)
    out = 0.5 * grad_norm_sq(f) + integrate(ScalarField(spec, pot.psi(phi, p.potential)))
    out -= 0.5 * p.chi**2 * spec.cell_area * inner_raw(phi, phi)
    nphi = None
    if p.beta != 0.0:
        nphi, _ = nonlocal_potential(f)
        fluct = phi - phi.mean()
        out += 0.5 * p.beta * spec.cell_area * inner_raw(fluct, nphi.values)
    return out, nphi


def solve_stationary(
    phi_seed: ScalarField,
    sigma_seed: ScalarField,
    p: ModelParams,
    cfg: SolverConfig = SolverConfig(),
    max_iter: int = MAX_FLOW_ITER,
) -> Equilibrium:
    """Relax the seed to a stationary pair under the conserved masses.

    The phase mean is pinned to ``c0`` (seed mean when ``alpha`` is
    zero); the solute follows the phase field pointwise.  Iterates until
    the zero-mean equilibrium residual has max norm at most
    ``cfg.rel_tol * theta0``.  Raises :class:`StationaryError` when the
    shift to the pinned mean leaves no admissible seed for the
    logarithmic potential.
    """
    spec = phi_seed.grid
    m_target = p.c0 if p.alpha > 0.0 else mean(phi_seed)
    sigma_const = mean(sigma_seed) - p.chi * m_target

    phi = phi_seed.values + (m_target - phi_seed.values.mean())
    if p.potential.variant == "logarithmic":
        phi = np.clip(phi, -1.0 + 1.0e-12, 1.0 - 1.0e-12)
        phi += m_target - phi.mean()
        phi_abs_max = float(np.max(np.abs(phi)))
        if phi_abs_max >= 1.0:
            raise StationaryError(
                f"shifting the seed mean {mean(phi_seed)!r} to the target mean "
                f"{m_target!r} leaves max|phi| = {phi_abs_max!r} outside the "
                "logarithmic potential's interval (-1, 1)"
            )

    tol = cfg.rel_tol * p.theta0
    # effective concave coefficient after eliminating sigma
    theta_eff = p.theta0 + p.chi**2
    dtau = 0.1
    dtau_max = 1.0e3 if p.beta == 0.0 else min(1.0e3, 1.0 / abs(p.beta))
    energy, nphi = _reduced_energy(phi, spec, p)

    def residual_field(phi_arr: np.ndarray, nphi_field) -> np.ndarray:
        r = -laplacian_raw(spec, phi_arr) + pot.psi_prime(phi_arr, p.potential)
        r -= p.chi * (p.chi * phi_arr + sigma_const)
        if p.beta != 0.0:
            r = r + p.beta * nphi_field.values
        return r - r.mean()

    res = residual_field(phi, nphi)
    res_inf = float(np.max(np.abs(res)))
    it = 0
    while res_inf > tol:
        if it >= max_iter:
            raise StationaryError(
                f"stationary residual {res_inf:.3e} above target {tol:.3e} "
                f"after {max_iter} gradient-flow iterations"
            )
        it += 1
        g_expl = -theta_eff * phi - p.chi * sigma_const
        if p.beta != 0.0:
            g_expl = g_expl + p.beta * nphi.values
        phi_try = _newton_solve(
            spec, p.potential, phi, dtau, 0.0, g_expl, np.zeros_like(phi), m_target
        )[0]
        energy_try, nphi_try = _reduced_energy(phi_try, spec, p)
        if energy_try <= energy + 1.0e-13 * max(1.0, abs(energy)):
            phi, energy, nphi = phi_try, energy_try, nphi_try
            dtau = min(dtau * 1.5, dtau_max)
        else:
            dtau *= 0.25
            if dtau < 1.0e-12:
                raise StationaryError(
                    "pseudo-step collapsed without reaching the residual target "
                    f"(residual {res_inf:.3e}, target {tol:.3e})"
                )
            continue
        res = residual_field(phi, nphi)
        res_inf = float(np.max(np.abs(res)))

    phi_field = ScalarField(spec, phi)
    sigma_field = ScalarField(spec, p.chi * phi + sigma_const)
    from .diagnostics import free_energy  # local import to avoid a cycle

    return Equilibrium(
        phi=phi_field,
        sigma=sigma_field,
        residual_inf=res_inf,
        iterations=it,
        free_energy_value=free_energy(phi_field, sigma_field, p),
        mean_phi=mean(phi_field),
        mean_sigma=mean(sigma_field),
    )


def deficit_norm(phi: ScalarField, phi_inf: ScalarField) -> float:
    """Distance to equilibrium: discrete H1 norm of the difference."""
    diff = ScalarField(phi.grid, phi.values - phi_inf.values)
    return float(
        np.sqrt(grad_norm_sq(diff) + phi.grid.cell_area * inner_raw(diff.values, diff.values))
    )


@dataclass
class RateFit:
    """Algebraic decay exponent estimate from a log-log tail fit."""

    kappa_hat: float
    slope: float
    r_squared: float
    n_points: int
    flagged: bool
    reason: str = ""


def rate_fit(
    times: np.ndarray,
    deficits: np.ndarray,
    tail_fraction: float = 0.5,
) -> RateFit:
    """Fit ``deficit ~ (1 + t)^m`` on the tail and map the slope to the
    convergence-rate exponent ``kappa = -m / (1 - 2m)``.

    The tail (last ``tail_fraction`` of the samples, at least 3) must be
    positive and nonincreasing, otherwise the fit is refused.  A
    near-boundary ``kappa_hat`` or a poor linear fit is flagged rather
    than trusted: exponential decay, for instance, drives the slope to
    large negative values and ``kappa_hat`` toward one half.
    """
    times = np.asarray(times, dtype=np.float64)
    deficits = np.asarray(deficits, dtype=np.float64)
    if times.shape != deficits.shape or times.ndim != 1:
        raise ValueError("times and deficits must be matching 1-d arrays")
    n_tail = max(3, int(len(times) * tail_fraction))
    if len(times) < 3:
        raise RateFitError("need at least 3 samples for a rate fit")
    t = times[-n_tail:]
    d = deficits[-n_tail:]
    if np.any(d <= 0.0):
        raise RateFitError("deficit series must be strictly positive on the tail")
    increases = np.flatnonzero(np.diff(d) > 0.0)
    if increases.size:
        raise RateFitError(
            f"deficit series is not monotone on the tail (first increase at "
            f"tail index {int(increases[0]) + 1}); fit refused"
        )
    x = np.log1p(t)
    y = np.log(d)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    if slope >= 0.0:
        raise RateFitError(f"tail slope {slope:.3e} is not negative; fit refused")
    kappa = -slope / (1.0 - 2.0 * slope)
    flagged = False
    reason = ""
    if kappa >= 0.45:
        flagged = True
        reason = f"kappa_hat = {kappa:.4f} is near the 1/2 boundary; decay faster than algebraic"
    elif r2 < 0.98:
        flagged = True
        reason = f"log-log fit explains only r^2 = {r2:.4f} of the tail"
    return RateFit(
        kappa_hat=float(kappa),
        slope=float(slope),
        r_squared=r2,
        n_points=int(n_tail),
        flagged=flagged,
        reason=reason,
    )
