"""Stationary states and algebraic decay-rate estimation.

At equilibrium the velocity vanishes and the solute locks onto the phase
field, ``sigma = chi phi + const``, with the constant fixed by the
conserved solute mean.  Substituting that relation reduces the problem
to a single phase-field equation: the zero-mean part of

``-lap phi + psi'(phi) - chi sigma(phi) + beta N(phi - m)``

must vanish, where the mean ``m`` is ``c0`` when mass exchange is active
and the seed's mean otherwise.  The solver runs pseudo-transient
continuation (Kelley & Keyes, SIAM J. Numer. Anal. 35, 1998) on the
``H^-1`` gradient flow of the reduced free energy, with the mean pinned
exactly at every pseudo-step.  Each pseudo-step treats the whole local
energy implicitly, the concave quadratic ``-(theta_eff/2) phi^2`` with
``theta_eff = theta0 + chi^2`` included; only ``beta N`` stays explicit.
A pseudo-step is exactly one barrier-scaled Newton update of that
implicit step, with no inner residual target.  The pseudo-step ``dtau``
starts at ``0.99 * 4 / (theta_eff - floor)^2``, with ``floor`` the
convexity floor of ``psi0''``, the longest step that is strictly convex
at every state, and at most ``1/|beta|``.  After each accepted pseudo-step
switched evolution relaxation (Mulder & van Leer, AIAA 85-1519) scales
``dtau`` by the ratio of the previous residual to the new one, under two
caps: ``1/|beta|`` for the explicit nonlocal term, and, wherever ``mean d
= mean psi0''(phi) - theta_eff`` is negative, ``0.99 * 4 / (mean d)^2``,
under which ``1/dtau + lam (lam + mean d)`` is positive for every ``lam >=
0``.  On the unit box the discrete symbol is positive without that cap,
since its first nonzero ``lam`` is about ``pi^2`` and ``|mean d|`` about 1,
yet the cap still binds there.  Its job shows on larger boxes, where
unstable modes have ``lam < |mean d|``: a longer pseudo-step flips and
shrinks them instead of growing them, and a spinodal seed lands on the
unstable uniform critical point (48^2 with ``lx = 10``: 3 pseudo-steps
to the uniform energy instead of 29 to a separated equilibrium).  An
energy check is the only safeguard: a pseudo-step that
raises the reduced energy by more than rounding is rejected and ``dtau``
cut by 4.  When over :data:`STALL_STEPS` accepted pseudo-steps the
residual has not halved and the energy has not fallen, the residual sits
at the rounding floor of its evaluation, and the solve stops with an
error instead of idling.

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
from .chd import ModelParams, NewtonError, _newton_update, _recenter, _scheme_mu, nonlocal_potential
from .elliptic import SolverConfig, SolverError
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
#: Fraction of the bounds ``4 / (theta_eff - convexity_floor)^2`` (the first
#: pseudo-step) and ``4 / (mean d)^2`` (the cap where ``mean d < 0``) taken.
CAP_FRACTION = 0.99
#: Accepted pseudo-steps over which the residual must halve or the energy
#: fall for the solve to go on.
STALL_STEPS = 5
#: Relative energy change that counts as rounding: a pseudo-step may raise
#: the reduced energy by this much and still be accepted.
ENERGY_ROUNDING = 1.0e-13
#: Tail fraction of the samples that :func:`rate_fit` fits.
RATE_FIT_TAIL = 0.5


class StationaryError(SolverError):
    """Gradient flow failed to reach the requested residual."""


class RateFitError(ValueError):
    """Decay series unsuitable for an algebraic-rate fit."""


@dataclass
class Equilibrium:
    """Converged stationary pair, the ``mu`` its residual was measured on, and bookkeeping."""

    phi: ScalarField
    sigma: ScalarField
    mu: ScalarField
    residual_inf: float
    iterations: int
    free_energy_value: float
    mean_phi: float
    mean_sigma: float


def _evaluate(phi: np.ndarray, spec, p: ModelParams, sigma_const: float) -> tuple:
    """The reduced energy at ``phi``, the scheme's ``mu`` at a fixed point
    (``phi0 = phi``, ``gamma = 0``) on the locked solute ``chi phi +
    sigma_const``, and the max norm of its fluctuation, from one ``N`` solve
    whatever ``beta`` is.  The energy is ``free_energy(phi, chi phi + c) -
    c^2 |Omega| / 2``; going through ``free_energy`` instead adds the solute
    terms and at ``beta != 0`` an ``N`` solve, about 0.4 ms (8-10 % of a
    pseudo-step at 96^2)."""
    f = ScalarField(spec, phi)
    energy = 0.5 * grad_norm_sq(f) + integrate(ScalarField(spec, pot.psi(phi, p.potential)))
    energy -= 0.5 * p.chi**2 * spec.cell_area * inner_raw(phi, phi)
    nphi = nonlocal_potential(f)[0].values
    energy += 0.5 * p.beta * spec.cell_area * inner_raw(phi - phi.mean(), nphi)
    g_expl = -(p.theta0 + p.chi**2) * phi - p.chi * sigma_const + p.beta * nphi
    mu = _scheme_mu(spec, p.potential, phi, phi, 0.0, g_expl)
    return energy, mu, float(np.max(np.abs(mu - mu.mean())))


def _newton_solve(
    spec,
    pparams: pot.PotentialParams,
    phi: np.ndarray,
    dtau: float,
    gd: float,
    mu: np.ndarray,
    m_target: float,
) -> tuple[np.ndarray, int, float, int, int]:
    """One pseudo-step: a single :func:`~chns.chd._newton_update` of
    ``(phi' - phi)/dtau = lap mu'`` from ``phi``, where ``mu`` is the
    scheme's chemical potential at ``phi`` and ``gd = gamma/dtau``, taken
    at its barrier scale, as the coupled Newton loop takes it, and
    recentered to ``m_target`` (:func:`~chns.chd._recenter`).

    Returns ``(phi, 1, nan, barrier_activations, gmres_iterations)``: no
    residual is evaluated after the update.  The benchmark (``perfbench/``)
    counts calls of this name as pseudo-steps and reads this tuple.
    """
    out, _, s, linear = _newton_update(spec, pparams, phi, -laplacian_raw(spec, mu), dtau, gd, 1)
    return _recenter(out, m_target, pparams), 1, float("nan"), int(s < 1.0), linear


def solve_stationary(
    phi_seed: ScalarField,
    sigma_seed: ScalarField,
    p: ModelParams,
    cfg: SolverConfig = SolverConfig(),
) -> Equilibrium:
    """Relax the seed to a stationary pair under the conserved masses.

    The phase mean is pinned to ``c0`` (seed mean when ``alpha`` is
    zero); the solute follows the phase field pointwise.  The seed is
    shifted onto the pinned mean; where that leaves a cell within
    ``BOUND_MARGIN`` of ``+-1`` under the logarithmic potential, its
    fluctuation is contracted instead, ``m + lam (seed - mean seed)`` with
    the largest ``lam`` that keeps every cell ``min(INIT_MARGIN, (1 -
    |m|)/2)`` inside the interval.  Takes the module docstring's
    pseudo-steps until the zero-mean equilibrium residual has max norm at
    most ``cfg.rel_tol * theta0``.  Raises :class:`StationaryError` when
    over the last :data:`STALL_STEPS` accepted pseudo-steps the residual
    has not halved and the energy has not fallen, when ``dtau`` collapses
    below ``1e-12``, after :data:`MAX_FLOW_ITER` pseudo-steps, or at once
    when ``theta0 + chi^2`` is so large that the first ``dtau`` overflows.
    A :class:`~chns.chd.NewtonError` from a pseudo-step is raised again
    with ``(pseudo-step N, dtau = X)`` appended to its message.  Raises
    :class:`~chns.potential.PotentialDomainError` when the pinned mean
    itself lies outside the logarithmic potential's interval.
    ``free_energy_value`` is the reduced energy of the result plus
    ``sigma_const^2 |Omega| / 2``, which equals
    :func:`~chns.diagnostics.free_energy` on the locked solute.
    """
    spec = phi_seed.grid
    m_target = p.c0 if p.alpha > 0.0 else mean(phi_seed)
    sigma_const = mean(sigma_seed) - p.chi * m_target

    phi = phi_seed.values + (m_target - phi_seed.values.mean())
    if p.potential.variant == "logarithmic" and not np.max(np.abs(phi)) < 1.0 - pot.BOUND_MARGIN:
        if not abs(m_target) < 1.0:
            raise pot.PotentialDomainError(
                f"the seed's phase mean {m_target!r} lies outside the "
                "logarithmic potential's interval (-1, 1)"
            )
        room = 1.0 - min(pot.INIT_MARGIN, 0.5 * (1.0 - abs(m_target)))
        fluct = phi_seed.values - phi_seed.values.mean()
        spread = max(fluct.max() / (room - m_target), -fluct.min() / (room + m_target))
        phi = m_target + fluct / max(1.0, spread)

    tol = cfg.rel_tol * p.theta0
    beta_cap = 1.0 / abs(p.beta) if p.beta != 0.0 else np.inf
    try:  # theta_eff: the concave coefficient after eliminating sigma
        theta_eff = p.theta0 + p.chi**2
        dtau = min(CAP_FRACTION * 4.0 / (theta_eff - p.potential.convexity_floor) ** 2, beta_cap)
    except OverflowError as exc:
        raise StationaryError(
            f"theta0 + chi^2 overflows the first pseudo-step (theta0 = {p.theta0:g}, chi = {p.chi:g})"
        ) from exc

    energy, mu, res_inf = _evaluate(phi, spec, p, sigma_const)
    accepted = [(res_inf, energy)]  # residual and energy of each accepted iterate
    it = 0
    while not res_inf <= tol:
        if it >= MAX_FLOW_ITER:
            raise StationaryError(
                f"stationary residual {res_inf:.3e} above target {tol:.3e} "
                f"after {MAX_FLOW_ITER} gradient-flow iterations"
            )
        it += 1
        mean_d = float(pot.psi0_second(phi, p.potential).mean()) - theta_eff
        if mean_d < 0.0:
            dtau = min(dtau, CAP_FRACTION * 4.0 / mean_d**2)
        dtau = min(dtau, beta_cap)
        try:
            # gamma/dtau = -theta_eff puts the concave part on the new iterate
            phi_try = _newton_solve(spec, p.potential, phi, dtau, -theta_eff, mu, m_target)[0]
        except NewtonError as exc:
            raise NewtonError(f"{exc} (pseudo-step {it}, dtau = {dtau:g})") from exc
        energy_try, mu_try, res_try = _evaluate(phi_try, spec, p, sigma_const)
        rounding = ENERGY_ROUNDING * max(1.0, abs(energy))
        if energy_try <= energy + rounding:
            phi, energy, mu, res_inf = phi_try, energy_try, mu_try, res_try
            if res_inf <= tol:
                break
            accepted.append((res_inf, energy))
            if len(accepted) > STALL_STEPS:
                res_old, energy_old = accepted[-1 - STALL_STEPS]
                if res_inf > 0.5 * res_old and energy_old - energy <= rounding:
                    raise StationaryError(
                        f"stationary residual {res_inf:.3e} above target {tol:.3e} stalled at "
                        f"pseudo-step {it}: over the last {STALL_STEPS} accepted pseudo-steps "
                        "it did not halve and the energy did not fall"
                    )
            # switched evolution relaxation
            dtau *= accepted[-2][0] / res_inf
        else:
            dtau *= 0.25
            if dtau < 1.0e-12:
                raise StationaryError(
                    "pseudo-step collapsed without reaching the residual target "
                    f"(residual {res_inf:.3e}, target {tol:.3e})"
                )

    phi_field = ScalarField(spec, phi)
    sigma_field = ScalarField(spec, p.chi * phi + sigma_const)
    return Equilibrium(
        phi=phi_field,
        sigma=sigma_field,
        mu=ScalarField(spec, mu),
        residual_inf=res_inf,
        iterations=it,
        free_energy_value=energy + 0.5 * sigma_const**2 * spec.area,
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


def rate_fit(times: np.ndarray, deficits: np.ndarray) -> RateFit:
    """Fit ``deficit ~ (1 + t)^m`` on the tail and map the slope to the
    convergence-rate exponent ``kappa = -m / (1 - 2m)``.

    The tail (last :data:`RATE_FIT_TAIL` of the samples, at least 3) must be
    positive and nonincreasing, otherwise the fit is refused.  A
    near-boundary ``kappa_hat`` or a poor linear fit is flagged rather
    than trusted: exponential decay, for instance, drives the slope to
    large negative values and ``kappa_hat`` toward one half.
    """
    times = np.asarray(times, dtype=np.float64)
    deficits = np.asarray(deficits, dtype=np.float64)
    if times.shape != deficits.shape or times.ndim != 1:
        raise ValueError("times and deficits must be matching 1-d arrays")
    n_tail = max(3, int(len(times) * RATE_FIT_TAIL))
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
