"""Semi-implicit time stepping for the phase field and the solute.

One step advances the convective Cahn-Hilliard equation with nonlocal
mass exchange and then the solute diffusion, both against a frozen
velocity:

* phase field: ``(phi' - phi)/dt + div(vel phi) = lap mu' - alpha
  (mean(phi') - c0)`` with ``mu' = -lap phi' + psi0'(phi') - theta0 phi
  - chi sigma + beta N(phi - mean phi) + (gamma/dt)(phi' - phi)``,
* solute: ``(sigma' - sigma)/dt + div(vel sigma) = lap sigma'
  - chi lap phi'``.

The convex part of the potential is implicit, the concave quadratic and
the couplings are explicit, and the mass-exchange mean is implicit.
Taking means of the update shows ``mean(phi') - c0 = (mean(phi) - c0) /
(1 + alpha dt)`` and ``mean(sigma') = mean(sigma)``; both laws are
enforced to rounding by recentering the solver output.  The nonlocal
term ``N`` and the solute's implicit diffusion are exact cosine-transform
solves (:mod:`chns.elliptic`).

The nonlinear cell system is solved by an inexact Newton
iteration.  After eliminating ``mu`` the Jacobian is ``J x = x/dt +
lap(lap x - d x)`` with ``d = psi0''(phi) + gamma/dt``; it is applied
matrix-free and inverted by GMRES, right-preconditioned with the
cosine-transform solve of its constant-coefficient counterpart ``1/dt +
lap^2 - mean(d) lap`` (Knoll & Keyes, J. Comput. Phys. 193, 2004),
whose symbol is built once per Krylov solve.  The Jacobian splits as
``J = P - lap((d - mean d) .)`` with ``P`` that preconditioner, so on a
preconditioned vector ``z = P^-1 v`` it is ``J z = v - lap((d - mean d)
z)``: one Laplacian per Krylov iteration instead of two.  GMRES keeps
the preconditioned basis vectors, as flexible GMRES does (Saad, SIAM J.
Sci. Comput. 14, 1993), so each iteration costs one preconditioner solve
and forming the update costs none.  It also keeps the products ``J z``,
so the closing residual ``J x - b`` of ``x = sum_j y_j z_j`` is ``sum_j
y_j (J z_j) - b``, without applying ``J`` again.  Newton hands GMRES its
residual ``r`` and negates the solution in place instead of allocating
``-r``: under round-to-nearest, sums, products, quotients, square roots
and FFTs of sign-flipped data flip sign exactly, so the Krylov solve is
odd in its right-hand side to the bit.  Each Krylov solve stops
once that residual is a fixed fraction of the Newton residual (an
inexact-Newton forcing term; Eisenstat & Walker, SIAM J. Sci. Comput. 17,
1996).  Newton stops at its residual target, once its update is below
rounding, or one update earlier, with no residual evaluated, when a
contraction estimate (Deuflhard, Newton Methods for Nonlinear Problems,
Springer 2004) shows that the next update would be below rounding.  For
the logarithmic potential a barrier safeguard rescales any update so
that no cell moves more than 90 percent of its remaining distance to
``+-1``, which keeps every iterate strictly inside the physical
interval.  That scale is the only damping: the update is taken as
scaled, with no line search on the residual norm, which affine-invariant
Newton theory (Deuflhard) gives no reason to trust for a damped step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import potential as pot
from .elliptic import (
    SolverConfig,
    SolverError,
    fluctuation_potential,
    neumann_eigenvalues,
    neumann_symbol_solve,
    symbol_slots,
)

from .grid import (
    GridSpec,
    MacVelocity,
    ScalarField,
    advect_scalar,
    check_finite,
    inner_raw,
    laplacian_raw,
)
from .potential import PotentialParams
from .state import SimState

__all__ = [
    "ChdStepReport",
    "ModelParams",
    "NewtonError",
    "ch_step",
    "chd_step",
    "chemical_potential",
    "nonlocal_potential",
    "sigma_step",
]

NEWTON_TOL_FACTOR = 1.0e-9
NEWTON_MAX_ITER = 50
BARRIER_MARGIN = 0.9
# inexact-Newton forcing term: each Krylov solve reduces the linear
# residual to this fraction of the Newton residual.  It sits well above
# the rounding floor of the Jacobian action, near eps * max eig(lap^2) * dt
# (about 4e-9 at 128^2 with dt = 1e-3), and leaves the Newton iteration
# counts of an exact linear solve unchanged.
GMRES_FORCING = 1.0e-6
GMRES_MAX_ITER = 50
# a Krylov solve stopped by GMRES_MAX_ITER short of its forcing term is
# still taken when its relative residual is at most this: inexact Newton
# converges for any forcing term bounded below 1 (Dembo, Eisenstat &
# Steihaug, SIAM J. Numer. Anal. 19, 1982), and the Newton residual target
# still decides when the step has converged
GMRES_ACCEPT = 0.1
# a Newton update below this fraction of max(1, max|phi|) is rounding: stalled
# updates measure 9e-19 to 4.1e-15, the last productive ones 2.6e-8 and up
_UPDATE_FLOOR = 1.0e-13

# largest double strictly below 1; keeps barrier iterates evaluable even
# when rounding of phi + s * delta would land exactly on +-1
_INTERIOR_CAP = float(np.nextafter(1.0, 0.0))


# perfbench/tracing.py (WRAPS) patches these names, which nothing calls;
# ROADMAP item 1 drops them with the tracer's entries
cg_raw = solve_spd = splu = None


class NewtonError(SolverError):
    """Nonlinear phase-field solve failed to converge."""


@dataclass(frozen=True)
class ModelParams:
    """Physical coefficients of the coupled model.

    Standing assumptions: (H1) both viscosities strictly positive, (H2)
    the potential splits into a convex part minus ``(theta0/2) r^2``
    (validated by :class:`~chns.potential.PotentialParams`), (H3) the
    mass-exchange rate ``alpha`` and regularization ``gamma`` are
    nonnegative and the target mean ``c0`` lies strictly inside the
    phase interval.
    """

    nu1: float = 1.0
    nu2: float = 1.0
    chi: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    c0: float = 0.0
    gamma: float = 0.0
    potential: PotentialParams = PotentialParams()

    def __post_init__(self) -> None:
        check_finite(self)
        if not (self.nu1 > 0.0 and self.nu2 > 0.0):
            raise ValueError(
                f"violates (H1): viscosities must be > 0, got nu1={self.nu1}, nu2={self.nu2}"
            )
        if self.alpha < 0.0:
            raise ValueError(f"violates (H3): alpha must be >= 0, got {self.alpha}")
        if self.gamma < 0.0:
            raise ValueError(f"violates (H3): gamma must be >= 0, got {self.gamma}")
        if not (-1.0 < self.c0 < 1.0):
            raise ValueError(f"violates (H3): c0 must lie in (-1, 1), got {self.c0}")

    @property
    def theta0(self) -> float:
        return self.potential.theta0


@dataclass
class ChdStepReport:
    """Solver bookkeeping for one transport step.

    ``linear_iters`` sums the GMRES iterations over the step's Newton
    iterations.  No residual is kept: the contraction stop evaluates none.
    """

    newton_iters: int = 0
    linear_iters: int = 0
    clipped_steps: int = 0


def nonlocal_potential(
    phi: ScalarField, cfg: SolverConfig = SolverConfig()
) -> tuple[ScalarField, int]:
    """Inverse Neumann Laplacian of the zero-mean part of ``phi``.

    Returns the field and an iteration count, which is 0 because the
    solve is an exact cosine-transform solve.  ``cfg`` is not read; it
    stays because ``perfbench/child.py`` passes one.
    """
    return fluctuation_potential(phi), 0


def _explicit_lags(phi: ScalarField, sigma: ScalarField, p: ModelParams) -> np.ndarray:
    """The explicit part ``-theta0 phi - chi sigma + beta N(phi - mean phi)``
    of the chemical potential, the scheme's ``g_expl``."""
    g_expl = -p.theta0 * phi.values - p.chi * sigma.values
    # droplet-64 runs beta = 0 and spinodal-128 beta = 1: both sides are measured
    if p.beta != 0.0:
        g_expl = g_expl + p.beta * nonlocal_potential(phi)[0].values
    return g_expl


def chemical_potential(phi: ScalarField, sigma: ScalarField, p: ModelParams) -> ScalarField:
    """Chemical potential ``-lap phi + psi'(phi) - chi sigma + beta N(phi -
    mean phi)`` of the current state: the scheme's ``mu`` with no splitting
    lag (:func:`_scheme_mu` with ``phi0 = phi`` and ``gd = 0``)."""
    spec = phi.grid
    g_expl = _explicit_lags(phi, sigma, p)
    return ScalarField(spec, _scheme_mu(spec, p.potential, phi.values, phi.values, 0.0, g_expl))


def _barrier_scale(phi: np.ndarray, delta: np.ndarray) -> float:
    """Largest fraction of ``delta`` that keeps each cell within 90 percent
    of its current distance to the +-1 barrier."""
    # each quotient counts only where delta moves the cell toward that
    # barrier and is +inf elsewhere; a tiny delta may overflow it to +inf
    with np.errstate(all="ignore"):
        up = np.where(delta > 0.0, BARRIER_MARGIN * (1.0 - phi) / delta, np.inf)
        down = np.where(delta < 0.0, BARRIER_MARGIN * (1.0 + phi) / -delta, np.inf)
    return min(1.0, float(up.min()), float(down.min()))


def _preconditioner_symbol(spec: GridSpec, d: np.ndarray, dt: float) -> np.ndarray:
    """Cosine-mode eigenvalues of ``1/dt + lap^2 - mean(d) lap``, the
    constant-coefficient counterpart of the Newton Jacobian."""
    lam = neumann_eigenvalues(spec)
    return 1.0 / dt + lam * (lam + float(d.mean()))


def _jacobian_solve(
    spec: GridSpec, d: np.ndarray, dt: float, b: np.ndarray
) -> tuple[np.ndarray, int, float]:
    """Solve the Newton system ``J x = x/dt + lap(lap x - d x) = b`` by the
    module docstring's flexible preconditioned GMRES (modified Gram-Schmidt,
    Givens rotations, no restart) until the residual is at most
    :data:`GMRES_FORCING` ``|b|``, for at most :data:`GMRES_MAX_ITER`
    iterations.  Returns ``(x, iterations, relative residual)``.

    Once the Givens estimate meets the target or turns NaN, the residual is
    summed from the stored products ``J z_j = v_j - lap((d - mean d) z_j)``,
    taken before Gram-Schmidt.  It differs from ``J x - b`` recomputed from ``x``
    only by ``J`` applied to the rounding of the preconditioner solves,
    about ``eps max(symbol) |z|``: at ``dt = 1e-3`` below ``1e-12 |b|``.
    """
    # gathered into the transform's slots once, not on every iteration
    divisor = symbol_slots(_preconditioner_symbol(spec, d, dt))
    d_dev = d - float(d.mean())
    # a caller that passes d unnamed (as _newton_update does) frees it here
    del d
    b_norm = np.sqrt(inner_raw(b, b))
    basis = [b / b_norm]
    preconditioned = []
    products = []
    hess = np.zeros((GMRES_MAX_ITER + 1, GMRES_MAX_ITER))
    cs = np.zeros(GMRES_MAX_ITER)
    sn = np.zeros(GMRES_MAX_ITER)
    g = np.zeros(GMRES_MAX_ITER + 1)
    g[0] = b_norm
    k = 0
    while True:
        z = neumann_symbol_solve(basis[k], divisor)
        preconditioned.append(z)
        jz = basis[k] - laplacian_raw(spec, d_dev * z)
        products.append(jz)
        w = jz.copy()
        for i, v in enumerate(basis):
            hess[i, k] = inner_raw(w, v)
            w -= hess[i, k] * v
        h_next = np.sqrt(inner_raw(w, w))
        for i in range(k):
            hi, hj = hess[i, k], hess[i + 1, k]
            hess[i, k], hess[i + 1, k] = cs[i] * hi + sn[i] * hj, cs[i] * hj - sn[i] * hi
        rho = np.hypot(hess[k, k], h_next)
        cs[k], sn[k] = hess[k, k] / rho, h_next / rho
        hess[k, k] = rho
        g[k + 1] = -sn[k] * g[k]
        g[k] *= cs[k]
        k += 1
        if not abs(g[k]) > GMRES_FORCING * b_norm or k == GMRES_MAX_ITER:
            y = np.zeros(k)
            for i in range(k - 1, -1, -1):
                y[i] = (g[i] - inner_raw(hess[i, i + 1 : k], y[i + 1 :])) / hess[i, i]
            x = y[0] * preconditioned[0]
            r = y[0] * products[0]
            for yi, z, jz in zip(y[1:], preconditioned[1:], products[1:]):
                x += yi * z
                r += yi * jz
            r -= b
            rel = float(np.sqrt(inner_raw(r, r)) / b_norm)
            if not rel > GMRES_FORCING or k == GMRES_MAX_ITER:
                return x, k, rel
        basis.append(w / h_next)


def _scheme_mu(
    spec: GridSpec,
    pparams: PotentialParams,
    phi: np.ndarray,
    phi0: np.ndarray,
    gd: float,
    g_expl: np.ndarray,
) -> np.ndarray:
    """The scheme's chemical potential ``-lap phi + psi0'(phi) + gd (phi -
    phi0) + g_expl``, with ``gd = gamma/dt`` and the explicit lags ``g_expl``."""
    return -laplacian_raw(spec, phi) + pot.psi0_prime(phi, pparams) + gd * (phi - phi0) + g_expl


def _newton_update(
    spec: GridSpec,
    pparams: PotentialParams,
    phi: np.ndarray,
    r: np.ndarray,
    dt: float,
    gd: float,
    it: int,
) -> tuple[np.ndarray, float, float, int]:
    """Newton iteration ``it`` at ``phi`` against the residual ``r``: the
    Krylov solve of ``J delta = -r`` (:func:`_jacobian_solve`, ``d =
    psi0''(phi) + gd``) and the new iterate ``phi + s delta``.  Under the
    logarithmic potential ``s`` is the barrier scale of ``delta``
    (:func:`_barrier_scale`) and the iterate is clamped to
    ``+-``:data:`_INTERIOR_CAP`; otherwise ``s = 1``.  Returns ``(iterate,
    max|delta|, s, gmres_iterations)``; raises :class:`NewtonError` when
    GMRES stops above :data:`GMRES_ACCEPT` or at a non-finite residual."""
    # the solve against -r, to the bit (module docstring)
    delta, gmres_iters, gmres_res = _jacobian_solve(
        spec, pot.psi0_second(phi, pparams) + gd, dt, r
    )
    np.negative(delta, out=delta)
    if not gmres_res <= GMRES_ACCEPT:
        raise NewtonError(
            f"GMRES did not converge in Newton iteration {it}: relative "
            f"residual {gmres_res:.3e} (limit {GMRES_ACCEPT:.1e}) after "
            f"{gmres_iters} iterations"
        )
    barrier = pparams.variant == "logarithmic"
    s = _barrier_scale(phi, delta) if barrier else 1.0
    out = phi + s * delta
    if barrier:
        np.clip(out, -_INTERIOR_CAP, _INTERIOR_CAP, out=out)
    return out, float(np.max(np.abs(delta))), s, gmres_iters


def _recenter(phi: np.ndarray, m_target: float, pparams: PotentialParams) -> np.ndarray:
    """``phi`` shifted onto the mean ``m_target`` and, under the logarithmic
    potential, then clamped to ``+-``:data:`_INTERIOR_CAP`: the shift may
    carry a clamped cell to or past ``+-1``, where ``psi`` is undefined."""
    out = phi + (m_target - phi.mean())
    if pparams.variant == "logarithmic":
        np.clip(out, -_INTERIOR_CAP, _INTERIOR_CAP, out=out)
    return out


def _newton_solve(
    spec: GridSpec,
    pparams: PotentialParams,
    phi0: np.ndarray,
    dt: float,
    gamma: float,
    g_expl: np.ndarray,
    b_expl: np.ndarray | float,
    m_target: float,
) -> tuple[np.ndarray, int, int, int]:
    """Solve ``(phi - phi0)/dt + b_expl = lap mu`` with ``mu`` the scheme's
    chemical potential (:func:`_scheme_mu`) by :func:`_newton_update` steps
    and recenter to ``m_target`` (:func:`_recenter`).

    Each update is taken at its barrier scale as it stands: no line search
    judges it by the residual.  Stops at the residual target or once the
    update is below rounding (:data:`_UPDATE_FLOOR`), since on fine grids or
    long steps the residual's rounding floor, relative to ``|rhs|`` about
    ``eps dt max eig(lap^2)``, lies above the target.  It also stops after
    an update once the next one is sure to be below rounding: when two
    updates in a row were taken undamped and their size ratio ``theta =
    max|delta_k| / max|delta_{k-1}|`` is below 1/2, the error left after
    ``delta_k`` is at most ``theta / (1 - theta) max|delta_k|`` (Deuflhard,
    Newton Methods for Nonlinear Problems, Springer 2004), and a bound below
    the rounding floor saves the residual and the Krylov solve that would
    only find that out.  Raises :class:`NewtonError` at once when the
    residual or its target is not finite, before any Krylov solve.  Returns
    ``(phi, iterations, barrier_activations, gmres_iterations)``.
    """
    area = spec.cell_area
    gd = gamma / dt

    def norm(r: np.ndarray) -> float:
        return float(np.sqrt(area * inner_raw(r, r)))

    def residual(phi: np.ndarray) -> tuple[np.ndarray, float]:
        mu = _scheme_mu(spec, pparams, phi, phi0, gd, g_expl)
        r = (phi - phi0) / dt + b_expl - laplacian_raw(spec, mu)
        return r, norm(r)

    tol = NEWTON_TOL_FACTOR * (1.0 + norm(phi0 / dt - b_expl + laplacian_raw(spec, g_expl)))

    phi = phi0.copy()
    r, res = residual(phi)
    it = clipped = linear = 0
    prev_step = None  # max|delta| of the previous update if it was taken undamped
    # any residual meets an infinite target, so that target is refused too
    while not res <= tol or tol == np.inf:
        if not (np.isfinite(res) and np.isfinite(tol)):
            raise NewtonError(
                f"non-finite phase-field Newton residual {res:.3e} (target {tol:.3e}) "
                f"before Newton iteration {it + 1}"
            )
        if it == NEWTON_MAX_ITER:
            raise NewtonError(
                f"phase-field Newton iteration did not converge: residual {res:.3e} "
                f"(target {tol:.3e}) after {NEWTON_MAX_ITER} iterations"
            )
        it += 1
        phi_new, step, s, gmres_iters = _newton_update(spec, pparams, phi, r, dt, gd, it)
        linear += gmres_iters
        floor = _UPDATE_FLOOR * max(1.0, float(np.max(np.abs(phi))))
        if step <= floor:
            break
        if s < 1.0:
            clipped += 1
        phi = phi_new
        theta = step / prev_step if prev_step else 1.0
        if s == 1.0 and theta < 0.5 and theta / (1.0 - theta) * step <= floor:
            break
        prev_step = step if s == 1.0 else None
        r, res = residual(phi)
    return _recenter(phi, m_target, pparams), it, clipped, linear


def ch_step(
    phi: ScalarField,
    sigma: ScalarField,
    vel: MacVelocity,
    p: ModelParams,
    dt: float,
    source: ScalarField | None = None,
) -> tuple[ScalarField, ScalarField, ChdStepReport]:
    """One implicit phase-field update against the frozen velocity.

    ``source`` adds a cell forcing to the right-hand side (used by
    manufactured-solution tests).  Returns the new phase field, the
    chemical potential of the scheme (including its explicit lags) and a
    solver report.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    spec = phi.grid
    adv = advect_scalar(vel, phi).values
    g_expl = _explicit_lags(phi, sigma, p)

    src = 0.0 if source is None else source.values
    src_mean = 0.0 if source is None else float(source.values.mean())
    m_target = (float(phi.values.mean()) + dt * (src_mean + p.alpha * p.c0)) / (
        1.0 + dt * p.alpha
    )
    kappa = p.alpha * (m_target - p.c0)
    # formed inside the advection term, which is not needed on its own
    b_expl = adv
    b_expl += kappa
    b_expl -= src

    phi_new, iters, clipped, linear = _newton_solve(
        spec, p.potential, phi.values, dt, p.gamma, g_expl, b_expl, m_target
    )
    report = ChdStepReport(newton_iters=iters, linear_iters=linear, clipped_steps=clipped)

    mu_new = _scheme_mu(spec, p.potential, phi_new, phi.values, p.gamma / dt, g_expl)
    return ScalarField(spec, phi_new), ScalarField(spec, mu_new), report


def sigma_step(
    sigma: ScalarField,
    phi_new: ScalarField,
    vel: MacVelocity,
    p: ModelParams,
    dt: float,
    source: ScalarField | None = None,
) -> ScalarField:
    """Implicit diffusion of the solute with explicit transport and
    cross-diffusion against the fresh phase field.

    The Helmholtz solve is an exact cosine-transform solve; the conserved
    mean is enforced to rounding by recentering.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    spec = sigma.grid
    b = sigma.values - dt * advect_scalar(vel, sigma).values
    b -= dt * p.chi * laplacian_raw(spec, phi_new.values)
    if source is not None:
        b = b + dt * source.values

    sol = neumann_symbol_solve(b, 1.0 + dt * neumann_eigenvalues(spec))
    sol += b.mean() - sol.mean()
    return ScalarField(spec, sol)


def chd_step(
    state: SimState,
    p: ModelParams,
    dt: float,
    phi_source: ScalarField | None = None,
    sigma_source: ScalarField | None = None,
) -> tuple[SimState, ChdStepReport]:
    """Composition of :func:`ch_step` and :func:`sigma_step`.

    Advances ``phi``, ``mu``, ``sigma`` and time; the velocity and
    pressure ride along unchanged.
    """
    phi_new, mu_new, report = ch_step(
        state.phi, state.sigma, state.vel, p, dt, source=phi_source
    )
    sigma_new = sigma_step(state.sigma, phi_new, state.vel, p, dt, source=sigma_source)
    new_state = replace(
        state,
        phi=phi_new,
        mu=mu_new,
        sigma=sigma_new,
        t=state.t + dt,
        step=state.step + 1,
    )
    return new_state, report
