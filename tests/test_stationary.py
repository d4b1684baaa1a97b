"""Equilibrium solves and the algebraic decay-rate fit."""

import re

import numpy as np
import pytest

from chns import chd, stationary
from chns.chd import ModelParams, nonlocal_potential
from chns.coupled import RunConfig, ScenarioConfig, initial_state, run
from chns.diagnostics import free_energy
from chns.elliptic import SolverConfig, fluctuation_potential, neumann_eigenvalues
from chns.grid import GridSpec, ScalarField, laplacian_raw, mean
from chns.potential import PotentialParams, psi0_second, psi_prime
from chns.stationary import (
    RateFitError,
    StationaryError,
    deficit_norm,
    rate_fit,
    solve_stationary,
)

TIGHT = SolverConfig(rel_tol=1.0e-10)


def cosine_seed(spec, center, amp):
    x, y = spec.cell_centers()
    return ScalarField(
        spec, center + amp * np.cos(np.pi * x / spec.lx) * np.cos(np.pi * y / spec.ly)
    )


def test_uniform_seed_returns_immediately():
    spec = GridSpec(12, 12)
    p = ModelParams(alpha=0.5, c0=0.1)
    eq = solve_stationary(ScalarField.full(spec, 0.1), ScalarField.full(spec, 0.4), p)
    assert eq.iterations == 0
    assert eq.residual_inf <= 1.0e-15
    assert np.max(np.abs(eq.phi.values - 0.1)) <= 1.0e-14
    assert np.max(np.abs(eq.sigma.values - 0.4)) <= 1.0e-14


def test_alpha_zero_keeps_seed_mean():
    spec = GridSpec(16, 16)
    p = ModelParams(chi=0.2)
    seed = cosine_seed(spec, 0.25, 0.1)
    eq = solve_stationary(seed, ScalarField.full(spec, -0.3), p, TIGHT)
    assert eq.mean_phi == pytest.approx(mean(seed), abs=1.0e-10)
    assert eq.mean_sigma == pytest.approx(-0.3, abs=1.0e-10)


def test_stable_uniform_state_recovered():
    # at these parameters every nonuniform mode raises the energy, so the
    # perturbed seed must relax back to the constant state
    spec = GridSpec(16, 16)
    p = ModelParams(alpha=0.5, c0=0.0)
    eq = solve_stationary(cosine_seed(spec, 0.0, 0.1), ScalarField.zeros(spec), p, TIGHT)
    assert np.max(np.abs(eq.phi.values)) <= 1.0e-9


@pytest.mark.parametrize("variant", ["logarithmic", "quartic"])
def test_self_consistency_of_converged_output(variant):
    spec = GridSpec(16, 16)
    p = ModelParams(
        chi=0.2,
        alpha=0.5,
        beta=1.0,
        c0=0.0,
        potential=PotentialParams(variant, theta=1.0, theta0=2.0),
    )
    seed = cosine_seed(spec, 0.0, 0.3)
    eq = solve_stationary(seed, ScalarField.full(spec, 0.5), p, TIGHT)

    r = -laplacian_raw(spec, eq.phi.values) + psi_prime(eq.phi.values, p.potential)
    r -= p.chi * eq.sigma.values
    nphi, _ = nonlocal_potential(eq.phi)
    r += p.beta * nphi.values
    r -= r.mean()
    assert np.max(np.abs(r)) <= 2.0 * TIGHT.rel_tol * p.theta0
    assert eq.residual_inf <= TIGHT.rel_tol * p.theta0

    locked = eq.sigma.values - p.chi * eq.phi.values
    assert np.std(locked) <= 1.0e-12
    assert eq.mean_phi == pytest.approx(0.0, abs=1.0e-10)
    assert eq.mean_sigma == pytest.approx(0.5, abs=1.0e-10)
    assert np.max(np.abs(eq.phi.values)) < 1.0
    assert eq.free_energy_value == pytest.approx(free_energy(eq.phi, eq.sigma, p), rel=1.0e-12)


def test_energy_not_increased_from_run_end():
    cfg = RunConfig(
        grid=GridSpec(16, 16),
        params=ModelParams(chi=0.2, alpha=0.5, beta=1.0),
        dt=0.02,
        t_end=2.0,
        seed=12,
    )
    state, _ = run(cfg)
    eq = solve_stationary(state.phi, state.sigma, cfg.params, cfg.solver)
    f_end = free_energy(state.phi, state.sigma, cfg.params)
    assert eq.free_energy_value <= f_end + 1.0e-8


def test_spinodal_128_seed_3_converges():
    # this seed once ended in a NewtonError at the inner Newton target's
    # rounding floor
    cfg = RunConfig(
        grid=GridSpec(128, 128),
        params=ModelParams(chi=0.2, alpha=0.5, beta=1.0),
        t_end=0.0,
        seed=3,
    )
    state, _ = run(cfg)
    eq = solve_stationary(state.phi, state.sigma, cfg.params, cfg.solver)
    assert eq.residual_inf <= cfg.solver.rel_tol * cfg.params.theta0
    assert eq.mean_phi == pytest.approx(0.0, abs=1.0e-12)
    assert np.max(np.abs(eq.phi.values)) < 1.0


def test_stalled_gradient_flow_fails_fast():
    # uniform equilibria are reachable far below the default target
    for beta in (1.0, 0.0):
        cfg = RunConfig(
            grid=GridSpec(16, 16), params=ModelParams(chi=0.2, alpha=0.5, beta=beta), seed=1
        )
        state = initial_state(cfg)
        eq = solve_stationary(state.phi, state.sigma, cfg.params, SolverConfig(rel_tol=1.0e-14))
        assert eq.residual_inf <= 2.0e-14
    # a droplet on a 10 x 10 box relaxes to a nonuniform equilibrium whose
    # residual floors at about 1e-14 after 7 pseudo-steps; below that floor
    # the solve stops instead of idling for MAX_FLOW_ITER pseudo-steps
    cfg = RunConfig(
        grid=GridSpec(32, 32, 10.0, 10.0),
        params=ModelParams(chi=0.2, alpha=0.5, beta=0.0),
        scenario=ScenarioConfig(name="droplet", width=1.0),
    )
    state = initial_state(cfg)
    with pytest.raises(StationaryError, match="stalled") as err:
        solve_stationary(state.phi, state.sigma, cfg.params, SolverConfig(rel_tol=1.0e-16))
    message = str(err.value)
    assert int(re.search(r"pseudo-step (\d+):", message).group(1)) < 20
    named = re.match(r"stationary residual (\S+) above target 2\.000e-16", message)
    assert float(named[1]) > 2.0e-16


def recomputed_residual(eq, p):
    """Max norm of the zero-mean equilibrium residual of ``eq``, from
    ``psi_prime`` and ``fluctuation_potential`` rather than the scheme's
    ``mu``, as ``perfbench/child.py`` checks a written equilibrium."""
    phi = eq.phi.values
    r = -laplacian_raw(eq.phi.grid, phi) + psi_prime(phi, p.potential) - p.chi * eq.sigma.values
    if p.beta != 0.0:
        r += p.beta * fluctuation_potential(eq.phi).values
    return float(np.max(np.abs(r - r.mean())))


def record_newton_solves(monkeypatch):
    """Patch ``stationary._newton_solve`` to keep each call's ``(args,
    kwargs, result)``."""
    calls = []
    newton = stationary._newton_solve

    def recorded(*args, **kwargs):
        result = newton(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(stationary, "_newton_solve", recorded)
    return calls


@pytest.mark.parametrize("beta, pseudo_steps", [(1.0, 2), (0.0, 4)])
def test_pseudo_transient_continuation(monkeypatch, beta, pseudo_steps):
    # one Newton update per pseudo-step, each with a positive preconditioner
    # symbol, the accepted energy never up, and the spinodal seed at
    # equilibrium in a handful of pseudo-steps (14 with a converged
    # semi-implicit step)
    cfg = RunConfig(
        grid=GridSpec(32, 32), params=ModelParams(chi=0.2, alpha=0.5, beta=beta), seed=1
    )
    p = cfg.params
    state = initial_state(cfg)
    calls = record_newton_solves(monkeypatch)
    eq = solve_stationary(state.phi, state.sigma, p, cfg.solver)

    assert eq.iterations == len(calls) == pseudo_steps
    assert all(result[1] == 1 for _, _, result in calls)
    lam = neumann_eigenvalues(state.phi.grid)
    for args, _, _ in calls:
        mean_d = float(np.mean(psi0_second(args[2], p.potential))) + args[4]
        assert np.min(1.0 / args[3] + lam * (lam + mean_d)) > 0.0
    # each call starts from the last accepted iterate
    accepted = [args[2] for args, _, _ in calls] + [eq.phi.values]
    energies = [stationary._evaluate(phi, state.phi.grid, p, 0.0)[0] for phi in accepted]
    assert np.all(np.diff(energies) <= 1.0e-14)
    target = cfg.solver.rel_tol * p.theta0
    assert eq.residual_inf <= target
    assert recomputed_residual(eq, p) <= target


def test_newton_reuses_the_residual_chemical_potential(monkeypatch):
    # the pseudo-step takes the residual check's mu; the coupled Newton
    # loop, which evaluates mu afresh, takes the same first update bit for
    # bit on the pseudo-step's implicit step (gamma = -theta_eff dtau, beta
    # N explicit)
    cfg = RunConfig(grid=GridSpec(24, 24), params=ModelParams(chi=0.2, alpha=0.5, beta=1.0))
    p = cfg.params
    state = initial_state(cfg)
    calls = record_newton_solves(monkeypatch)
    solve_stationary(state.phi, state.sigma, p, cfg.solver)
    (spec, pparams, phi, dtau, _, _, m_target), _, pseudo = calls[0]

    updates = []
    update = chd._newton_update

    def recorded(*args):
        updates.append(update(*args))
        return updates[-1]

    monkeypatch.setattr(chd, "_newton_update", recorded)
    theta_eff = p.theta0 + p.chi**2
    sigma_const = mean(state.sigma) - p.chi * m_target
    nphi = nonlocal_potential(ScalarField(spec, phi))[0].values
    g_expl = -theta_eff * phi - p.chi * sigma_const + p.beta * nphi
    chd._newton_solve(spec, pparams, phi, dtau, -theta_eff * dtau, g_expl, 0.0, m_target)
    first = updates[0][0]
    assert np.array_equal(pseudo[0], first + (m_target - first.mean()))


def test_large_box_droplet_converges_instead_of_freezing():
    # on a 10 x 10 box the area-weighted Newton target is looser than the
    # max-norm stationary target: with a semi-implicit pseudo-step the
    # residual froze at 2.389e-10 (target 2e-10) at pseudo-step 40
    cfg = RunConfig(
        grid=GridSpec(48, 48, 10.0, 10.0),
        params=ModelParams(chi=0.2, alpha=0.5, beta=1.0),
        dt=0.05,
        t_end=10.0,
        scenario=ScenarioConfig(name="droplet", width=1.0),
    )
    state, _ = run(cfg)
    eq = solve_stationary(state.phi, state.sigma, cfg.params, cfg.solver)
    target = cfg.solver.rel_tol * cfg.params.theta0
    assert eq.iterations <= 10
    assert eq.residual_inf <= target
    assert recomputed_residual(eq, cfg.params) <= target
    assert eq.mean_phi == pytest.approx(0.0, abs=1.0e-12)
    # beta = 1 is above Oono's a^2/4 with a = theta0 - theta + chi^2, so
    # every nonuniform mode decays and the droplet dissolves
    assert np.max(np.abs(eq.phi.values)) <= 1.0e-9


def test_large_box_spinodal_separates_through_a_rejected_pseudo_step(monkeypatch):
    # on a 10 x 10 box the unstable modes have lam < |mean d|: without the
    # 4 / (mean d)^2 cap the third pseudo-step lands on the uniform critical
    # point, whose reduced energy is 100; with it one pseudo-step raises the
    # energy and is taken again at a quarter of its dtau
    cfg = RunConfig(
        grid=GridSpec(48, 48, 10.0, 10.0),
        params=ModelParams(chi=0.2, alpha=0.5, beta=0.2),
        seed=4,
    )
    state = initial_state(cfg)
    calls = record_newton_solves(monkeypatch)
    eq = solve_stationary(state.phi, state.sigma, cfg.params, cfg.solver)

    assert eq.iterations == len(calls) <= 40
    retried = [
        i for i in range(1, len(calls)) if np.array_equal(calls[i][0][2], calls[i - 1][0][2])
    ]
    assert len(retried) == 1
    assert calls[retried[0]][0][3] == 0.25 * calls[retried[0] - 1][0][3]
    assert eq.free_energy_value < 99.5
    assert np.max(np.abs(eq.phi.values)) > 0.5
    target = cfg.solver.rel_tol * cfg.params.theta0
    assert eq.residual_inf <= target
    assert recomputed_residual(eq, cfg.params) <= target


def test_collapsed_pseudo_step_reports(monkeypatch):
    # an energy check no pseudo-step passes cuts dtau by 4 until it collapses
    monkeypatch.setattr(stationary, "ENERGY_ROUNDING", -1.0)
    spec = GridSpec(16, 16)
    p = ModelParams(chi=0.2, alpha=0.5)
    calls = record_newton_solves(monkeypatch)
    with pytest.raises(StationaryError, match="pseudo-step collapsed"):
        solve_stationary(cosine_seed(spec, 0.0, 0.4), ScalarField.zeros(spec), p)
    dtaus = [args[3] for args, _, _ in calls]
    assert dtaus[-1] < 4.0e-12
    assert all(b == 0.25 * a for a, b in zip(dtaus, dtaus[1:]))


def test_reduced_energy_is_the_free_energy_on_the_locked_solute():
    # sigma = chi phi + c turns the solute terms into -chi^2 phi^2 / 2
    # plus the constant c^2 |Omega| / 2; the same evaluation's mu is the
    # chemical potential on that solute
    spec = GridSpec(12, 7, 1.3, 0.6)
    p = ModelParams(
        chi=0.7, beta=0.8, potential=PotentialParams("logarithmic", theta=1.0, theta0=2.0)
    )
    phi = cosine_seed(spec, 0.1, 0.6)
    c = 0.35
    sigma = ScalarField(spec, p.chi * phi.values + c)
    want = free_energy(phi, sigma, p) - 0.5 * c**2 * spec.lx * spec.ly
    got, mu, res_inf = stationary._evaluate(phi.values, spec, p, c)
    assert got == pytest.approx(want, rel=1.0e-12)
    want_mu = chd.chemical_potential(phi, sigma, p).values
    assert np.max(np.abs(mu - want_mu)) <= 1.0e-12 * np.max(np.abs(want_mu))
    assert res_inf == np.max(np.abs(mu - mu.mean()))


def test_stationary_non_convergence_reports(monkeypatch):
    spec = GridSpec(16, 16)
    p = ModelParams(chi=0.2, beta=1.0)
    monkeypatch.setattr(stationary, "MAX_FLOW_ITER", 1)
    with pytest.raises(StationaryError, match="gradient-flow iterations"):
        solve_stationary(cosine_seed(spec, 0.0, 0.4), ScalarField.zeros(spec), p)


def test_deficit_norm_constant_difference():
    spec = GridSpec(8, 8, 2.0, 0.5)
    a = ScalarField.full(spec, 0.7)
    b = ScalarField.full(spec, 0.2)
    assert deficit_norm(a, b) == pytest.approx(0.5 * np.sqrt(2.0 * 0.5), rel=1.0e-14)
    assert deficit_norm(a, a) == 0.0


def test_rate_fit_exact_exponent_map():
    t = np.linspace(0.0, 40.0, 200)
    fit = rate_fit(t, (1.0 + t) ** -1.0)
    assert fit.slope == pytest.approx(-1.0, abs=1.0e-10)
    assert fit.kappa_hat == pytest.approx(1.0 / 3.0, abs=1.0e-10)
    assert fit.r_squared > 1.0 - 1.0e-12
    assert not fit.flagged

    fit = rate_fit(t, (1.0 + t) ** -0.5)
    assert fit.kappa_hat == pytest.approx(0.25, abs=1.0e-10)


def test_rate_fit_flags_exponential_decay():
    t = np.linspace(0.0, 20.0, 100)
    fit = rate_fit(t, np.exp(-3.0 * t))
    assert fit.flagged
    assert fit.kappa_hat >= 0.45
    assert "boundary" in fit.reason
    # a monotone staircase is far from a power law
    fit = rate_fit(t, np.where(t < 15.0, 1.0, 0.5))
    assert fit.flagged
    assert fit.kappa_hat < 0.45
    assert fit.r_squared < 0.98 and "r^2" in fit.reason


def test_rate_fit_refusals():
    t = np.linspace(0.0, 10.0, 50)
    bumpy = (1.0 + t) ** -1.0
    bumpy[-5] *= 1.5
    with pytest.raises(RateFitError, match="not monotone"):
        rate_fit(t, bumpy)
    with pytest.raises(RateFitError, match="strictly positive"):
        rate_fit(t, np.linspace(1.0, -0.5, 50))
    with pytest.raises(RateFitError, match="at least 3"):
        rate_fit(np.array([0.0, 1.0]), np.array([1.0, 0.5]))
    with pytest.raises(RateFitError, match="not negative"):
        rate_fit(t, np.full(50, 2.5))
    with pytest.raises(ValueError, match="matching"):
        rate_fit(t, np.ones(10))
