"""Equilibrium solves and the algebraic decay-rate fit."""

import numpy as np
import pytest

from chns.chd import ModelParams, nonlocal_potential
from chns.coupled import RunConfig, run
from chns.diagnostics import free_energy
from chns.elliptic import SolverConfig
from chns.grid import GridSpec, ScalarField, laplacian_raw, mean
from chns.potential import PotentialParams, psi_prime
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


def test_stationary_non_convergence_reports():
    spec = GridSpec(16, 16)
    p = ModelParams(chi=0.2, beta=1.0)
    with pytest.raises(StationaryError, match="gradient-flow iterations"):
        solve_stationary(
            cosine_seed(spec, 0.0, 0.4), ScalarField.zeros(spec), p, max_iter=1
        )


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
