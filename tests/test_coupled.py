"""Full-step orchestration: step ordering, CFL control, scenarios, run
semantics, and a dense cross-check of one coupled step."""

from types import SimpleNamespace

import numpy as np
import pytest
from conftest import dense_advection_matrix, dense_neumann_laplacian
from hypothesis import given, settings
from hypothesis import strategies as st

from chns.chd import ModelParams, chd_step
from chns.cli import _mass_laws_hold
from chns.coupled import (
    RunConfig,
    ScenarioConfig,
    _seeded_noise,
    cfl_dt,
    coupled_step,
    initial_state,
    run,
)
from chns.diagnostics import mass_check
from chns.grid import GridSpec, MacVelocity, ScalarField, div_raw, mean
from chns.hydro import ns_step
from chns.potential import PotentialParams, psi0_prime, psi0_second
from chns.state import SimState


def uniform_state(spec, c0, sigma_mean, p):
    from chns.chd import chemical_potential

    phi = ScalarField.full(spec, c0)
    sigma = ScalarField.full(spec, sigma_mean)
    return SimState(
        vel=MacVelocity.zeros(spec),
        phi=phi,
        mu=chemical_potential(phi, sigma, p),
        sigma=sigma,
        pressure=ScalarField.zeros(spec),
        t=0.0,
        step=0,
    )


def test_rest_state_is_fixed_point():
    spec = GridSpec(8, 8)
    p = ModelParams(chi=0.4, alpha=0.6, beta=1.1, c0=0.2)
    state = uniform_state(spec, 0.2, -0.5, p)
    out, _ = coupled_step(state, p, 0.05)
    assert np.max(np.abs(out.phi.values - 0.2)) <= 1.0e-13
    assert np.max(np.abs(out.sigma.values + 0.5)) <= 1.0e-13
    assert out.vel.max_abs() <= 1.0e-12
    assert np.max(np.abs(out.pressure.values)) <= 1.0e-12


def test_cfl_dt_arithmetic():
    spec = GridSpec(10, 10)
    assert cfl_dt(MacVelocity.zeros(spec), 0.3, 0.5) == 0.3
    # a fluid at rest sets no bound, however long the base step
    assert cfl_dt(MacVelocity.zeros(spec), 1.0e12, 0.5) == 1.0e12
    u = np.zeros((11, 10))
    u[5, 3] = 2.0
    vel = MacVelocity(spec, u, np.zeros((10, 11)))
    assert cfl_dt(vel, 1.0, 0.5) == pytest.approx(0.025)
    assert cfl_dt(vel, 0.01, 0.5) == 0.01
    assert cfl_dt(vel, 1.0, 0.25) < cfl_dt(vel, 1.0, 0.5)


def test_coupled_step_is_the_advertised_composition(rng):
    spec = GridSpec(8, 8)
    p = ModelParams(chi=0.3, alpha=0.2, beta=0.7)
    state = uniform_state(spec, 0.0, 0.0, p)
    state.phi = ScalarField(spec, 0.3 * rng.uniform(-1.0, 1.0, (8, 8)))
    state.sigma = ScalarField(spec, 0.2 * rng.uniform(-1.0, 1.0, (8, 8)))
    dt = 0.01
    out, _ = coupled_step(state, p, dt)
    mid, _ = chd_step(state, p, dt)
    vel_new, pressure, _ = ns_step(state.vel, mid.phi, mid.mu, mid.sigma, p, dt)
    assert np.array_equal(out.phi.values, mid.phi.values)
    assert np.array_equal(out.sigma.values, mid.sigma.values)
    assert np.array_equal(out.vel.u, vel_new.u)
    assert np.array_equal(out.pressure.values, pressure.values)


# ---------------------------------------------------------------------------
# dense single-step oracle, couplings off (chi = beta = alpha = 0)

def lap_u_oracle(spec, u):
    out = np.zeros_like(u)
    for i in range(1, spec.nx):
        for j in range(spec.ny):
            out[i, j] = (u[i + 1, j] - 2.0 * u[i, j] + u[i - 1, j]) / spec.hx**2
            up = -u[i, j] if j == spec.ny - 1 else u[i, j + 1]
            dn = -u[i, j] if j == 0 else u[i, j - 1]
            out[i, j] += (up - 2.0 * u[i, j] + dn) / spec.hy**2
    return out


def lap_v_oracle(spec, v):
    out = np.zeros_like(v)
    for i in range(spec.nx):
        for j in range(1, spec.ny):
            out[i, j] = (v[i, j + 1] - 2.0 * v[i, j] + v[i, j - 1]) / spec.hy**2
            rt = -v[i, j] if i == spec.nx - 1 else v[i + 1, j]
            lf = -v[i, j] if i == 0 else v[i - 1, j]
            out[i, j] += (rt - 2.0 * v[i, j] + lf) / spec.hx**2
    return out


def advect_momentum_oracle(spec, u, v):
    adv_u = np.zeros_like(u)
    for i in range(1, spec.nx):
        for j in range(spec.ny):
            ue = 0.5 * (u[i + 1, j] + u[i, j])
            uw = 0.5 * (u[i, j] + u[i - 1, j])
            fn = 0.0
            if j + 1 < spec.ny:
                fn = 0.5 * (v[i, j + 1] + v[i - 1, j + 1]) * 0.5 * (u[i, j + 1] + u[i, j])
            fs = 0.0
            if j > 0:
                fs = 0.5 * (v[i, j] + v[i - 1, j]) * 0.5 * (u[i, j] + u[i, j - 1])
            adv_u[i, j] = (ue * ue - uw * uw) / spec.hx + (fn - fs) / spec.hy
    adv_v = np.zeros_like(v)
    for i in range(spec.nx):
        for j in range(1, spec.ny):
            vn = 0.5 * (v[i, j + 1] + v[i, j])
            vs = 0.5 * (v[i, j] + v[i, j - 1])
            fe = 0.0
            if i + 1 < spec.nx:
                fe = 0.5 * (u[i + 1, j] + u[i + 1, j - 1]) * 0.5 * (v[i + 1, j] + v[i, j])
            fw = 0.0
            if i > 0:
                fw = 0.5 * (u[i, j] + u[i, j - 1]) * 0.5 * (v[i, j] + v[i - 1, j])
            adv_v[i, j] = (vn * vn - vs * vs) / spec.hy + (fe - fw) / spec.hx
    return adv_u, adv_v


def stress_div_oracle(spec, u, v, nu):
    def nu_corner(ic, jc):
        cells = []
        for di in (-1, 0):
            for dj in (-1, 0):
                cells.append(nu[min(max(ic + di, 0), spec.nx - 1),
                                min(max(jc + dj, 0), spec.ny - 1)])
        return 0.25 * sum(cells)

    def shear(ic, jc):
        if jc == 0:
            dudy = 2.0 * u[ic, 0] / spec.hy
        elif jc == spec.ny:
            dudy = -2.0 * u[ic, -1] / spec.hy
        else:
            dudy = (u[ic, jc] - u[ic, jc - 1]) / spec.hy
        if ic == 0:
            dvdx = 2.0 * v[0, jc] / spec.hx
        elif ic == spec.nx:
            dvdx = -2.0 * v[-1, jc] / spec.hx
        else:
            dvdx = (v[ic, jc] - v[ic - 1, jc]) / spec.hx
        return dudy + dvdx

    txx = 2.0 * nu * (u[1:, :] - u[:-1, :]) / spec.hx
    tyy = 2.0 * nu * (v[:, 1:] - v[:, :-1]) / spec.hy
    fu = np.zeros_like(u)
    for i in range(1, spec.nx):
        for j in range(spec.ny):
            tau_n = nu_corner(i, j + 1) * shear(i, j + 1)
            tau_s = nu_corner(i, j) * shear(i, j)
            fu[i, j] = (txx[i, j] - txx[i - 1, j]) / spec.hx + (tau_n - tau_s) / spec.hy
    fv = np.zeros_like(v)
    for i in range(spec.nx):
        for j in range(1, spec.ny):
            tau_e = nu_corner(i + 1, j) * shear(i + 1, j)
            tau_w = nu_corner(i, j) * shear(i, j)
            fv[i, j] = (tyy[i, j] - tyy[i, j - 1]) / spec.hy + (tau_e - tau_w) / spec.hx
    return fu, fv


def force_oracle(spec, phi, mu):
    fu = np.zeros((spec.nx + 1, spec.ny))
    fv = np.zeros((spec.nx, spec.ny + 1))
    for i in range(1, spec.nx):
        for j in range(spec.ny):
            fu[i, j] = 0.5 * (mu[i, j] + mu[i - 1, j]) * (phi[i, j] - phi[i - 1, j]) / spec.hx
    for i in range(spec.nx):
        for j in range(1, spec.ny):
            fv[i, j] = 0.5 * (mu[i, j] + mu[i, j - 1]) * (phi[i, j] - phi[i, j - 1]) / spec.hy
    return fu, fv


def helmholtz_solve_oracle(apply_op, rhs, interior_mask):
    n = rhs.size
    mat = np.zeros((n, n))
    basis = np.zeros_like(rhs)
    flat_mask = interior_mask.reshape(-1)
    for k in range(n):
        basis.reshape(-1)[k] = 1.0
        col = basis - apply_op(basis)
        col.reshape(-1)[~flat_mask] = basis.reshape(-1)[~flat_mask]
        mat[:, k] = col.reshape(-1)
        basis.reshape(-1)[k] = 0.0
    return np.linalg.solve(mat, rhs.reshape(-1)).reshape(rhs.shape)


def model_h_oracle_step(spec, pparams, theta0, nu1, nu2, vel, phi0, sigma0, dt):
    lap = dense_neumann_laplacian(spec)
    n = spec.nx * spec.ny
    flat0 = phi0.reshape(-1)
    adv_phi = dense_advection_matrix(spec, vel) @ flat0
    g_expl = -theta0 * flat0

    phi = flat0.copy()
    mu = np.zeros(n)
    for _ in range(60):
        f1 = (phi - flat0) / dt + adv_phi - lap @ mu
        f2 = mu + lap @ phi - psi0_prime(phi, pparams) - g_expl
        if max(np.max(np.abs(f1)), np.max(np.abs(f2))) < 1.0e-13:
            break
        jac = np.block(
            [
                [np.eye(n) / dt, -lap],
                [lap - np.diag(psi0_second(phi, pparams)), np.eye(n)],
            ]
        )
        dz = np.linalg.solve(jac, -np.concatenate([f1, f2]))
        phi = phi + dz[:n]
        mu = mu + dz[n:]

    rhs_s = sigma0.reshape(-1) - dt * (dense_advection_matrix(spec, vel) @ sigma0.reshape(-1))
    sigma = np.linalg.solve(np.eye(n) - dt * lap, rhs_s)

    phi2 = phi.reshape(phi0.shape)
    mu2 = mu.reshape(phi0.shape)
    nu = np.clip(phi2, -1.0, 1.0)
    nu = 0.5 * nu1 * (1.0 + nu) + 0.5 * nu2 * (1.0 - nu)
    nu_floor = min(nu1, nu2)
    adv_u, adv_v = advect_momentum_oracle(spec, vel.u, vel.v)
    visc_u, visc_v = stress_div_oracle(spec, vel.u, vel.v, nu)
    force_u, force_v = force_oracle(spec, phi2, mu2)
    rhs_u = vel.u + dt * (-adv_u + visc_u - nu_floor * lap_u_oracle(spec, vel.u) + force_u)
    rhs_v = vel.v + dt * (-adv_v + visc_v - nu_floor * lap_v_oracle(spec, vel.v) + force_v)
    rhs_u[0, :] = rhs_u[-1, :] = 0.0
    rhs_v[:, 0] = rhs_v[:, -1] = 0.0

    mask_u = np.zeros_like(rhs_u, dtype=bool)
    mask_u[1:-1, :] = True
    u_star = helmholtz_solve_oracle(
        lambda x: dt * nu_floor * lap_u_oracle(spec, x), rhs_u, mask_u
    )
    mask_v = np.zeros_like(rhs_v, dtype=bool)
    mask_v[:, 1:-1] = True
    v_star = helmholtz_solve_oracle(
        lambda x: dt * nu_floor * lap_v_oracle(spec, x), rhs_v, mask_v
    )

    d = div_raw(spec, u_star, v_star) / dt
    d -= d.mean()
    aug = np.vstack([lap, np.ones((1, n))])
    q = np.linalg.lstsq(aug, np.concatenate([d.reshape(-1), [0.0]]), rcond=None)[0]
    q2 = q.reshape(phi0.shape)
    u_new = u_star.copy()
    v_new = v_star.copy()
    u_new[1:-1, :] -= dt * (q2[1:, :] - q2[:-1, :]) / spec.hx
    v_new[:, 1:-1] -= dt * (q2[:, 1:] - q2[:, :-1]) / spec.hy
    return phi2, mu2, sigma.reshape(phi0.shape), u_new, v_new, q2


def check_model_h_step(rng, spec, nu1, nu2, dt):
    """One coupled step from a random phase and solute field under a
    stream-function flow, against the dense oracle step."""
    pparams = PotentialParams("quartic", theta=1.0, theta0=2.0)
    p = ModelParams(nu1=nu1, nu2=nu2, potential=pparams)
    xc, yc = spec.corner_coords()
    psi = 0.3 / np.pi * np.sin(np.pi * xc / spec.lx) * np.sin(np.pi * yc / spec.ly)
    psi[0, :] = psi[-1, :] = 0.0
    psi[:, 0] = psi[:, -1] = 0.0
    vel = MacVelocity.from_stream(spec, psi)
    shape = (spec.nx, spec.ny)
    phi0 = 0.4 * rng.uniform(-1.0, 1.0, shape)
    sigma0 = 0.5 * rng.uniform(-1.0, 1.0, shape)

    state = SimState(
        vel=vel,
        phi=ScalarField(spec, phi0),
        mu=ScalarField.zeros(spec),
        sigma=ScalarField(spec, sigma0),
        pressure=ScalarField.zeros(spec),
        t=0.0,
        step=0,
    )
    out, _ = coupled_step(state, p, dt)
    phi_o, mu_o, sigma_o, u_o, v_o, q_o = model_h_oracle_step(
        spec, pparams, pparams.theta0, p.nu1, p.nu2, vel, phi0, sigma0, dt
    )
    assert np.max(np.abs(out.phi.values - phi_o)) <= 1.0e-8
    assert np.max(np.abs(out.mu.values - mu_o)) <= 1.0e-8
    assert np.max(np.abs(out.sigma.values - sigma_o)) <= 1.0e-8
    assert np.max(np.abs(out.vel.u - u_o)) <= 1.0e-8
    assert np.max(np.abs(out.vel.v - v_o)) <= 1.0e-8
    assert np.max(np.abs(out.pressure.values - q_o)) <= 1.0e-8


def test_model_h_step_matches_dense_oracle(rng):
    check_model_h_step(rng, GridSpec(8, 8), nu1=0.05, nu2=0.15, dt=0.01)


def test_model_h_step_matches_dense_oracle_under_stiff_viscous_floor(rng):
    # dt nu_floor / h^2 is about 2.2, so the implicit floor dominates the
    # predictor, on non-square cells of a non-square box
    check_model_h_step(rng, GridSpec(8, 6, 1.3, 0.9), nu1=1.0, nu2=3.0, dt=0.05)


# ---------------------------------------------------------------------------
# run semantics

def test_run_zero_horizon_returns_initial_state():
    cfg = RunConfig(grid=GridSpec(8, 8), t_end=0.0, seed=4)
    state, rows = run(cfg)
    assert state.step == 0 and state.t == 0.0
    assert len(rows) == 1
    assert rows[0].bel_residual == 0.0


def test_run_determinism():
    cfg = RunConfig(
        grid=GridSpec(12, 12),
        params=ModelParams(chi=0.2, alpha=0.3, beta=0.5),
        dt=0.01,
        t_end=0.05,
        seed=9,
    )
    state_a, rows_a = run(cfg)
    state_b, rows_b = run(cfg)
    assert np.array_equal(state_a.phi.values, state_b.phi.values)
    assert np.array_equal(state_a.vel.u, state_b.vel.u)
    for ra, rb in zip(rows_a, rows_b):
        assert ra == rb


def test_run_seed_changes_trajectory():
    base = dict(grid=GridSpec(12, 12), dt=0.01, t_end=0.03)
    _, rows_a = run(RunConfig(seed=1, **base))
    _, rows_b = run(RunConfig(seed=2, **base))
    assert rows_a[-1].free_energy != rows_b[-1].free_energy


def test_record_cadence():
    cfg = RunConfig(grid=GridSpec(8, 8), dt=0.01, t_end=0.05, cadence=2, seed=1)
    seen = []
    _, rows = run(cfg, on_record=lambda s: seen.append(s.step))
    assert seen == [0, 2, 4, 5]
    assert len(rows) == 6
    seen = []
    run(RunConfig(grid=GridSpec(8, 8), dt=0.01, t_end=0.05, cadence=0, seed=1),
        on_record=lambda s: seen.append(s.step))
    assert seen == [0, 5]


def test_final_partial_step_lands_on_t_end():
    cfg = RunConfig(grid=GridSpec(8, 8), dt=0.04, t_end=0.1, seed=2)
    state, rows = run(cfg)
    assert state.t == pytest.approx(0.1, abs=1.0e-12)
    assert state.step == 3


@pytest.mark.parametrize("n, dt, steps", [(256, 1.0e-3, 1), (128, 0.02, 4)])
def test_newton_stops_at_the_rounding_floor(n, dt, steps):
    # the residual's rounding floor lies above the fixed Newton target on
    # these grids and steps; Newton stops once its update is below rounding
    cfg = RunConfig(
        grid=GridSpec(n, n),
        params=ModelParams(chi=0.2, alpha=0.5, beta=1.0),
        dt=dt,
        t_end=steps * dt,
        seed=1,
    )
    state, rows = run(cfg)
    assert state.step == steps
    assert all(r.newton_iters <= 3 for r in rows[1:])
    assert _mass_laws_hold(mass_check(rows, cfg.params))
    assert np.all(np.diff([r.total_energy for r in rows]) <= 0.0)
    assert np.max(np.abs(state.phi.values)) < 1.0


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    n=st.integers(8, 12),
    seed=st.integers(0, 2**32 - 1),
    chi=st.floats(0.0, 1.0),
    alpha=st.floats(0.0, 5.0),
    beta=st.floats(0.0, 2.0),
    c0=st.floats(-0.9, 0.9),
    flow=st.floats(0.0, 0.05),
    dt=st.floats(1.0e-3, 0.05),
)
def test_random_admissible_states_keep_mass_laws_and_phase_bound(
    n, seed, chi, alpha, beta, c0, flow, dt
):
    spec = GridSpec(n, n)
    p = ModelParams(chi=chi, alpha=alpha, beta=beta, c0=c0)
    rng = np.random.default_rng(seed)
    psi = np.zeros((n + 1, n + 1))
    psi[1:-1, 1:-1] = flow * rng.uniform(-1.0, 1.0, (n - 1, n - 1))
    state = uniform_state(spec, 0.0, 0.0, p)
    state.vel = MacVelocity.from_stream(spec, psi)
    state.phi = ScalarField(spec, 0.9 * rng.uniform(-1.0, 1.0, (n, n)))
    state.sigma = ScalarField(spec, rng.uniform(-1.0, 1.0, (n, n)))

    def row(s):
        return SimpleNamespace(t=s.t, mean_phi=mean(s.phi), mean_sigma=mean(s.sigma))

    rows = [row(state)]
    for _ in range(3):
        state, _ = coupled_step(state, p, dt)
        rows.append(row(state))
        assert np.max(np.abs(state.phi.values)) < 1.0
    assert _mass_laws_hold(mass_check(rows, p))


def test_spinodal_alpha_zero_energy_monotone():
    cfg = RunConfig(
        grid=GridSpec(16, 16),
        params=ModelParams(chi=0.1, beta=0.5),
        dt=2.0e-3,
        t_end=0.1,
        seed=3,
    )
    _, rows = run(cfg)
    total = np.array([r.total_energy for r in rows])
    resid = np.array([r.bel_residual for r in rows])
    assert np.all(np.diff(total) <= np.abs(resid[1:]) + 1.0e-15)
    assert np.max(np.abs(resid)) <= 0.5 * cfg.dt


def test_drift_scenario_bypasses_flow():
    cfg = RunConfig(
        grid=GridSpec(12, 12),
        params=ModelParams(chi=0.2, alpha=0.4),
        dt=0.01,
        t_end=0.05,
        scenario=ScenarioConfig(name="drift", drift_strength=0.3),
        seed=5,
    )
    init = initial_state(cfg)
    state, rows = run(cfg)
    assert np.array_equal(state.vel.u, init.vel.u)
    assert np.array_equal(state.vel.v, init.vel.v)
    assert np.all(state.pressure.values == 0.0)
    assert init.vel.max_abs() > 0.0
    assert np.max(np.abs(div_raw(cfg.grid, init.vel.u, init.vel.v))) <= 1.0e-13


# ---------------------------------------------------------------------------
# scenario initial data

def test_seeded_noise_shape():
    spec = GridSpec(24, 24)
    rng_a = np.random.default_rng(13)
    w = _seeded_noise(rng_a, spec)
    assert np.max(np.abs(w)) == 1.0
    assert abs(w.mean()) <= 1.0e-13
    again = _seeded_noise(np.random.default_rng(13), spec)
    assert np.array_equal(w, again)


def test_spinodal_initial_state():
    cfg = RunConfig(
        grid=GridSpec(16, 16),
        params=ModelParams(c0=0.3),
        scenario=ScenarioConfig(amplitude=0.05, sigma_mean=0.7),
        seed=11,
    )
    state = initial_state(cfg)
    assert np.max(np.abs(state.phi.values - 0.3)) <= 0.05 + 1.0e-15
    assert np.max(np.abs(state.phi.values)) <= 1.0 - 1.0e-3
    assert mean(state.sigma) == pytest.approx(0.7, abs=1.0e-14)
    assert state.vel.max_abs() == 0.0


def test_droplet_initial_state():
    cfg = RunConfig(
        grid=GridSpec(32, 32),
        scenario=ScenarioConfig(name="droplet", radius=0.25, width=0.05),
    )
    state = initial_state(cfg)
    vals = state.phi.values
    assert vals[16, 16] > 0.9
    assert vals[0, 0] < -0.9
    assert np.max(np.abs(vals)) <= 1.0 - 1.0e-3


def test_scenario_validation():
    with pytest.raises(ValueError, match="unknown scenario"):
        ScenarioConfig(name="vortex")
    with pytest.raises(ValueError, match="amplitude"):
        ScenarioConfig(amplitude=-0.1)
    with pytest.raises(ValueError, match="width"):
        ScenarioConfig(name="droplet", width=0.0)


def test_run_config_validation():
    grid = GridSpec(8, 8)
    with pytest.raises(ValueError, match="dt"):
        RunConfig(grid=grid, dt=0.0)
    with pytest.raises(ValueError, match="t_end"):
        RunConfig(grid=grid, t_end=-1.0)
    with pytest.raises(ValueError, match="cfl_safety"):
        RunConfig(grid=grid, cfl_safety=1.5)
    with pytest.raises(ValueError, match="cadence"):
        RunConfig(grid=grid, cadence=-1)
