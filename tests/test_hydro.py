"""Flow-step contracts: viscosity interpolation, capillary forcing,
projection, and the kinetic-energy balance."""

import numpy as np
import pytest

from chns.chd import ModelParams
from chns.grid import (
    GridSpec,
    MacVelocity,
    ScalarField,
    div_raw,
    face_inner,
    grad_raw,
)
from chns.hydro import (
    CflError,
    dissipation_quadrature,
    korteweg_force,
    ns_step,
    project,
    viscosity_field,
    viscous_stress_div,
)


def vortex(spec, strength=0.3):
    xc, yc = spec.corner_coords()
    psi = strength / np.pi * np.sin(np.pi * xc / spec.lx) * np.sin(np.pi * yc / spec.ly)
    psi[0, :] = psi[-1, :] = 0.0
    psi[:, 0] = psi[:, -1] = 0.0
    return MacVelocity.from_stream(spec, psi)


def random_velocity(spec, rng, scale=1.0):
    u = scale * rng.standard_normal((spec.nx + 1, spec.ny))
    v = scale * rng.standard_normal((spec.nx, spec.ny + 1))
    u[0, :] = u[-1, :] = 0.0
    v[:, 0] = v[:, -1] = 0.0
    return MacVelocity(spec, u, v, trusted=True)


def test_viscosity_pure_phases():
    spec = GridSpec(6, 6)
    p = ModelParams(nu1=3.0, nu2=1.0)
    assert np.all(viscosity_field(ScalarField.full(spec, 1.0), p).values == 3.0)
    assert np.all(viscosity_field(ScalarField.full(spec, -1.0), p).values == 1.0)
    assert np.all(viscosity_field(ScalarField.full(spec, 0.0), p).values == 2.0)
    # out-of-range input falls back to the nearest pure phase
    assert np.all(viscosity_field(ScalarField.full(spec, 1.5), p).values == 3.0)
    assert np.all(viscosity_field(ScalarField.full(spec, -7.0), p).values == 1.0)


def test_viscosity_bounds(rng):
    spec = GridSpec(12, 12)
    p = ModelParams(nu1=0.2, nu2=1.7)
    nu = viscosity_field(ScalarField(spec, 3.0 * rng.standard_normal((12, 12))), p)
    assert np.all(nu.values >= 0.2) and np.all(nu.values <= 1.7)


def test_korteweg_zero_for_uniform_phase(rng):
    spec = GridSpec(8, 8)
    p = ModelParams(chi=0.5)
    f = korteweg_force(
        ScalarField.full(spec, 0.3),
        ScalarField(spec, rng.standard_normal((8, 8))),
        ScalarField(spec, rng.standard_normal((8, 8))),
        p,
    )
    assert np.all(f.u == 0.0) and np.all(f.v == 0.0)


def test_korteweg_prefactor_factors_out(rng):
    # mu + chi sigma held constant, so the force is that constant times
    # the face gradient; 0.75 = 0.625 + 0.5 * 0.25 exactly in binary
    spec = GridSpec(9, 7)
    p = ModelParams(chi=0.5)
    phi = ScalarField(spec, rng.uniform(-0.8, 0.8, (9, 7)))
    mu = ScalarField.full(spec, 0.625)
    sigma = ScalarField.full(spec, 0.25)
    f = korteweg_force(phi, mu, sigma, p)
    gu, gv = grad_raw(spec, phi.values)
    assert np.max(np.abs(f.u - 0.75 * gu)) <= 1.0e-15
    assert np.max(np.abs(f.v - 0.75 * gv)) <= 1.0e-15


def test_korteweg_dense_oracle(rng):
    spec = GridSpec(6, 6)
    p = ModelParams(chi=0.4)
    phi = rng.uniform(-0.5, 0.5, (6, 6))
    mu = rng.standard_normal((6, 6))
    sigma = rng.standard_normal((6, 6))
    q = mu + p.chi * sigma
    want_u = np.zeros((7, 6))
    want_v = np.zeros((6, 7))
    for i in range(1, 6):
        for j in range(6):
            want_u[i, j] = 0.5 * (q[i, j] + q[i - 1, j]) * (phi[i, j] - phi[i - 1, j]) / spec.hx
    for i in range(6):
        for j in range(1, 6):
            want_v[i, j] = 0.5 * (q[i, j] + q[i, j - 1]) * (phi[i, j] - phi[i, j - 1]) / spec.hy
    f = korteweg_force(
        ScalarField(spec, phi), ScalarField(spec, mu), ScalarField(spec, sigma), p
    )
    assert np.max(np.abs(f.u - want_u)) <= 1.0e-12
    assert np.max(np.abs(f.v - want_v)) <= 1.0e-12


def test_rest_state_is_fixed_point():
    spec = GridSpec(8, 8)
    p = ModelParams(chi=0.3)
    vel, pressure, rep = ns_step(
        MacVelocity.zeros(spec),
        ScalarField.full(spec, 0.2),
        ScalarField.full(spec, 1.1),
        ScalarField.full(spec, -0.4),
        p,
        0.05,
    )
    assert vel.max_abs() <= 1.0e-14
    assert np.max(np.abs(pressure.values)) <= 1.0e-14
    assert abs(pressure.values.mean()) <= 1.0e-15


def test_post_projection_divergence(rng):
    # white noise concentrates mass in the roughest modes, where the
    # divergence is ~1/h times the velocity scale; the headline bound
    # holds because the pressure solve is exact to rounding
    spec = GridSpec(16, 16)
    vstar = random_velocity(spec, rng)
    vel, _, rep = project(vstar, 0.1)
    div_inf = np.max(np.abs(div_raw(spec, vel.u, vel.v)))
    assert div_inf <= 1.0e-9 * vel.max_abs()
    assert rep.div_inf_norm == pytest.approx(div_inf)
    vstar_l2 = np.sqrt(np.sum(vstar.u**2) + np.sum(vstar.v**2))
    assert rep.div_inf_norm <= 10.0 * 1.0e-12 * vstar_l2


def test_projection_idempotence(rng):
    spec = GridSpec(12, 12)
    once, _, _ = project(random_velocity(spec, rng), 0.2)
    twice, _, _ = project(once, 0.2)
    diff = max(np.max(np.abs(twice.u - once.u)), np.max(np.abs(twice.v - once.v)))
    assert diff <= 1.0e-10 * once.max_abs()


def test_projection_preserves_divfree_vortex():
    spec = GridSpec(16, 16)
    vel = vortex(spec)
    out, q, _ = project(vel, 0.1)
    assert np.max(np.abs(out.u - vel.u)) <= 1.0e-12
    assert np.max(np.abs(q.values)) <= 1.0e-10


def test_decaying_vortex_kinetic_energy():
    spec = GridSpec(16, 16)
    p = ModelParams(nu1=0.1, nu2=0.1)
    vel = vortex(spec, 0.4)
    phi = ScalarField.full(spec, 0.0)
    mu = ScalarField.full(spec, 0.0)
    sigma = ScalarField.full(spec, 0.0)
    ke = 0.5 * face_inner(vel, vel)
    for _ in range(30):
        vel, _, _ = ns_step(vel, phi, mu, sigma, p, 0.02)
        ke_new = 0.5 * face_inner(vel, vel)
        assert ke_new < ke
        ke = ke_new


def test_dissipation_matches_stress_pairing(rng):
    # summation by parts: the quadrature is the negative of the pairing
    spec = GridSpec(14, 10, 1.2, 0.7)
    nu = ScalarField(spec, 0.5 + 0.3 * rng.uniform(-1.0, 1.0, (14, 10)))
    vel = random_velocity(spec, rng)
    quad = dissipation_quadrature(vel, nu)
    pairing = -face_inner(viscous_stress_div(vel, nu), vel)
    assert quad == pytest.approx(pairing, rel=1.0e-13)
    assert quad > 0.0
    assert dissipation_quadrature(MacVelocity.zeros(spec), nu) == 0.0


def test_advection_does_no_work(rng):
    from chns.hydro import _advect_momentum

    spec = GridSpec(16, 16)
    vel, _, _ = project(random_velocity(spec, rng), 0.1)
    au, av = _advect_momentum(spec, vel.u, vel.v)
    work = face_inner(MacVelocity(spec, au, av, trusted=True), vel)
    assert abs(work) <= 1.0e-12 * face_inner(vel, vel)


def kinetic_residual_sum(dt, nsteps):
    spec = GridSpec(16, 16)
    p = ModelParams(nu1=0.02, nu2=0.08, chi=0.3)
    vel = vortex(spec, 0.5)
    x, y = spec.cell_centers()
    phi = ScalarField(spec, 0.4 * np.cos(np.pi * x) * np.cos(np.pi * y))
    mu = ScalarField(spec, 0.3 * np.cos(np.pi * x))
    sigma = ScalarField(spec, 0.2 * np.cos(np.pi * y))
    nu = viscosity_field(phi, p)
    force = korteweg_force(phi, mu, sigma, p)
    total = 0.0
    ke_prev = 0.5 * face_inner(vel, vel)
    for _ in range(nsteps):
        vel, _, _ = ns_step(vel, phi, mu, sigma, p, dt)
        ke_new = 0.5 * face_inner(vel, vel)
        diss = dissipation_quadrature(vel, nu)
        work = face_inner(force, vel)
        total += abs(ke_new - ke_prev + dt * diss - dt * work)
        ke_prev = ke_new
    return total


def test_kinetic_energy_residual_halves():
    coarse = kinetic_residual_sum(0.02, 50)
    fine = kinetic_residual_sum(0.01, 100)
    assert 1.5 <= coarse / fine <= 2.5


def test_cfl_violation_rejected():
    spec = GridSpec(8, 8)
    vel = vortex(spec, 4.0)
    uniform = ScalarField.full(spec, 0.0)
    with pytest.raises(CflError, match="advective bound"):
        ns_step(vel, uniform, uniform, uniform, ModelParams(), 1.0)
    with pytest.raises(ValueError, match="dt"):
        ns_step(vel, uniform, uniform, uniform, ModelParams(), 0.0)
