"""Ledger quantities against closed forms, hand quadratures, and the
exact mass laws."""

import numpy as np
import pytest

from chns.chd import ModelParams, chd_step, chemical_potential, nonlocal_potential
from chns.coupled import RunConfig, ScenarioConfig, run
from chns.diagnostics import (
    LEDGER_FIELDS,
    bel_residual,
    dissipation,
    free_energy,
    kinetic_energy,
    ledger_row,
    mass_check,
    sigma_l4,
)
from chns.grid import GridSpec, MacVelocity, ScalarField, grad_norm_sq, l2_inner
from chns.hydro import viscosity_field, viscous_stress_div
from chns.potential import PotentialParams, psi
from chns.state import SimState


def state_of(spec, vel=None, phi=None, mu=None, sigma=None):
    return SimState(
        vel=vel if vel is not None else MacVelocity.zeros(spec),
        phi=phi if phi is not None else ScalarField.zeros(spec),
        mu=mu if mu is not None else ScalarField.zeros(spec),
        sigma=sigma if sigma is not None else ScalarField.zeros(spec),
        pressure=ScalarField.zeros(spec),
        t=0.0,
        step=0,
    )


def test_ledger_field_order():
    assert LEDGER_FIELDS == (
        "step",
        "t",
        "kinetic",
        "free_energy",
        "total_energy",
        "diss_visc",
        "diss_mu",
        "diss_cross",
        "oono_work",
        "bel_residual",
        "mean_phi",
        "mean_sigma",
        "sep_delta",
        "div_inf",
        "sigma_l4",
        "newton_iters",
    )


def test_kinetic_energy_single_face():
    # one interior u-face carrying 2 on a unit 4x4 grid: dual volume 1/16
    spec = GridSpec(4, 4)
    u = np.zeros((5, 4))
    u[2, 1] = 2.0
    st = state_of(spec, vel=MacVelocity(spec, u, np.zeros((4, 5))))
    assert kinetic_energy(st) == 0.125


def test_uniform_free_energy_closed_form():
    spec = GridSpec(10, 6, 1.3, 0.8)
    p = ModelParams(chi=0.4, beta=1.7)
    c, s = 0.3, -0.5
    got = free_energy(ScalarField.full(spec, c), ScalarField.full(spec, s), p)
    want = spec.lx * spec.ly * (psi(c, p.potential) + 0.5 * s * s - p.chi * s * c)
    assert got == pytest.approx(want, rel=1.0e-13)


def test_nonlocal_term_eigenmode_value():
    # the lowest x-cosine is an exact eigenmode, so the nonlocal term has
    # the closed form (beta/2) a^2 (lx ly / 2) / lambda_1
    spec = GridSpec(20, 12, 1.3, 0.8)
    a = 0.35
    x, _ = spec.cell_centers()
    phi = ScalarField(spec, 0.1 + a * np.cos(np.pi * x / spec.lx))
    sigma = ScalarField.zeros(spec)
    base = free_energy(phi, sigma, ModelParams(beta=0.0))
    with_term = free_energy(phi, sigma, ModelParams(beta=1.7))
    lam1 = 2.0 * (1.0 - np.cos(np.pi / spec.nx)) / spec.hx**2
    want = 0.5 * 1.7 * a * a * (spec.lx * spec.ly / 2.0) / lam1
    assert with_term - base == pytest.approx(want, rel=1.0e-12)


def test_free_energy_hand_quadrature():
    spec = GridSpec(4, 4)
    p = ModelParams(chi=0.25, potential=PotentialParams("quartic", 1.0, 2.0))
    phi_vals = np.array(
        [
            [0.1, -0.2, 0.3, 0.0],
            [0.4, 0.1, -0.1, 0.2],
            [-0.3, 0.2, 0.1, -0.4],
            [0.0, -0.1, 0.3, 0.1],
        ]
    )
    sigma_vals = 0.5 * phi_vals[::-1, :]
    cell = spec.hx * spec.hy
    want = 0.0
    for i in range(1, 4):
        for j in range(4):
            want += 0.5 * ((phi_vals[i, j] - phi_vals[i - 1, j]) / spec.hx) ** 2 * cell
    for i in range(4):
        for j in range(1, 4):
            want += 0.5 * ((phi_vals[i, j] - phi_vals[i, j - 1]) / spec.hy) ** 2 * cell
    for i in range(4):
        for j in range(4):
            want += psi(phi_vals[i, j], p.potential) * cell
            want += (0.5 * sigma_vals[i, j] ** 2 - p.chi * sigma_vals[i, j] * phi_vals[i, j]) * cell
    got = free_energy(ScalarField(spec, phi_vals), ScalarField(spec, sigma_vals), p)
    assert got == pytest.approx(want, rel=1.0e-14)


def test_dissipation_rest_state():
    spec = GridSpec(8, 8)
    st = state_of(spec, phi=ScalarField.full(spec, 0.2), mu=ScalarField.full(spec, 1.3))
    assert dissipation(st, ModelParams()) == (0.0, 0.0, 0.0)


def test_dissipation_dense_oracle(rng):
    spec = GridSpec(6, 6)
    p = ModelParams(nu1=0.3, nu2=0.9, chi=0.4)
    u = rng.standard_normal((7, 6))
    v = rng.standard_normal((6, 7))
    u[0, :] = u[-1, :] = 0.0
    v[:, 0] = v[:, -1] = 0.0
    st = state_of(
        spec,
        vel=MacVelocity(spec, u, v),
        phi=ScalarField(spec, rng.uniform(-0.8, 0.8, (6, 6))),
        mu=ScalarField(spec, rng.standard_normal((6, 6))),
        sigma=ScalarField(spec, rng.standard_normal((6, 6))),
    )
    d_visc, d_mu, d_cross = dissipation(st, p)

    def grad_quad(f):
        out = 0.0
        for i in range(1, 6):
            for j in range(6):
                out += ((f[i, j] - f[i - 1, j]) / spec.hx) ** 2 * spec.hx * spec.hy
        for i in range(6):
            for j in range(1, 6):
                out += ((f[i, j] - f[i, j - 1]) / spec.hy) ** 2 * spec.hx * spec.hy
        return out

    assert d_mu == pytest.approx(grad_quad(st.mu.values), rel=1.0e-12)
    cross = st.sigma.values - p.chi * st.phi.values
    assert d_cross == pytest.approx(grad_quad(cross), rel=1.0e-12)
    nu = viscosity_field(st.phi, p)
    from chns.grid import face_inner

    assert d_visc == pytest.approx(-face_inner(viscous_stress_div(st.vel, nu), st.vel), rel=1.0e-12)
    assert d_visc >= 0.0 and d_mu >= 0.0 and d_cross >= 0.0


def test_bel_residual_arithmetic():
    assert bel_residual(1.0, 0.9, 0.5, 0.25, 0.1) == pytest.approx(-0.025, abs=1.0e-16)


def test_bel_residual_zero_at_fixed_point():
    spec = GridSpec(8, 8)
    p = ModelParams(chi=0.4, alpha=0.6, beta=1.1, c0=0.2)
    phi = ScalarField.full(spec, 0.2)
    sigma = ScalarField.full(spec, -0.5)
    st = state_of(spec, phi=phi, sigma=sigma, mu=chemical_potential(phi, sigma, p))
    prev = ledger_row(st, p)
    new_state, rep = chd_step(st, p, 0.05)
    row = ledger_row(new_state, p, prev=prev, dt=0.05, report=rep)
    assert abs(row.bel_residual) <= 1.0e-12


def test_bel_residual_sum_halves_with_dt():
    def acc(dt):
        cfg = RunConfig(
            grid=GridSpec(16, 16),
            params=ModelParams(chi=0.2, alpha=0.5, beta=1.0),
            dt=dt,
            t_end=0.3,
            seed=3,
        )
        _, rows = run(cfg)
        return sum(abs(r.bel_residual) for r in rows)

    coarse = acc(2.0e-3)
    fine = acc(1.0e-3)
    assert 1.5 <= coarse / fine <= 2.5


def test_decoupled_residual_one_sided():
    cfg = RunConfig(
        grid=GridSpec(16, 16),
        params=ModelParams(),
        dt=0.05,
        t_end=2.5,
        scenario=ScenarioConfig(name="drift", drift_strength=0.0),
        seed=7,
    )
    _, rows = run(cfg)
    assert max(r.bel_residual for r in rows) <= 1.0e-10
    total = [r.total_energy for r in rows]
    assert all(b <= a + 1.0e-12 for a, b in zip(total, total[1:]))


def test_ledger_row_wiring(rng):
    spec = GridSpec(12, 12)
    p = ModelParams(chi=0.3, alpha=0.4, beta=0.8, c0=0.1)
    cfg = RunConfig(grid=spec, params=p, dt=5.0e-3, t_end=0.02, seed=6)
    _, rows = run(cfg)
    row = rows[-1]
    assert row.total_energy == pytest.approx(row.kinetic + row.free_energy, rel=1.0e-14)
    assert row.kinetic >= 0.0
    assert min(row.diss_visc, row.diss_mu, row.diss_cross) >= -1.0e-14
    assert 0.0 < row.sep_delta <= 1.0
    assert row.newton_iters >= 1
    assert row.div_inf >= 0.0


def test_mass_check_alpha_zero():
    cfg = RunConfig(
        grid=GridSpec(12, 12), params=ModelParams(chi=0.2), dt=0.01, t_end=0.1, seed=2
    )
    p = cfg.params
    _, rows = run(cfg)
    rep = mass_check(rows, p)
    assert rep.phi_abs_dev <= 1.0e-12
    assert rep.sigma_drift <= 1.0e-14


def test_mass_check_geometric_law():
    # the droplet starts with an O(1) deficit, so the relative law is
    # meaningful; 100 full steps of 0.01 against (1.01)^-100
    p = ModelParams(alpha=1.0, c0=0.0)
    cfg = RunConfig(
        grid=GridSpec(16, 16),
        params=p,
        dt=0.01,
        t_end=1.0,
        scenario=ScenarioConfig(name="droplet"),
        seed=8,
    )
    _, rows = run(cfg)
    assert len(rows) == 101
    initial_deficit = rows[0].mean_phi - p.c0
    final_deficit = rows[-1].mean_phi - p.c0
    assert abs(initial_deficit) > 0.1
    assert mass_check(rows, p).phi_law_rel_err <= 1.0e-9
    assert final_deficit / initial_deficit == pytest.approx(1.01 ** (-100), rel=1.0e-9)


def test_mass_check_needs_rows():
    with pytest.raises(ValueError, match="ledger row"):
        mass_check([], ModelParams())


def test_sigma_l4_closed_forms():
    spec = GridSpec(8, 8, 2.0, 0.5)
    assert sigma_l4(ScalarField.full(spec, -3.0)) == pytest.approx(3.0 * (2.0 * 0.5) ** 0.25)
    vals = np.zeros((8, 8))
    vals[2, 5] = 2.0
    want = (2.0**4 * spec.hx * spec.hy) ** 0.25
    assert sigma_l4(ScalarField(spec, vals)) == pytest.approx(want, rel=1.0e-14)


def test_nonlocal_term_evaluation_paths_agree(rng):
    spec = GridSpec(16, 16)
    phi = ScalarField(spec, rng.uniform(-0.6, 0.6, (16, 16)))
    fluct = ScalarField(spec, phi.values - phi.values.mean())
    nphi, _ = nonlocal_potential(phi)
    quad_form = l2_inner(fluct, nphi)
    grad_form = grad_norm_sq(nphi)
    assert quad_form == pytest.approx(grad_form, rel=1.0e-10)
