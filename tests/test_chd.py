"""Transport-step contracts: fixed points, mean laws, dense Newton oracle,
energy decay, barrier safeguard, and the variational identity."""

import numpy as np
import pytest
from conftest import dense_neumann_laplacian
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chns import chd
from chns.chd import (
    _UPDATE_FLOOR,
    BARRIER_MARGIN,
    GMRES_FORCING,
    NEWTON_TOL_FACTOR,
    ModelParams,
    NewtonError,
    _barrier_scale,
    _jacobian_solve,
    _newton_solve,
    _scheme_mu,
    ch_step,
    chd_step,
    chemical_potential,
    nonlocal_potential,
    sigma_step,
)
from chns.coupled import RunConfig, initial_state
from chns.diagnostics import free_energy
from chns.elliptic import neumann_symbol_solve
from chns.grid import (
    GridSpec,
    MacVelocity,
    ScalarField,
    advect_scalar,
    grad_norm_sq,
    inner_raw,
    integrate,
    l2_inner,
    laplacian_raw,
    mean,
)
from chns.potential import PotentialParams, psi0_prime, psi0_second, psi_prime
from chns.state import SimState

LOG = PotentialParams("logarithmic", theta=1.0, theta0=2.0)
QUARTIC = PotentialParams("quartic", theta=1.0, theta0=2.0)


def cosine_mode(spec):
    x = (np.arange(spec.nx) + 0.5) / spec.nx
    return np.cos(np.pi * x)[:, None] * np.ones((1, spec.ny))


def stream_velocity(spec, strength=0.1):
    xc, yc = spec.corner_coords()
    psi = strength / np.pi * np.sin(np.pi * xc / spec.lx) * np.sin(np.pi * yc / spec.ly)
    psi[0, :] = psi[-1, :] = 0.0
    psi[:, 0] = psi[:, -1] = 0.0
    return MacVelocity.from_stream(spec, psi)


def make_state(spec, phi, sigma):
    return SimState(
        vel=MacVelocity.zeros(spec),
        phi=phi,
        mu=ScalarField.zeros(spec),
        sigma=sigma,
        pressure=ScalarField.zeros(spec),
        t=0.0,
        step=0,
    )


def test_uniform_state_is_fixed_point():
    spec = GridSpec(8, 8)
    p = ModelParams(chi=0.4, alpha=0.8, beta=1.2, c0=0.3)
    phi = ScalarField.full(spec, 0.3)
    sigma = ScalarField.full(spec, -0.6)
    phi_new, mu_new, _ = ch_step(phi, sigma, MacVelocity.zeros(spec), p, 0.05)
    assert np.max(np.abs(phi_new.values - 0.3)) <= 1.0e-13
    want_mu = psi_prime(0.3, p.potential) - p.chi * (-0.6)
    assert np.max(np.abs(mu_new.values - want_mu)) <= 1.0e-12


def test_mean_law_single_step(rng):
    spec = GridSpec(10, 12, 1.3, 0.8)
    p = ModelParams(alpha=0.7, chi=0.2, beta=0.5, c0=0.1)
    phi = ScalarField(spec, 0.1 + 0.5 * rng.uniform(-1.0, 1.0, (10, 12)))
    sigma = ScalarField(spec, rng.standard_normal((10, 12)))
    dt = 0.02
    phi_new, _, _ = ch_step(phi, sigma, stream_velocity(spec), p, dt)
    want = p.c0 + (mean(phi) - p.c0) / (1.0 + p.alpha * dt)
    assert mean(phi_new) == pytest.approx(want, abs=1.0e-14)


def test_mean_laws_many_steps(rng):
    spec = GridSpec(10, 10)
    p = ModelParams(alpha=0.3, chi=0.2, c0=-0.2)
    state = make_state(
        spec,
        ScalarField(spec, -0.2 + 0.3 * rng.uniform(-1.0, 1.0, (10, 10))),
        ScalarField(spec, 0.4 + 0.1 * rng.uniform(-1.0, 1.0, (10, 10))),
    )
    dt = 0.05
    m0 = mean(state.phi) - p.c0
    s0 = mean(state.sigma)
    for n in range(1, 201):
        state, _ = chd_step(state, p, dt)
        want = m0 / (1.0 + p.alpha * dt) ** n
        assert abs((mean(state.phi) - p.c0) - want) <= 1.0e-12 * abs(m0)
        assert abs(mean(state.sigma) - s0) <= 1.0e-14


def test_alpha_zero_conserves_phase_mean(rng):
    spec = GridSpec(8, 8)
    p = ModelParams()
    state = make_state(
        spec,
        ScalarField(spec, 0.4 * rng.uniform(-1.0, 1.0, (8, 8))),
        ScalarField.zeros(spec),
    )
    m0 = mean(state.phi)
    for _ in range(50):
        state, _ = chd_step(state, p, 0.05)
    assert abs(mean(state.phi) - m0) <= 1.0e-14


def dense_coupled_newton(spec, phi0, dt, p):
    """Independent solve of the one-step system on the unreduced (phi, mu)
    unknowns with a dense Jacobian; quartic potential, no couplings."""
    lap = dense_neumann_laplacian(spec)
    n = spec.nx * spec.ny
    flat0 = phi0.reshape(-1)
    g_expl = -p.theta0 * flat0

    def system(z):
        ph, mu = z[:n], z[n:]
        f1 = (ph - flat0) / dt - lap @ mu
        f2 = mu + lap @ ph - psi0_prime(ph, p.potential) - g_expl
        return np.concatenate([f1, f2])

    z = np.concatenate([flat0, np.zeros(n)])
    for _ in range(50):
        jac = np.block(
            [
                [np.eye(n) / dt, -lap],
                [lap - np.diag(psi0_second(z[:n], p.potential)), np.eye(n)],
            ]
        )
        z = z + np.linalg.solve(jac, -system(z))
        if np.max(np.abs(system(z))) < 1.0e-13:
            break
    return z[:n].reshape(phi0.shape), z[n:].reshape(phi0.shape)


def test_ch_step_matches_dense_newton_oracle(rng):
    spec = GridSpec(8, 8)
    p = ModelParams(potential=QUARTIC)
    phi0 = 0.6 * rng.uniform(-1.0, 1.0, (8, 8))
    dt = 0.01
    want_phi, want_mu = dense_coupled_newton(spec, phi0, dt, p)
    phi_new, mu_new, _ = ch_step(
        ScalarField(spec, phi0), ScalarField.zeros(spec), MacVelocity.zeros(spec), p, dt
    )
    assert np.max(np.abs(phi_new.values - want_phi)) <= 1.0e-9
    assert np.max(np.abs(mu_new.values - want_mu)) <= 1.0e-9


@pytest.mark.parametrize("dt", [1.0e-3, 1.0])
def test_jacobian_solve_matches_dense_oracle(dt, rng):
    # tanh droplet profile scaled so psi0'' = theta / (1 - phi^2) spans
    # 1 to 500: the variable coefficient the constant-coefficient
    # preconditioner misses most
    spec = GridSpec(10, 7, 1.3, 0.8)
    x, y = spec.cell_centers()
    profile = np.tanh((np.hypot(x - 0.6, y - 0.4) - 0.25) / 0.05)
    phi = np.sqrt(1.0 - 1.0 / 500.0) * profile / np.max(np.abs(profile))
    d = psi0_second(phi, LOG)
    assert d.min() < 1.1 and d.max() == pytest.approx(500.0)
    b = rng.standard_normal((10, 7))

    sol, iters, rel = _jacobian_solve(spec, d, dt, b)

    lap = dense_neumann_laplacian(spec)
    jac = np.eye(70) / dt + lap @ lap - lap @ np.diag(d.reshape(-1))
    b_norm = np.linalg.norm(b)
    true_res = np.linalg.norm(jac @ sol.reshape(-1) - b.reshape(-1))
    assert iters > 0 and rel <= GMRES_FORCING
    assert true_res <= GMRES_FORCING * b_norm
    # the residual bound carries over to the error through |J^-1|_2
    want = np.linalg.solve(jac, b.reshape(-1))
    inv_norm = np.linalg.norm(np.linalg.inv(jac), 2)
    assert np.linalg.norm(sol.reshape(-1) - want) <= inv_norm * GMRES_FORCING * b_norm


def tanh_fixture():
    spec = GridSpec(12, 10)
    x, y = spec.cell_centers()
    phi = 0.99 * np.tanh((np.hypot(x - 0.5, y - 0.5) - 0.25) / 0.05)
    return spec, psi0_second(phi, LOG)


def test_jacobian_solve_preconditions_once_per_iteration(monkeypatch, rng):
    # GMRES keeps each preconditioned basis vector, so assembling the
    # solution costs no preconditioner solve beyond one per iteration; each
    # iteration applies J P^-1 with one Laplacian, and the closing residual
    # is summed from the stored products at no Laplacian
    spec, d = tanh_fixture()
    calls = {"precondition": 0, "laplacian": 0}

    def counting(fn, key):
        def counted(*args):
            calls[key] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(chd, "neumann_symbol_solve", counting(neumann_symbol_solve, "precondition"))
    monkeypatch.setattr(chd, "laplacian_raw", counting(laplacian_raw, "laplacian"))
    _, iters, rel = _jacobian_solve(spec, d, 1.0e-3, rng.standard_normal((12, 10)))
    assert iters > 1 and rel <= GMRES_FORCING
    assert calls == {"precondition": iters, "laplacian": iters}


@pytest.mark.parametrize("case", ["tanh", "random"])
def test_closing_residual_from_stored_products_is_the_true_residual(case, monkeypatch, rng):
    # the closing residual sum_j y_j (J z_j) - b is taken from the stored
    # products; it must match J x - b recomputed from x.  The last
    # inner_raw(r, r) of the solve is the norm of that residual.
    if case == "tanh":
        spec, d = tanh_fixture()
    else:
        spec = GridSpec(13, 9, 1.3, 0.7)
        d = rng.uniform(1.0, 50.0, (13, 9))
    dt = 1.0e-3
    b = rng.standard_normal(d.shape)
    squared = []

    def spy(a, c):
        if a is c:
            squared.append(a.copy())
        return inner_raw(a, c)

    monkeypatch.setattr(chd, "inner_raw", spy)
    x, iters, rel = _jacobian_solve(spec, d, dt, b)
    stored = squared[-1]
    recomputed = x / dt + laplacian_raw(spec, laplacian_raw(spec, x) - d * x) - b
    b_norm = np.linalg.norm(b)
    assert iters > 1 and rel <= GMRES_FORCING
    assert rel == pytest.approx(np.linalg.norm(stored) / b_norm, rel=1.0e-12)
    assert np.linalg.norm(stored - recomputed) <= 1.0e-12 * b_norm


def spinodal_newton_solve(monkeypatch, barrier_scale=_barrier_scale):
    """One ch_step of the seed-1 spinodal at 256^2, dt = 1e-3, where the
    update after Newton's second iteration is below rounding.  Returns
    ``(args, result, counts)``: the captured ``_newton_solve`` arguments
    and result, and the numbers of Krylov solves (``"solves"``) and
    ``_scheme_mu`` evaluations (``"mus"``) the step made."""
    cfg = RunConfig(
        grid=GridSpec(256, 256), params=ModelParams(chi=0.2, alpha=0.5, beta=1.0), seed=1
    )
    state = initial_state(cfg)
    captured = {"solves": 0, "mus": 0}

    def newton(*args):
        captured["args"], captured["result"] = args, _newton_solve(*args)
        return captured["result"]

    def jacobian_solve(*args):
        captured["solves"] += 1
        return _jacobian_solve(*args)

    def scheme_mu(*args):
        captured["mus"] += 1
        return _scheme_mu(*args)

    monkeypatch.setattr(chd, "_newton_solve", newton)
    monkeypatch.setattr(chd, "_jacobian_solve", jacobian_solve)
    monkeypatch.setattr(chd, "_barrier_scale", barrier_scale)
    monkeypatch.setattr(chd, "_scheme_mu", scheme_mu)
    ch_step(state.phi, state.sigma, state.vel, cfg.params, cfg.dt)
    return captured["args"], captured["result"], captured


def newton_residual(args, phi):
    spec, pparams, phi0, dt, gamma, g_expl, b_expl, _ = args
    mu = _scheme_mu(spec, pparams, phi, phi0, gamma / dt, g_expl)
    return (phi - phi0) / dt + b_expl - laplacian_raw(spec, mu)


def test_newton_stops_on_the_contraction_estimate(monkeypatch):
    args, (phi, iters, clipped, _), counts = spinodal_newton_solve(monkeypatch)
    spec, pparams, phi0, dt, gamma, g_expl, b_expl, _ = args
    rhs = phi0 / dt - b_expl + laplacian_raw(spec, g_expl)
    tol = NEWTON_TOL_FACTOR * (1.0 + np.sqrt(spec.cell_area * np.sum(rhs * rhs)))
    # the residual is still above its target, so without the contraction
    # stop a third Krylov solve would run only to find a rounding-size update
    r = newton_residual(args, phi)
    assert np.sqrt(spec.cell_area * np.sum(r * r)) > tol
    assert (iters, counts["solves"], clipped) == (2, 2, 0)
    # the residual is evaluated before the first update and after each
    # update but the one the estimate stops on; ch_step adds the step's mu
    assert counts["mus"] == iters + 1
    d = psi0_second(phi, pparams) + gamma / dt
    delta = _jacobian_solve(spec, d, dt, -r)[0]
    assert np.max(np.abs(delta)) <= _UPDATE_FLOOR * max(1.0, np.max(np.abs(phi)))


@pytest.mark.parametrize("damped_updates", [{1}, {2}, {1, 2}], ids=["first", "second", "both"])
def test_damped_updates_keep_the_rounding_floor_stop(monkeypatch, damped_updates):
    # an update a hair short of full, either of the two the estimate
    # compares: the estimate does not apply, and Newton runs on until its
    # update is below rounding
    calls = []

    def damped(phi, delta):
        calls.append(None)
        scale = 1.0 - 1.0e-12 if len(calls) in damped_updates else 1.0
        return scale * _barrier_scale(phi, delta)

    _, (phi, iters, clipped, _), counts = spinodal_newton_solve(monkeypatch, damped)
    _, (want, *_), _ = spinodal_newton_solve(monkeypatch)
    assert (iters, counts["solves"], clipped) == (3, 3, len(damped_updates))
    assert np.max(np.abs(phi - want)) <= 1.0e-13


def masked_barrier_scale(phi, delta):
    """The barrier step fraction from boolean-masked quotients."""
    s = 1.0
    up = delta > 0.0
    if np.any(up):
        s = min(s, float(np.min(BARRIER_MARGIN * (1.0 - phi[up]) / delta[up])))
    down = delta < 0.0
    if np.any(down):
        s = min(s, float(np.min(BARRIER_MARGIN * (1.0 + phi[down]) / (-delta[down]))))
    return s


BARRIER_SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6)
# nonnegative update sizes, zero and subnormals included
UPDATE_SIZES = st.floats(0.0, 1.0e3)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data(), signs=st.sampled_from(["zero", "up", "down", "mixed"]))
def test_barrier_scale_matches_masked_formula(data, signs):
    shape = data.draw(BARRIER_SHAPES)
    phi = data.draw(
        hnp.arrays(np.float64, shape, elements=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    )
    if signs == "zero":
        delta = np.zeros(shape)
    elif signs == "mixed":
        delta = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1.0e3, 1.0e3)))
    else:
        delta = data.draw(hnp.arrays(np.float64, shape, elements=UPDATE_SIZES))
        if signs == "down":
            delta = -delta
    with np.errstate(over="ignore"):  # subnormal updates
        want = masked_barrier_scale(phi, delta)
    assert _barrier_scale(phi, delta) == want


def test_step_reports_krylov_iterations(rng):
    spec = GridSpec(16, 16)
    p = ModelParams(chi=0.2, alpha=0.5, beta=1.0, potential=LOG)
    phi = ScalarField(spec, 0.3 * rng.uniform(-1.0, 1.0, (16, 16)))
    sigma = ScalarField(spec, 0.1 * rng.uniform(-1.0, 1.0, (16, 16)))
    _, _, rep = ch_step(phi, sigma, MacVelocity.zeros(spec), p, 1.0e-3)
    assert rep.linear_iters >= rep.newton_iters > 0


def test_step_satisfies_discrete_equations(rng):
    # the defining property, with every coupling switched on
    spec = GridSpec(12, 9, 1.1, 0.9)
    p = ModelParams(chi=0.3, alpha=0.4, beta=0.8, c0=0.1, gamma=0.2)
    vel = stream_velocity(spec, 0.2)
    phi = ScalarField(spec, 0.1 + 0.4 * rng.uniform(-1.0, 1.0, (12, 9)))
    sigma = ScalarField(spec, rng.uniform(-0.5, 0.5, (12, 9)))
    dt = 0.02
    nphi, _ = nonlocal_potential(phi)
    phi_new, mu_new, _ = ch_step(phi, sigma, vel, p, dt)
    adv = advect_scalar(vel, phi).values
    res = (
        (phi_new.values - phi.values) / dt
        + adv
        + p.alpha * (mean(phi_new) - p.c0)
        - laplacian_raw(spec, mu_new.values)
    )
    assert np.max(np.abs(res)) <= 1.0e-7
    want_mu = (
        -laplacian_raw(spec, phi_new.values)
        + psi0_prime(phi_new.values, p.potential)
        + (p.gamma / dt) * (phi_new.values - phi.values)
        - p.theta0 * phi.values
        - p.chi * sigma.values
        + p.beta * nphi.values
    )
    assert np.max(np.abs(mu_new.values - want_mu)) <= 1.0e-12


def test_sigma_uniform_fixed_point():
    spec = GridSpec(8, 8)
    p = ModelParams(chi=0.7)
    sig = sigma_step(
        ScalarField.full(spec, 1.4), ScalarField.full(spec, 0.2), MacVelocity.zeros(spec), p, 0.1
    )
    assert np.max(np.abs(sig.values - 1.4)) <= 1.0e-13


def test_sigma_step_dense_oracle():
    spec = GridSpec(8, 8)
    p = ModelParams(chi=1.0)
    phi_new = ScalarField(spec, cosine_mode(spec))
    dt = 0.05
    lap = dense_neumann_laplacian(spec)
    n = spec.nx * spec.ny
    rhs = -dt * p.chi * (lap @ phi_new.values.reshape(-1))
    want = np.linalg.solve(np.eye(n) - dt * lap, rhs).reshape(8, 8)
    got = sigma_step(ScalarField.zeros(spec), phi_new, MacVelocity.zeros(spec), p, dt)
    assert np.max(np.abs(got.values - want)) <= 1.0e-10


def test_sigma_mean_conserved_with_transport(rng):
    spec = GridSpec(10, 10)
    p = ModelParams(chi=0.5)
    sigma = ScalarField(spec, rng.uniform(-1.0, 1.0, (10, 10)))
    phi_new = ScalarField(spec, 0.5 * rng.uniform(-1.0, 1.0, (10, 10)))
    s0 = mean(sigma)
    for _ in range(20):
        sigma = sigma_step(sigma, phi_new, stream_velocity(spec), p, 0.02)
    assert abs(mean(sigma) - s0) <= 1.0e-14


def test_chd_step_is_the_composition(rng):
    spec = GridSpec(8, 8)
    p = ModelParams(chi=0.3, alpha=0.2, beta=0.5)
    phi = ScalarField(spec, 0.3 * rng.uniform(-1.0, 1.0, (8, 8)))
    sigma = ScalarField(spec, rng.uniform(-0.5, 0.5, (8, 8)))
    state = make_state(spec, phi.copy(), sigma.copy())
    dt = 0.03
    new_state, rep = chd_step(state, p, dt)
    phi_new, mu_new, _ = ch_step(phi, sigma, state.vel, p, dt)
    sigma_new = sigma_step(sigma, phi_new, state.vel, p, dt)
    assert np.array_equal(new_state.phi.values, phi_new.values)
    assert np.array_equal(new_state.mu.values, mu_new.values)
    assert np.array_equal(new_state.sigma.values, sigma_new.values)
    assert new_state.t == pytest.approx(dt) and new_state.step == 1


@pytest.mark.parametrize("pparams", [LOG, QUARTIC])
def test_decoupled_energy_decay(pparams, rng):
    spec = GridSpec(16, 16)
    p = ModelParams(potential=pparams)
    state = make_state(
        spec,
        ScalarField(spec, 0.5 * rng.uniform(-1.0, 1.0, (16, 16))),
        ScalarField.zeros(spec),
    )
    f_prev = free_energy(state.phi, state.sigma, p)
    for _ in range(100):
        state, _ = chd_step(state, p, 0.05)
        f_new = free_energy(state.phi, state.sigma, p)
        assert f_new <= f_prev + 1.0e-10
        f_prev = f_new


def test_large_step_energy_decay(rng):
    # unconditional decay of the convex splitting: dt far beyond accuracy
    spec = GridSpec(12, 12)
    p = ModelParams()
    state = make_state(
        spec,
        ScalarField(spec, 0.8 * rng.uniform(-1.0, 1.0, (12, 12))),
        ScalarField.zeros(spec),
    )
    f_prev = free_energy(state.phi, state.sigma, p)
    for _ in range(5):
        state, _ = chd_step(state, p, 10.0)
        f_new = free_energy(state.phi, state.sigma, p)
        assert f_new <= f_prev + 1.0e-10
        f_prev = f_new


def test_strict_phase_bound_and_safeguard():
    spec = GridSpec(8, 8)
    p = ModelParams(chi=4.0, potential=LOG)
    phi = ScalarField(spec, 0.95 * cosine_mode(spec))
    sigma = ScalarField(spec, 3.0 * cosine_mode(spec))
    phi_new, _, rep = ch_step(phi, sigma, MacVelocity.zeros(spec), p, 0.2)
    assert rep.clipped_steps >= 1
    assert np.max(np.abs(phi_new.values)) <= 1.0 - 1.0e-12
    # taken as they stand, the barrier-scaled updates converge in 9 Newton
    # iterations; halving them whenever the residual grows took 29
    assert rep.newton_iters <= 10


def test_newton_iteration_cap_reports(monkeypatch):
    # the strict-phase-bound step needs more than three Newton iterations
    spec = GridSpec(8, 8)
    p = ModelParams(chi=4.0, potential=LOG)
    phi = ScalarField(spec, 0.95 * cosine_mode(spec))
    sigma = ScalarField(spec, 3.0 * cosine_mode(spec))
    monkeypatch.setattr(chd, "NEWTON_MAX_ITER", 3)
    with pytest.raises(NewtonError, match=r"did not converge: residual .* after 3 iterations"):
        ch_step(phi, sigma, MacVelocity.zeros(spec), p, 0.2)


def test_newton_failure_reports():
    spec = GridSpec(8, 8)
    p = ModelParams(chi=6.0, potential=LOG)
    phi = ScalarField(spec, 0.9 * cosine_mode(spec))
    sigma = ScalarField(spec, 4.0 * cosine_mode(spec))
    with pytest.raises(NewtonError, match="residual"):
        ch_step(phi, sigma, MacVelocity.zeros(spec), p, 0.1)


def test_newton_update_refuses_a_non_finite_krylov_result():
    # a NaN relative residual compares false against the GMRES target too
    spec = GridSpec(8, 8)
    r = np.full((8, 8), np.nan)
    with pytest.raises(NewtonError, match="GMRES did not converge"):
        chd._newton_update(spec, LOG, np.zeros((8, 8)), r, 1.0e-3, 0.0, 1)


@pytest.mark.parametrize("capped, raises", [(0.2, True), (0.05, False)])
def test_newton_update_takes_a_capped_krylov_solve_below_its_limit(monkeypatch, capped, raises):
    # a solve stopped at GMRES_MAX_ITER above its forcing term is taken as
    # long as its relative residual is at most GMRES_ACCEPT
    spec = GridSpec(8, 8)
    delta = 0.01 * cosine_mode(spec)

    def capped_solve(spec, d, dt, b):
        return delta, chd.GMRES_MAX_ITER, capped

    monkeypatch.setattr(chd, "_jacobian_solve", capped_solve)
    r = np.ones((8, 8))
    if raises:
        limit = r"iteration 1: relative residual 2\.000e-01 \(limit 1\.0e-01\)"
        with pytest.raises(NewtonError, match=limit):
            chd._newton_update(spec, LOG, np.zeros((8, 8)), r, 1.0e-3, 0.0, 1)
    else:
        phi, step, s, iters = chd._newton_update(spec, LOG, np.zeros((8, 8)), r, 1.0e-3, 0.0, 1)
        assert np.array_equal(phi, delta) and s == 1.0
        assert (step, iters) == (float(np.max(np.abs(delta))), chd.GMRES_MAX_ITER)


def test_divergent_solve_raises_newton_error_not_domain_error():
    # Barrier-clipped updates can shrink a cell's distance to +-1 below
    # one ulp, where phi + s * delta rounds onto the barrier itself.  The
    # trial iterate must be clamped back inside so the failure surfaces
    # as NewtonError instead of a potential domain error.
    from chns.coupled import RunConfig, ScenarioConfig, initial_state

    cfg = RunConfig(
        grid=GridSpec(8, 8),
        params=ModelParams(chi=6.0, potential=LOG),
        dt=0.5,
        t_end=0.5,
        scenario=ScenarioConfig(name="drift", amplitude=5.0),
    )
    state = initial_state(cfg)
    with pytest.raises(NewtonError):
        ch_step(state.phi, state.sigma, state.vel, cfg.params, cfg.dt)


@pytest.mark.parametrize("pparams", [LOG, QUARTIC])
def test_variational_derivative_consistency(pparams, rng):
    spec = GridSpec(12, 12)
    p = ModelParams(chi=0.6, beta=0.9, potential=pparams)
    phi = ScalarField(spec, 0.5 * rng.uniform(-1.0, 1.0, (12, 12)))
    sigma = ScalarField(spec, rng.uniform(-1.0, 1.0, (12, 12)))
    delta = rng.standard_normal((12, 12))
    delta -= delta.mean()
    h = 1.0e-5
    plus = ScalarField(spec, phi.values + h * delta)
    minus = ScalarField(spec, phi.values - h * delta)
    fd = (free_energy(plus, sigma, p) - free_energy(minus, sigma, p)) / (2.0 * h)
    mu = chemical_potential(phi, sigma, p)
    pairing = l2_inner(mu, ScalarField(spec, delta))
    assert fd == pytest.approx(pairing, rel=1.0e-6)


def test_nonlocal_potential_properties(rng):
    spec = GridSpec(10, 10)
    phi = ScalarField(spec, rng.uniform(-0.5, 0.5, (10, 10)))
    nphi, _ = nonlocal_potential(phi)
    assert abs(nphi.values.mean()) <= 1.0e-13
    back = -laplacian_raw(spec, nphi.values)
    centered = phi.values - phi.values.mean()
    assert np.max(np.abs(back - centered)) <= 1.0e-9


def test_gamma_regularization_changes_step(rng):
    spec = GridSpec(8, 8)
    phi = ScalarField(spec, 0.4 * rng.uniform(-1.0, 1.0, (8, 8)))
    sigma = ScalarField.zeros(spec)
    base, _, _ = ch_step(phi, sigma, MacVelocity.zeros(spec), ModelParams(), 0.05)
    damped, _, _ = ch_step(
        phi, sigma, MacVelocity.zeros(spec), ModelParams(gamma=1.0), 0.05
    )
    # gamma damps the update toward phi^n
    assert np.max(np.abs(damped.values - phi.values)) < np.max(
        np.abs(base.values - phi.values)
    )
    assert mean(ScalarField(spec, damped.values)) == pytest.approx(mean(phi), abs=1.0e-14)


def band_limited_ic(spec, seed):
    rng = np.random.default_rng(seed)
    xs = (np.arange(spec.nx) + 0.5) / spec.nx
    ys = (np.arange(spec.ny) + 0.5) / spec.ny
    w = np.zeros((spec.nx, spec.ny))
    for j in range(3):
        for k in range(3):
            if j == 0 and k == 0:
                continue
            amp = rng.uniform(-1.0, 1.0) / float(j * j + k * k) ** 2
            w += amp * np.outer(np.cos(np.pi * j * xs), np.cos(np.pi * k * ys))
    return w / np.max(np.abs(w))


def transported_residual_sum(dt, nsteps):
    """Accumulated defect of the subsystem energy balance under a frozen
    drift velocity.  Transport enters the balance as the work of the
    advected fields against the new potentials."""
    spec = GridSpec(16, 16)
    p = ModelParams(chi=0.2, alpha=0.5, beta=1.0, c0=0.0)
    vel = stream_velocity(spec, 0.5)
    state = make_state(
        spec,
        ScalarField(spec, 0.4 * band_limited_ic(spec, 5)),
        ScalarField(spec, 0.3 * band_limited_ic(spec, 105)),
    )
    state.vel = vel
    f_prev = free_energy(state.phi, state.sigma, p)
    total = 0.0
    for _ in range(nsteps):
        old_phi, old_sigma = state.phi, state.sigma
        state, _ = chd_step(state, p, dt)
        f_new = free_energy(state.phi, state.sigma, p)
        cross = ScalarField(spec, state.sigma.values - p.chi * state.phi.values)
        diss = grad_norm_sq(state.mu) + grad_norm_sq(cross)
        oono = p.alpha * (mean(state.phi) - p.c0) * integrate(state.mu)
        work = l2_inner(advect_scalar(vel, old_phi), state.mu)
        work += l2_inner(advect_scalar(vel, old_sigma), cross)
        total += abs(f_new - f_prev + dt * (diss + oono + work))
        f_prev = f_new
    return total


def test_transported_energy_residual_halves():
    coarse = transported_residual_sum(0.002, 100)
    fine = transported_residual_sum(0.001, 200)
    assert coarse > 0.0 and fine > 0.0
    assert 1.6 <= coarse / fine <= 2.4


def test_model_params_validation():
    with pytest.raises(ValueError, match=r"violates \(H1\)"):
        ModelParams(nu1=0.0)
    with pytest.raises(ValueError, match=r"violates \(H3\): alpha"):
        ModelParams(alpha=-0.1)
    with pytest.raises(ValueError, match=r"violates \(H3\): gamma"):
        ModelParams(gamma=-1.0)
    with pytest.raises(ValueError, match=r"violates \(H3\): c0"):
        ModelParams(c0=1.0)
    zero = ScalarField.zeros(GridSpec(4, 4))
    rest = MacVelocity.zeros(GridSpec(4, 4))
    for step in (ch_step, sigma_step):
        with pytest.raises(ValueError, match="dt must be positive"):
            step(zero, zero, rest, ModelParams(), 0.0)
