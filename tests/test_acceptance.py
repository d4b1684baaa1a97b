"""Acceptance battery: one test and one printed pass/fail line per
criterion.

The scenario trajectories are marched once per module with an explicit
step loop so the phase-bound criterion can audit every run and count
barrier-safeguard activations; the other criteria reuse the same rows.
"""

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from conftest import manufactured_errors, manufactured_march

from chns.chd import ModelParams, chd_step, chemical_potential
from chns.cli import main, parse_config, read_ledger_csv, read_snapshot, write_snapshot
from chns.coupled import (
    RunConfig,
    ScenarioConfig,
    cfl_dt,
    coupled_step,
    initial_state,
)
from chns.diagnostics import free_energy, ledger_row, mass_check, separation
from chns.elliptic import fluctuation_potential
from chns.grid import (
    GridSpec,
    MacVelocity,
    ScalarField,
    div_raw,
    face_inner,
    grad_norm_sq,
    grad_raw,
    l2_inner,
    laplacian_raw,
)
from chns.potential import PotentialParams, psi_prime
from chns.stationary import rate_fit, solve_stationary

COUPLED_PARAMS = ModelParams(chi=0.2, alpha=0.5, beta=1.0)


def report(num, label, ok, extra=""):
    tail = f"; {extra}" if extra else ""
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}{tail}")


@dataclass
class TrackedRun:
    rows: list
    final: object
    clipped: int


def march(cfg):
    """Explicit step loop mirroring the run driver, keeping the
    barrier-safeguard count."""
    state = initial_state(cfg)
    rows = [ledger_row(state, cfg.params)]
    clipped = 0
    step = coupled_step if cfg.scenario.evolves_velocity else chd_step
    while state.t < cfg.t_end - 1.0e-12 * max(cfg.t_end, 1.0):
        dt = min(cfl_dt(state.vel, cfg.dt, cfg.cfl_safety), cfg.t_end - state.t)
        state, rep = step(state, cfg.params, dt)
        clipped += rep.clipped_steps
        rows.append(ledger_row(state, cfg.params, prev=rows[-1], dt=dt, report=rep))
    return TrackedRun(rows=rows, final=state, clipped=clipped)


@pytest.fixture(scope="module")
def droplet_run():
    return march(
        RunConfig(
            grid=GridSpec(32, 32),
            params=COUPLED_PARAMS,
            dt=1.0e-3,
            t_end=1.0,
            scenario=ScenarioConfig(name="droplet"),
            seed=3,
        )
    )


@pytest.fixture(scope="module")
def residual_pair():
    runs = {}
    for dt in (4.0e-3, 2.0e-3):
        runs[dt] = march(
            RunConfig(
                grid=GridSpec(32, 32),
                params=COUPLED_PARAMS,
                dt=dt,
                t_end=1.0,
                scenario=ScenarioConfig(amplitude=0.05),
                seed=3,
            )
        )
    return runs


@pytest.fixture(scope="module")
def decoupled_run():
    return march(
        RunConfig(
            grid=GridSpec(32, 32),
            params=ModelParams(),
            dt=0.1,
            t_end=10.0,
            scenario=ScenarioConfig(name="drift", amplitude=0.05, drift_strength=0.0),
            seed=3,
        )
    )


@pytest.fixture(scope="module")
def long_run():
    return march(
        RunConfig(
            grid=GridSpec(48, 48),
            params=COUPLED_PARAMS,
            dt=0.02,
            t_end=50.0,
            scenario=ScenarioConfig(amplitude=0.05),
            seed=3,
        )
    )


def test_criterion_1_operator_identities():
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in (8, 16, 32, 64):
        spec = GridSpec(n, n)
        f = ScalarField(spec, rng.standard_normal((n, n)))
        g = ScalarField(spec, rng.standard_normal((n, n)))
        w = MacVelocity.zeros(spec)
        w.u[1:-1, :] = rng.standard_normal((n - 1, n))
        w.v[:, 1:-1] = rng.standard_normal((n, n - 1))

        lhs = l2_inner(f, ScalarField(spec, div_raw(spec, w.u, w.v)))
        rhs = -face_inner(MacVelocity(spec, *grad_raw(spec, f.values)), w)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))

        lhs = l2_inner(ScalarField(spec, laplacian_raw(spec, f.values)), g)
        rhs = l2_inner(f, ScalarField(spec, laplacian_raw(spec, g.values)))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))

        u0 = rng.standard_normal((n, n))
        u0 -= u0.mean()
        u = ScalarField(spec, u0)
        rhs_field = ScalarField(spec, -laplacian_raw(spec, u0))
        rhs_field.values -= rhs_field.values.mean()
        back = fluctuation_potential(rhs_field)
        worst = max(
            worst,
            float(np.max(np.abs(back.values - u0)) / np.max(np.abs(u0))),
        )

        nu = fluctuation_potential(u)
        lhs = grad_norm_sq(nu)
        rhs = l2_inner(u, nu)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    ok = worst <= 1.0e-10
    report(1, "operator identities", ok, f"worst rel err {worst:.2e}")
    assert ok


def test_criterion_2_variational_derivative():
    rng = np.random.default_rng(12)
    spec = GridSpec(32, 32)
    worst = 0.0
    for variant in ("logarithmic", "quartic"):
        p = ModelParams(
            chi=0.5,
            beta=0.8,
            potential=PotentialParams(variant, theta=1.0, theta0=2.0),
        )
        phi = ScalarField(spec, 0.5 * rng.uniform(-1.0, 1.0, (32, 32)))
        sigma = ScalarField(spec, rng.standard_normal((32, 32)))
        delta = rng.standard_normal((32, 32))
        delta -= delta.mean()
        h = 1.0e-5
        fp = free_energy(ScalarField(spec, phi.values + h * delta), sigma, p)
        fm = free_energy(ScalarField(spec, phi.values - h * delta), sigma, p)
        fd = (fp - fm) / (2.0 * h)
        mu = chemical_potential(phi, sigma, p)
        pairing = l2_inner(mu, ScalarField(spec, delta))
        worst = max(worst, abs(fd - pairing) / max(abs(fd), abs(pairing)))
    ok = worst <= 1.0e-6
    report(2, "variational derivative", ok, f"worst rel err {worst:.2e}")
    assert ok


def test_criterion_3_exact_mass_laws(droplet_run):
    rep = mass_check(droplet_run.rows, COUPLED_PARAMS)
    steps = len(droplet_run.rows) - 1
    ok = (
        steps >= 1000
        and rep.sigma_drift <= 1.0e-11
        and rep.phi_law_rel_err <= 1.0e-9
    )
    report(
        3,
        "exact mass laws",
        ok,
        f"{steps} steps, sigma drift {rep.sigma_drift:.2e}, "
        f"phi law rel err {rep.phi_law_rel_err:.2e}",
    )
    assert ok


def test_criterion_4_phase_bound(droplet_run, residual_pair, decoupled_run, long_run):
    runs = [droplet_run, decoupled_run, long_run, *residual_pair.values()]
    min_margin = min(r.sep_delta for tr in runs for r in tr.rows)
    clipped = sum(tr.clipped for tr in runs)
    ok = min_margin > 1.0e-12
    report(
        4,
        "phase bound",
        ok,
        f"min margin {min_margin:.3e}, safeguard activations {clipped}",
    )
    assert ok


def test_criterion_5_energy_law(residual_pair, decoupled_run):
    coarse, fine = (
        sum(abs(r.bel_residual) for r in residual_pair[dt].rows)
        for dt in (4.0e-3, 2.0e-3)
    )
    ratio = coarse / fine
    fe = np.array([r.free_energy for r in decoupled_run.rows])
    max_rise = float(np.max(np.diff(fe)))
    ok = 1.5 <= ratio <= 2.7 and max_rise <= 0.0
    report(
        5,
        "energy law",
        ok,
        f"residual ratio {ratio:.3f}, max free-energy rise {max_rise:.2e}",
    )
    assert ok


def test_criterion_6_manufactured_convergence():
    cases = ((16, 1.0e-2), (32, 2.5e-3), (64, 6.25e-4))
    errors = [manufactured_errors(manufactured_march(n, dt, 0.25)) for n, dt in cases]
    space_orders = [
        min(np.log2(c[0] / f[0]), np.log2(c[1] / f[1]))
        for c, f in zip(errors, errors[1:])
    ]

    finals = [manufactured_march(32, dt, 0.25) for dt in (0.025, 0.0125, 0.00625)]
    area = finals[0].grid.cell_area

    def dist(a, b):
        dp = a.phi.values - b.phi.values
        return float(np.sqrt(area * np.sum(dp * dp)))

    time_order = float(np.log2(dist(finals[0], finals[1]) / dist(finals[1], finals[2])))
    ok = all(o >= 1.8 for o in space_orders) and time_order >= 0.8
    report(
        6,
        "manufactured convergence",
        ok,
        f"space orders {[f'{o:.2f}' for o in space_orders]}, time order {time_order:.2f}",
    )
    assert ok


def test_criterion_7_long_time_structure(long_run):
    kin = np.array([r.kinetic for r in long_run.rows])
    ke_ok = kin[-1] <= 1.0e-3 * kin.max()

    sep = separation(long_run.rows)
    sep_ok = sep.min_margin > 0.0 and sep.running_min_nondecreasing

    final = long_run.final
    dev = final.sigma.values - COUPLED_PARAMS.chi * final.phi.values
    dev_ok = float(dev.std()) <= 1.0e-3

    eq = solve_stationary(final.phi, final.sigma, COUPLED_PARAMS)
    dist = float(np.max(np.abs(final.phi.values - eq.phi.values)))
    f_end = free_energy(final.phi, final.sigma, COUPLED_PARAMS)
    # equality is legitimate; allow summation dust on the comparison
    stat_ok = dist <= 1.0e-3 and eq.free_energy_value <= f_end + 1.0e-12

    ok = ke_ok and sep_ok and dev_ok and stat_ok
    report(
        7,
        "long-time structure",
        ok,
        f"KE ratio {kin[-1] / kin.max():.2e}, tail margin {sep.min_margin:.3f}, "
        f"std(sigma - chi phi) {dev.std():.2e}, |phi(T) - phi_inf| {dist:.2e}",
    )
    assert ok


def test_criterion_8_rate_fit_algebra():
    times = np.linspace(0.0, 9.0, 25)
    worst = 0.0
    for m in (-0.5, -1.0, -2.0):
        fit = rate_fit(times, (1.0 + times) ** m)
        kappa = -m / (1.0 - 2.0 * m)
        worst = max(worst, abs(fit.kappa_hat - kappa))
    ok = worst <= 1.0e-10
    report(8, "rate-fit algebra", ok, f"worst |kappa error| {worst:.2e}")
    assert ok


def test_criterion_9_determinism_and_io(tmp_path):
    cfg = tmp_path / "case.ini"
    cfg.write_text("[grid]\nnx = 16\nny = 16\n\n[time]\ndt = 0.02\nt_end = 0.1\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["run", "--config", str(cfg), "--out", str(out_a), "--seed", "5"])
    code_b = main(["run", "--config", str(cfg), "--out", str(out_b), "--seed", "5"])
    csv_same = (out_a / "ledger.csv").read_bytes() == (out_b / "ledger.csv").read_bytes()

    state = read_snapshot(out_a / "final.bin")
    write_snapshot(tmp_path / "copy.bin", state)
    snap_same = (tmp_path / "copy.bin").read_bytes() == (out_a / "final.bin").read_bytes()

    ok = code_a == 0 and code_b == 0 and csv_same and snap_same
    report(
        9,
        "determinism and io",
        ok,
        f"csv byte-identical {csv_same}, snapshot round trip bit-exact {snap_same}",
    )
    assert ok


def test_separating_droplet_stays_separated_under_flow(tmp_path, capsys):
    # the README's phase-separating config, the regime the paper studies:
    # a droplet of width 1 on a 20 x 20 box keeps its interface, and the
    # capillary force drives a real flow on the way there
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = tmp_path / "case.ini"
    cfg.write_text(readme.split("```ini\n")[2].split("```", 1)[0])
    parsed = parse_config(cfg)
    assert parsed.grid == GridSpec(64, 64, 20.0, 20.0)
    assert (parsed.scenario.name, parsed.scenario.width) == ("droplet", 1.0)
    assert (parsed.params.chi, parsed.params.alpha, parsed.params.beta) == (0.2, 0.5, 0.0)
    assert (parsed.dt, parsed.t_end) == (0.05, 20.0)

    # exit 0: the mass laws and the phase bound held at every step
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    rows = read_ledger_csv(out / "ledger.csv")
    margin = rows[-1].sep_delta
    peak_kinetic = max(row.kinetic for row in rows)
    ok = code == 0 and 0.0 < margin < 0.1 and peak_kinetic > 1.0e-3
    # printed at the end, since each capsys read below takes what came before
    notes = [
        f"separating droplet: exit {code}, final margin {margin:.4e}, "
        f"peak kinetic {peak_kinetic:.4e}"
    ]
    assert ok

    # and the README's next command relaxes that state to its nonuniform
    # equilibrium, with Oono's term off and on; at beta = 0.1 the residual
    # swings under switched evolution relaxation on the way
    p = parsed.params
    target = parsed.solver.rel_tol * p.theta0
    seed = read_snapshot(out / "final.bin")
    for beta in (0.0, 0.1):
        eq_dir = tmp_path / f"eq_beta_{beta}"
        capsys.readouterr()
        code = main([
            "stationary", "--config", str(cfg), "--set", f"params.beta={beta}",
            "--seed-snapshot", str(out / "final.bin"), "--out", str(eq_dir),
        ])
        stdout = capsys.readouterr().out
        assert code == 0
        found = re.search(r"residual (\S+) after (\d+) iterations", stdout)
        reported, pseudo_steps = float(found[1]), int(found[2])
        eq = read_snapshot(eq_dir / "equilibrium.bin")
        phi = eq.phi.values
        r = -laplacian_raw(eq.grid, phi) + psi_prime(phi, p.potential) - p.chi * eq.sigma.values
        r += beta * fluctuation_potential(eq.phi).values
        notes.append(
            f"separated equilibrium, beta = {beta}: {pseudo_steps} pseudo-steps, "
            f"residual {reported:.3e}"
        )
        assert pseudo_steps <= 15
        assert reported <= target
        assert np.max(np.abs(r - r.mean())) <= target
        assert abs(phi.mean() - p.c0) <= 1.0e-12
        assert abs(eq.sigma.values.mean() - seed.sigma.values.mean()) <= 1.0e-12
        assert np.max(np.abs(phi)) < 1.0
    print("\n".join(notes))
