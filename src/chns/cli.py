"""Command-line front end: configured runs, equilibria, rate fits, checks.

Configuration is INI-style text with sections ``[grid]``, ``[params]``,
``[time]``, ``[scenario]`` and ``[output]``; every key has a default, so
a minimal file only needs the grid size.  Unknown sections or keys are
rejected; a key repeated within a section keeps its last value and emits
a warning.  ``--set section.key=value`` overrides individual entries.

Outputs are a per-step CSV ledger (full round-trip precision, so every
value re-parses to the exact double) and binary snapshots: an ASCII
header line ``CHNS1 nx ny lx ly t`` followed by the fields phi, mu,
sigma, pressure, u-faces, v-faces as row-major little-endian float64.
Runs are byte-for-byte reproducible for a fixed configuration and seed.

Exit codes: 0 success, 1 invariant or analysis failure, 2 usage or
configuration error, 3 solver failure.  The environment variable
``CHNS_THREADS`` caps numerical thread parallelism (0 or unset: automatic).
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys
import warnings
from configparser import ConfigParser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .chd import ModelParams, NewtonError, chemical_potential
from .coupled import RunConfig, ScenarioConfig, run
from .diagnostics import LEDGER_FIELDS, LedgerRow, mass_check, separation
from .elliptic import SolverError
from .grid import (
    GridSpec,
    MacVelocity,
    ScalarField,
    div_faces,
    face_inner,
    grad_norm_sq,
    grad_to_faces,
    l2_inner,
    laplacian_neumann,
)
from .hydro import CflError
from .state import SimState
from .stationary import (
    RateFitError,
    StationaryError,
    deficit_norm,
    rate_fit,
    solve_stationary,
)

__all__ = [
    "CheckTolerances",
    "CliInvocation",
    "ConfigError",
    "SnapshotError",
    "main",
    "parse_config",
    "read_ledger_csv",
    "read_snapshot",
    "run_checks",
    "write_ledger_csv",
    "write_snapshot",
]

SNAPSHOT_MAGIC = "CHNS1"


class ConfigError(ValueError):
    """Malformed configuration, overrides or input files."""


class SnapshotError(ConfigError):
    """Snapshot file is not in the expected format."""


@dataclass
class CliInvocation:
    """Parsed command line, kept for reporting and tests."""

    command: str
    config_path: str | None = None
    overrides: list = field(default_factory=list)
    out_dir: str | None = None
    seed: int | None = None


_SECTION_KEYS = {
    "grid": ("nx", "ny", "lx", "ly"),
    "params": (
        "nu1",
        "nu2",
        "theta",
        "theta0",
        "chi",
        "alpha",
        "beta",
        "c0",
        "gamma",
        "potential",
    ),
    "time": ("dt", "t_end", "cfl_safety"),
    "scenario": (
        "name",
        "amplitude",
        "sigma_mean",
        "radius",
        "width",
        "center_x",
        "center_y",
        "drift_strength",
        "seed",
    ),
    "output": ("cadence",),
}

_DEFAULTS = {
    "grid": {"nx": "64", "ny": "64", "lx": "1.0", "ly": "1.0"},
    "params": {
        "nu1": "1.0",
        "nu2": "1.0",
        "theta": "1.0",
        "theta0": "2.0",
        "chi": "0.0",
        "alpha": "0.0",
        "beta": "0.0",
        "c0": "0.0",
        "gamma": "0.0",
        "potential": "logarithmic",
    },
    "time": {"dt": "1e-3", "t_end": "1.0", "cfl_safety": "0.5"},
    "scenario": {
        "name": "spinodal",
        "amplitude": "0.05",
        "sigma_mean": "0.0",
        "radius": "0.25",
        "width": "0.05",
        "center_x": "0.5",
        "center_y": "0.5",
        "drift_strength": "0.1",
        "seed": "0",
    },
    "output": {"cadence": "0"},
}


def _warn_duplicate_keys(text: str) -> None:
    section = None
    seen: dict[tuple[str, str], int] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        m = re.match(r"\[(.+)\]\s*$", line)
        if m:
            section = m.group(1).strip()
            continue
        m = re.match(r"([^=:\s][^=:]*)[=:]", line)
        if m and section is not None:
            key = m.group(1).strip().lower()
            seen[(section, key)] = seen.get((section, key), 0) + 1
    for (sec, key), count in seen.items():
        if count > 1:
            warnings.warn(
                f"duplicate key {key!r} in [{sec}]; keeping the last value",
                UserWarning,
                stacklevel=3,
            )


def parse_config(path: str | os.PathLike | None, overrides: list | None = None) -> RunConfig:
    """Read a config file (optional) and apply dotted overrides.

    Overrides take the form ``section.key=value``.  Unknown sections or
    keys raise :class:`ConfigError`, as do values the model rejects.
    """
    table = {sec: dict(defaults) for sec, defaults in _DEFAULTS.items()}
    if path is not None:
        text = Path(path).read_text()
        _warn_duplicate_keys(text)
        parser = ConfigParser(strict=False, interpolation=None)
        parser.read_string(text, source=str(path))
        for sec in parser.sections():
            if sec not in _SECTION_KEYS:
                raise ConfigError(f"unknown config section [{sec}]")
            for key, value in parser.items(sec):
                if key not in _SECTION_KEYS[sec]:
                    raise ConfigError(f"unknown key {key!r} in section [{sec}]")
                table[sec][key] = value
    for item in overrides or []:
        m = re.fullmatch(r"([a-z]+)\.([a-z0-9_]+)=(.*)", item.strip())
        if not m:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        sec, key, value = m.group(1), m.group(2), m.group(3)
        if sec not in _SECTION_KEYS or key not in _SECTION_KEYS[sec]:
            raise ConfigError(f"unknown override target {sec}.{key}")
        table[sec][key] = value
    return _build_run_config(table)


def _to_int(sec: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{sec}.{key} must be an integer, got {raw!r}") from exc


def _to_float(sec: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{sec}.{key} must be a number, got {raw!r}") from exc


def _build_run_config(table: dict) -> RunConfig:
    from .potential import PotentialParams

    g = table["grid"]
    p = table["params"]
    t = table["time"]
    s = table["scenario"]
    o = table["output"]
    try:
        grid = GridSpec(
            nx=_to_int("grid", "nx", g["nx"]),
            ny=_to_int("grid", "ny", g["ny"]),
            lx=_to_float("grid", "lx", g["lx"]),
            ly=_to_float("grid", "ly", g["ly"]),
        )
        potential = PotentialParams(
            variant=p["potential"].strip().lower(),
            theta=_to_float("params", "theta", p["theta"]),
            theta0=_to_float("params", "theta0", p["theta0"]),
        )
        params = ModelParams(
            nu1=_to_float("params", "nu1", p["nu1"]),
            nu2=_to_float("params", "nu2", p["nu2"]),
            chi=_to_float("params", "chi", p["chi"]),
            alpha=_to_float("params", "alpha", p["alpha"]),
            beta=_to_float("params", "beta", p["beta"]),
            c0=_to_float("params", "c0", p["c0"]),
            gamma=_to_float("params", "gamma", p["gamma"]),
            potential=potential,
        )
        scenario = ScenarioConfig(
            name=s["name"].strip().lower(),
            amplitude=_to_float("scenario", "amplitude", s["amplitude"]),
            sigma_mean=_to_float("scenario", "sigma_mean", s["sigma_mean"]),
            radius=_to_float("scenario", "radius", s["radius"]),
            width=_to_float("scenario", "width", s["width"]),
            center_x=_to_float("scenario", "center_x", s["center_x"]),
            center_y=_to_float("scenario", "center_y", s["center_y"]),
            drift_strength=_to_float("scenario", "drift_strength", s["drift_strength"]),
        )
        return RunConfig(
            grid=grid,
            params=params,
            dt=_to_float("time", "dt", t["dt"]),
            t_end=_to_float("time", "t_end", t["t_end"]),
            cfl_safety=_to_float("time", "cfl_safety", t["cfl_safety"]),
            scenario=scenario,
            seed=_to_int("scenario", "seed", s["seed"]),
            cadence=_to_int("output", "cadence", o["cadence"]),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ledger CSV


def _format_value(name: str, value) -> str:
    if name in ("step", "newton_iters"):
        return str(int(value))
    return repr(float(value))


def write_ledger_csv(rows: list, path: str | os.PathLike) -> None:
    """Write the ledger with full round-trip precision."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(LEDGER_FIELDS)
        for row in rows:
            writer.writerow(
                [_format_value(name, getattr(row, name)) for name in LEDGER_FIELDS]
            )


def read_ledger_csv(path: str | os.PathLike) -> list:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != LEDGER_FIELDS:
            raise ConfigError(f"{path}: unexpected ledger header {header}")
        rows = []
        for record in reader:
            if len(record) != len(LEDGER_FIELDS):
                raise ConfigError(f"{path}: ledger row with {len(record)} fields")
            kwargs = {}
            for name, raw in zip(LEDGER_FIELDS, record):
                try:
                    kwargs[name] = int(raw) if name in ("step", "newton_iters") else float(raw)
                except ValueError as exc:
                    raise ConfigError(
                        f"{path}: ledger line {reader.line_num}: {name} is not a number: {raw!r}"
                    ) from exc
            rows.append(LedgerRow(**kwargs))
    return rows


# snapshots


def write_snapshot(path: str | os.PathLike, state: SimState) -> None:
    """Binary state dump: ASCII header, then raw little-endian doubles."""
    spec = state.grid
    header = (
        f"{SNAPSHOT_MAGIC} {spec.nx} {spec.ny} {spec.lx!r} {spec.ly!r} {state.t!r}\n"
    )
    with open(path, "wb") as handle:
        handle.write(header.encode("ascii"))
        for arr in (
            state.phi.values,
            state.mu.values,
            state.sigma.values,
            state.pressure.values,
            state.vel.u,
            state.vel.v,
        ):
            handle.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_snapshot(path: str | os.PathLike) -> SimState:
    with open(path, "rb") as handle:
        header = handle.readline()
        payload = handle.read()
    try:
        tokens = header.decode("ascii").split()
    except UnicodeDecodeError as exc:
        raise SnapshotError(f"{path}: header is not ASCII") from exc
    if len(tokens) != 6 or tokens[0] != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path}: bad snapshot header {header!r}")
    try:
        nx, ny = int(tokens[1]), int(tokens[2])
        lx, ly, t = float(tokens[3]), float(tokens[4]), float(tokens[5])
        spec = GridSpec(nx=nx, ny=ny, lx=lx, ly=ly)
    except ValueError as exc:
        raise SnapshotError(f"{path}: bad snapshot header {header!r}: {exc}") from exc
    counts = [nx * ny] * 4 + [(nx + 1) * ny, nx * (ny + 1)]
    total = sum(counts) * 8
    if len(payload) != total:
        raise SnapshotError(
            f"{path}: payload has {len(payload)} bytes, expected {total}"
        )
    fields = []
    offset = 0
    for count in counts:
        fields.append(
            np.frombuffer(payload, dtype="<f8", count=count, offset=offset).copy()
        )
        offset += count * 8
    phi, mu, sigma, pressure, u, v = fields
    try:
        vel = MacVelocity(spec, u.reshape(nx + 1, ny), v.reshape(nx, ny + 1))
    except ValueError as exc:
        raise SnapshotError(f"{path}: {exc}") from exc
    return SimState(
        vel=vel,
        phi=ScalarField(spec, phi.reshape(nx, ny)),
        mu=ScalarField(spec, mu.reshape(nx, ny)),
        sigma=ScalarField(spec, sigma.reshape(nx, ny)),
        pressure=ScalarField(spec, pressure.reshape(nx, ny)),
        t=t,
        step=0,
    )


# invariant checks


@dataclass(frozen=True)
class CheckTolerances:
    """Pass thresholds for the quick invariant battery."""

    adjointness: float = 1.0e-10
    self_adjoint: float = 1.0e-12
    neumann_round_trip: float = 1.0e-8
    dual_norm_identity: float = 1.0e-10
    variational: float = 1.0e-6
    sigma_mean_drift: float = 1.0e-11
    phi_mean_law: float = 1.0e-9


def run_checks(cfg: RunConfig, tols: CheckTolerances = CheckTolerances()) -> list:
    """Fast self-checks on the configured grid and parameters.

    Returns ``(name, passed, detail)`` triples; used by the ``check``
    subcommand and handy in test harnesses.
    """
    from .diagnostics import free_energy

    spec = cfg.grid
    p = cfg.params
    rng = np.random.default_rng(2024)
    results = []

    f = ScalarField(spec, rng.standard_normal((spec.nx, spec.ny)))
    w = MacVelocity.zeros(spec)
    w.u[1:-1, :] = rng.standard_normal((spec.nx - 1, spec.ny))
    w.v[:, 1:-1] = rng.standard_normal((spec.nx, spec.ny - 1))
    lhs = l2_inner(f, div_faces(w))
    rhs = -face_inner(grad_to_faces(f), w)
    scale = max(abs(lhs), abs(rhs), 1.0e-300)
    err = abs(lhs - rhs) / scale
    results.append(("gradient-divergence adjointness", err <= tols.adjointness, f"rel err {err:.2e}"))

    g = ScalarField(spec, rng.standard_normal((spec.nx, spec.ny)))
    lhs = l2_inner(laplacian_neumann(f), g)
    rhs = l2_inner(f, laplacian_neumann(g))
    scale = max(abs(lhs), abs(rhs), 1.0e-300)
    err = abs(lhs - rhs) / scale
    results.append(("laplacian self-adjointness", err <= tols.self_adjoint, f"rel err {err:.2e}"))

    from .elliptic import inverse_neumann_laplacian

    u0 = rng.standard_normal((spec.nx, spec.ny))
    u0 -= u0.mean()
    u = ScalarField(spec, u0)
    rhs_field = ScalarField(spec, -laplacian_neumann(u).values)
    rhs_field.values -= rhs_field.values.mean()
    back = inverse_neumann_laplacian(rhs_field)
    err = float(np.max(np.abs(back.values - u0))) / max(float(np.max(np.abs(u0))), 1e-300)
    results.append(("inverse-laplacian round trip", err <= tols.neumann_round_trip, f"rel err {err:.2e}"))

    src = ScalarField(spec, u0.copy())
    nsrc = inverse_neumann_laplacian(src)
    lhs = grad_norm_sq(nsrc)
    rhs = l2_inner(src, nsrc)
    scale = max(abs(lhs), abs(rhs), 1.0e-300)
    err = abs(lhs - rhs) / scale
    results.append(("dual-norm identity", err <= tols.dual_norm_identity, f"rel err {err:.2e}"))

    phi = ScalarField(spec, 0.6 * (rng.uniform(-1.0, 1.0, (spec.nx, spec.ny))))
    sigma = ScalarField(spec, 0.3 * rng.standard_normal((spec.nx, spec.ny)))
    delta = rng.standard_normal((spec.nx, spec.ny))
    delta -= delta.mean()
    h = 1.0e-5
    fp = free_energy(ScalarField(spec, phi.values + h * delta), sigma, p)
    fm = free_energy(ScalarField(spec, phi.values - h * delta), sigma, p)
    fd = (fp - fm) / (2.0 * h)
    mu = chemical_potential(phi, sigma, p)
    pairing = l2_inner(mu, ScalarField(spec, delta))
    scale = max(abs(fd), abs(pairing), 1.0e-300)
    err = abs(fd - pairing) / scale
    results.append(("variational derivative", err <= tols.variational, f"rel err {err:.2e}"))

    small = RunConfig(
        grid=GridSpec(nx=min(spec.nx, 16), ny=min(spec.ny, 16), lx=spec.lx, ly=spec.ly),
        params=p,
        dt=1.0e-2,
        t_end=0.2,
        scenario=cfg.scenario if cfg.scenario.name != "droplet" else ScenarioConfig(),
        seed=cfg.seed,
    )
    _, rows = run(small)
    report = mass_check(rows, p)
    # scenarios that start on target have a rounding-dust deficit; judge
    # those on the absolute deviation instead of a dust-over-dust ratio
    phi_ok = (
        report.phi_abs_dev <= tols.sigma_mean_drift
        or report.phi_law_rel_err <= tols.phi_mean_law
    )
    ok = report.sigma_drift <= tols.sigma_mean_drift and phi_ok
    results.append(
        (
            "mass laws over 20 steps",
            ok,
            f"sigma drift {report.sigma_drift:.2e}, phi dev {report.phi_abs_dev:.2e}",
        )
    )
    return results


# thread cap


def _apply_thread_cap() -> None:
    raw = os.environ.get("CHNS_THREADS")
    if not raw:
        return
    try:
        n = int(raw)
    except ValueError:
        warnings.warn(f"ignoring non-integer CHNS_THREADS={raw!r}", UserWarning)
        return
    if n < 0:
        warnings.warn(f"ignoring negative CHNS_THREADS={n}", UserWarning)
        return
    if n == 0:
        return  # automatic
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(limits=n)
    except ImportError:
        # best effort for subprocesses and late-loading BLAS backends
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, str(n))


# subcommands


def _cmd_run(inv: CliInvocation) -> int:
    cfg = parse_config(inv.config_path, inv.overrides)
    if inv.seed is not None:
        from dataclasses import replace

        cfg = replace(cfg, seed=inv.seed)
    out_dir = Path(inv.out_dir or "chns_out")
    out_dir.mkdir(parents=True, exist_ok=True)

    def record(state: SimState, row) -> None:
        if cfg.cadence > 0:
            write_snapshot(out_dir / f"snap_{state.step:08d}.bin", state)

    final, rows = run(cfg, on_record=record)
    write_ledger_csv(rows, out_dir / "ledger.csv")
    write_snapshot(out_dir / "final.bin", final)

    report = mass_check(rows, cfg.params)
    sep = separation(rows)
    print(
        f"run: {final.step} steps to t = {final.t!r}; "
        f"total energy {rows[-1].total_energy:.6e}; "
        f"sigma mean drift {report.sigma_drift:.2e}; "
        f"separation margin {sep.final_margin:.3e}"
    )
    print(f"ledger: {out_dir / 'ledger.csv'}")
    print(f"final state: {out_dir / 'final.bin'}")
    if cfg.params.potential.variant == "logarithmic" and sep.min_margin <= 1.0e-12:
        print("invariant failure: phase bound violated (separation margin below 1e-12)", file=sys.stderr)
        return 1
    phi_law_broken = report.phi_abs_dev > 1.0e-10 and report.phi_law_rel_err > 1.0e-8
    if report.sigma_drift > 1.0e-10 or phi_law_broken:
        print("invariant failure: mass law violated beyond tolerance", file=sys.stderr)
        return 1
    return 0


def _cmd_stationary(inv: CliInvocation, seed_snapshot: str) -> int:
    cfg = parse_config(inv.config_path, inv.overrides)
    state = read_snapshot(seed_snapshot)
    if state.grid != cfg.grid:
        raise ConfigError(
            f"snapshot grid {state.grid} does not match configured grid {cfg.grid}"
        )
    eq = solve_stationary(state.phi, state.sigma, cfg.params, cfg.solver)
    out_dir = Path(inv.out_dir) if inv.out_dir else Path(seed_snapshot).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    eq_state = SimState(
        vel=MacVelocity.zeros(cfg.grid),
        phi=eq.phi,
        mu=chemical_potential(eq.phi, eq.sigma, cfg.params),
        sigma=eq.sigma,
        pressure=ScalarField.zeros(cfg.grid),
        t=state.t,
        step=0,
    )
    path = out_dir / "equilibrium.bin"
    write_snapshot(path, eq_state)
    print(
        f"stationary: residual {eq.residual_inf:.3e} after {eq.iterations} iterations; "
        f"free energy {eq.free_energy_value:.8e}; "
        f"means phi {eq.mean_phi!r}, sigma {eq.mean_sigma!r}"
    )
    print(f"equilibrium: {path}")
    return 0


def _cmd_ratefit(ledger_path: str, equilibrium_path: str) -> int:
    rows = read_ledger_csv(ledger_path)
    eq_state = read_snapshot(equilibrium_path)
    snap_dir = Path(ledger_path).parent
    snaps = sorted(snap_dir.glob("snap_*.bin"))
    if len(snaps) < 3:
        raise ConfigError(
            f"need at least 3 periodic snapshots next to {ledger_path} "
            "(rerun with [output] cadence > 0)"
        )
    times = []
    deficits = []
    for snap in snaps:
        state = read_snapshot(snap)
        if state.grid != eq_state.grid:
            raise ConfigError(f"{snap}: grid does not match the equilibrium snapshot")
        times.append(state.t)
        deficits.append(deficit_norm(state.phi, eq_state.phi))
    fit = rate_fit(np.asarray(times), np.asarray(deficits))
    print(
        f"ratefit: kappa_hat = {fit.kappa_hat:.6f} from slope {fit.slope:.6f} "
        f"over {fit.n_points} points (r^2 = {fit.r_squared:.6f}); "
        f"ledger had {len(rows)} rows"
    )
    if fit.flagged:
        print(f"flagged: {fit.reason}")
    return 0


def _cmd_check(inv: CliInvocation) -> int:
    cfg = parse_config(inv.config_path, inv.overrides)
    results = run_checks(cfg)
    failed = [name for name, ok, _ in results if not ok]
    for name, ok, detail in results:
        print(f"{'OK  ' if ok else 'FAIL'} {name}: {detail}")
    if failed:
        print(f"invariant failure: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chns",
        description="Phase-field / flow / solute solver on a staggered grid",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="INI-style configuration file")
        sp.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override a single config entry (repeatable)",
        )

    sp_run = sub.add_parser("run", help="march a scenario and write ledger plus snapshots")
    add_common(sp_run)
    sp_run.add_argument("--out", dest="out_dir", help="output directory (default chns_out)")
    sp_run.add_argument("--seed", type=int, help="override the scenario seed")

    sp_st = sub.add_parser("stationary", help="relax a snapshot to a stationary state")
    add_common(sp_st)
    sp_st.add_argument("--seed-snapshot", required=True, help="snapshot to relax from")
    sp_st.add_argument("--out", dest="out_dir", help="output directory (default: beside the snapshot)")

    sp_rf = sub.add_parser("ratefit", help="fit the algebraic decay rate toward an equilibrium")
    sp_rf.add_argument("--ledger", required=True, help="ledger.csv from a run with snapshots")
    sp_rf.add_argument("--equilibrium", required=True, help="equilibrium snapshot")

    sp_ck = sub.add_parser("check", help="run the quick invariant battery")
    add_common(sp_ck)
    return parser


def main(argv: list | None = None) -> int:
    _apply_thread_cap()
    parser = _build_parser()
    args = parser.parse_args(argv)
    inv = CliInvocation(
        command=args.command,
        config_path=getattr(args, "config", None),
        overrides=list(getattr(args, "overrides", [])),
        out_dir=getattr(args, "out_dir", None),
        seed=getattr(args, "seed", None),
    )
    try:
        if args.command == "run":
            return _cmd_run(inv)
        if args.command == "stationary":
            return _cmd_stationary(inv, args.seed_snapshot)
        if args.command == "ratefit":
            return _cmd_ratefit(args.ledger, args.equilibrium)
        if args.command == "check":
            return _cmd_check(inv)
        parser.error(f"unknown command {args.command!r}")
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RateFitError as exc:
        print(f"rate fit refused: {exc}", file=sys.stderr)
        return 1
    except (SolverError, NewtonError, StationaryError, CflError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
