"""Command-line front end: configured runs, equilibria, rate fits, checks.

Configuration is INI-style text with sections ``[grid]``, ``[params]``,
``[time]``, ``[scenario]`` and ``[output]``.  The config dataclasses are
the schema: a key sets the field of the same name (``_SCHEMA`` lists the
three that sit elsewhere), is converted by that field's type, and takes
the field's default when left out; the grid defaults to 64 x 64.
Unknown sections or keys, keys under ``[DEFAULT]``, and a section or a
key within a section given twice are rejected.  ``--set
section.key=value`` overrides individual entries.

Outputs are a per-step CSV ledger (full round-trip precision, so every
value re-parses to the exact double) and binary snapshots: an ASCII
header line ``CHNS1 nx ny lx ly t`` followed by the fields phi, mu,
sigma, pressure, u-faces, v-faces as row-major little-endian float64.
Runs are byte-for-byte reproducible for a fixed configuration and seed.
``run`` and ``stationary`` check every output before the first step or
pseudo-step, and the output directory is made when the first file is
written, so a command that fails before that leaves none behind.

Exit codes: 0 success, 1 invariant or analysis failure, 2 usage or
configuration error, 3 solver failure.  BLAS thread counts follow the
standard ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS`` variables, which
must be set before the process starts; outputs do not depend on them.
Under glibc, :func:`main` first keeps freed heap memory mapped for the
life of the command (:func:`_keep_freed_heap_mapped`); outputs do not
depend on that either.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import ctypes
import math
import os
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .chd import ModelParams, chemical_potential
from .coupled import RunConfig, ScenarioConfig, run
from .diagnostics import (
    LEDGER_FIELDS,
    LedgerRow,
    MassReport,
    free_energy,
    mass_check,
)
from .elliptic import SolverError, fluctuation_potential
from .grid import (
    GridSpec,
    MacVelocity,
    ScalarField,
    div_raw,
    grad_norm_sq,
    grad_raw,
    inner_raw,
    l2_inner,
    laplacian_raw,
)
from .potential import BOUND_MARGIN, PotentialDomainError, PotentialParams
from .state import SimState
from .stationary import RateFitError, deficit_norm, rate_fit, solve_stationary

__all__ = [
    "ConfigError",
    "SnapshotError",
    "main",
    "parse_config",
    "read_snapshot",
    "run_checks",
    "write_ledger_csv",
    "write_snapshot",
]

SNAPSHOT_MAGIC = "CHNS1"

# pass thresholds of the invariant battery in run_checks
ADJOINTNESS_TOL = 1.0e-10
SELF_ADJOINT_TOL = 1.0e-12
ROUND_TRIP_TOL = 1.0e-8
DUAL_NORM_TOL = 1.0e-10
VARIATIONAL_TOL = 1.0e-6
# mass laws, judged alike by run_checks and by `chns run`
SIGMA_DRIFT_TOL = 1.0e-11
PHI_DEV_TOL = 1.0e-11
PHI_LAW_TOL = 1.0e-9

# glibc mallopt parameters (malloc.h) and the values _keep_freed_heap_mapped sets
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 1 << 30


class ConfigError(ValueError):
    """Malformed configuration, overrides or input files."""


class SnapshotError(ConfigError):
    """Snapshot file is not in the expected format."""


def _keys(cls, skip: tuple = ()) -> dict:
    """``key -> (cls, key)`` for each int, float or str field of ``cls``.

    The model modules postpone annotations, so ``f.type`` is the
    annotation's text.
    """
    return {
        f.name: (cls, f.name)
        for f in fields(cls)
        if f.type in ("int", "float", "str") and f.name not in skip
    }


#: ``[section] key -> (dataclass, field)``: a key names the field it sets
#: and takes that field's default, except where spelled out here
_SCHEMA = {
    "grid": _keys(GridSpec),
    "params": {
        **_keys(ModelParams),
        **_keys(PotentialParams, skip=("variant",)),
        "potential": (PotentialParams, "variant"),
    },
    "time": _keys(RunConfig, skip=("seed", "cadence")),
    "scenario": {**_keys(ScenarioConfig), "seed": (RunConfig, "seed")},
    "output": {"cadence": (RunConfig, "cadence")},
}

#: GridSpec has no default size; the CLI runs 64 x 64 unless told otherwise
_GRID_DEFAULT = {"nx": 64, "ny": 64}


def parse_config(path: str | os.PathLike | None, overrides: list | None = None) -> RunConfig:
    """Read a config file (optional) and apply dotted overrides.

    Overrides take the form ``section.key=value``.  Unknown sections or
    keys raise :class:`ConfigError`, as do values the model rejects; such a
    message names the rejected keys, and the file for a key set there.
    """
    given = {}  # (section, key) -> (label naming the key and its file, raw text)
    if path is not None:
        parser = configparser.ConfigParser(strict=True, interpolation=None)
        try:
            parser.read_string(Path(path).read_text(encoding="utf-8"), source=str(path))
        except (configparser.Error, UnicodeDecodeError, OSError) as exc:
            raise ConfigError(f"{path}: cannot read config: {_one_line(exc)}") from exc
        if parser.defaults():
            raise ConfigError(f"{path}: unknown config section [{parser.default_section}]")
        for sec in parser.sections():
            if sec not in _SCHEMA:
                raise ConfigError(f"{path}: unknown config section [{sec}]")
            for key, value in parser.items(sec):
                if key not in _SCHEMA[sec]:
                    raise ConfigError(f"{path}: unknown key {key!r} in section [{sec}]")
                given[sec, key] = (f"{path}: {sec}.{key}", value)
    for item in overrides or []:
        m = re.fullmatch(r"([a-z]+)\.([a-z0-9_]+)=(.*)", item.strip())
        if not m:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        sec, key, value = m.group(1), m.group(2), m.group(3)
        if key not in _SCHEMA.get(sec, ()):
            raise ConfigError(f"unknown override target {sec}.{key}")
        given[sec, key] = (f"{sec}.{key}", value)
    return _build_run_config(given)


def _one_line(exc: Exception) -> str:
    """The exception's message with its line breaks folded, so that the
    error report stays one line."""
    return " ".join(str(exc).split())


def _convert(kind: str, label: str, raw: str):
    if kind == "str":
        return raw.strip().lower()
    try:
        return int(raw) if kind == "int" else float(raw)
    except ValueError as exc:
        wanted = "an integer" if kind == "int" else "a number"
        raise ConfigError(f"{label} must be {wanted}, got {raw!r}") from exc


def _build_run_config(given: dict) -> RunConfig:
    """Build the nested dataclasses from ``{(section, key): (label, raw text)}``."""
    raw = {_SCHEMA[sec][key]: entry for (sec, key), entry in given.items()}
    built = {}
    # each dataclass is built, and validated, before the ones holding it
    for cls in (GridSpec, PotentialParams, ModelParams, ScenarioConfig, RunConfig):
        base = dict(_GRID_DEFAULT) if cls is GridSpec else {}
        values, labels = {}, {}
        for f in fields(cls):
            if f.type in built:
                base[f.name] = built[f.type]
            elif (cls, f.name) in raw:
                labels[f.name], text = raw[cls, f.name]
                values[f.name] = _convert(f.type, labels[f.name], text)
        built[cls.__name__] = _validated(cls, base, values, labels)
    return built["RunConfig"]


def _validated(cls, base: dict, values: dict, labels: dict):
    """``cls`` built from ``base`` updated by the given ``values``.

    A rejection raises :class:`ConfigError` naming the given keys behind
    it: each key whose reset to the default alone lets ``cls`` build or,
    if no single reset does, each key whose reset changes the rejection.
    """
    try:
        return cls(**{**base, **values})
    except ValueError as exc:
        message = str(exc)
    outcomes = {}
    for name, label in labels.items():
        try:
            cls(**{**base, **{k: v for k, v in values.items() if k != name}})
            outcomes[label] = None
        except ValueError as exc:
            outcomes[label] = str(exc)
    blamed = [label for label, out in outcomes.items() if out is None]
    blamed = blamed or [label for label, out in outcomes.items() if out != message]
    raise ConfigError(f"{', '.join(blamed)}: {message}" if blamed else message)


# ledger CSV

#: ledger columns written as integers; every other column is a float
_LEDGER_INTS = frozenset(f.name for f in fields(LedgerRow) if f.type == "int")


def _format_value(name: str, value) -> str:
    if name in _LEDGER_INTS:
        return str(int(value))
    return repr(float(value))


def write_ledger_csv(rows: list, path: str | os.PathLike) -> None:
    """Write the ledger with full round-trip precision, making its directory."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(LEDGER_FIELDS)
            for row in rows:
                writer.writerow(
                    [_format_value(name, getattr(row, name)) for name in LEDGER_FIELDS]
                )
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write ledger: {_one_line(exc)}") from exc


# snapshots


def write_snapshot(path: str | os.PathLike, state: SimState) -> None:
    """Binary state dump: ASCII header, then raw little-endian doubles."""
    spec = state.grid
    header = (
        f"{SNAPSHOT_MAGIC} {spec.nx} {spec.ny} {spec.lx!r} {spec.ly!r} {state.t!r}\n"
    )
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
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
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write snapshot: {_one_line(exc)}") from exc


def read_snapshot(path: str | os.PathLike) -> SimState:
    try:
        with open(path, "rb") as handle:
            header = handle.readline()
            payload = handle.read()
    except OSError as exc:
        raise SnapshotError(f"{path}: cannot read snapshot: {_one_line(exc)}") from exc
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
    if not np.isfinite(t):
        raise SnapshotError(f"{path}: non-finite snapshot time {t!r}")
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
    for name, values in zip(("phi", "mu", "sigma", "pressure", "u", "v"), fields):
        if not np.all(np.isfinite(values)):
            raise SnapshotError(f"{path}: non-finite values in field {name}")
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


def _mass_laws_hold(report: MassReport) -> bool:
    """Whether a run's means keep the solute and phase mass laws.

    The solute drift is judged against :data:`SIGMA_DRIFT_TOL`.  The
    phase law passes on either its absolute deviation
    (:data:`PHI_DEV_TOL`) or its error relative to the initial deficit
    (:data:`PHI_LAW_TOL`): a scenario that starts on target has a
    rounding-dust deficit, and a dust-over-dust ratio says nothing.
    """
    phi_ok = report.phi_abs_dev <= PHI_DEV_TOL or report.phi_law_rel_err <= PHI_LAW_TOL
    return report.sigma_drift <= SIGMA_DRIFT_TOL and phi_ok


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0e-300)


def run_checks(cfg: RunConfig) -> list:
    """Fast self-checks on the configured grid and parameters.

    Returns ``(name, passed, detail)`` triples; used by the ``check``
    subcommand and handy in test harnesses.
    """
    spec = cfg.grid
    area = spec.cell_area
    p = cfg.params
    rng = np.random.default_rng(2024)
    results = []

    f = rng.standard_normal((spec.nx, spec.ny))
    wu = np.zeros((spec.nx + 1, spec.ny))
    wv = np.zeros((spec.nx, spec.ny + 1))
    wu[1:-1, :] = rng.standard_normal((spec.nx - 1, spec.ny))
    wv[:, 1:-1] = rng.standard_normal((spec.nx, spec.ny - 1))
    gu, gv = grad_raw(spec, f)
    err = _rel_err(
        area * inner_raw(f, div_raw(spec, wu, wv)),
        -area * (inner_raw(gu, wu) + inner_raw(gv, wv)),
    )
    results.append(("gradient-divergence adjointness", err <= ADJOINTNESS_TOL, f"rel err {err:.2e}"))

    g = rng.standard_normal((spec.nx, spec.ny))
    err = _rel_err(
        area * inner_raw(laplacian_raw(spec, f), g), area * inner_raw(f, laplacian_raw(spec, g))
    )
    results.append(("laplacian self-adjointness", err <= SELF_ADJOINT_TOL, f"rel err {err:.2e}"))

    u0 = rng.standard_normal((spec.nx, spec.ny))
    u0 -= u0.mean()
    rhs_field = ScalarField(spec, -laplacian_raw(spec, u0))
    rhs_field.values -= rhs_field.values.mean()
    back = fluctuation_potential(rhs_field)
    err = float(np.max(np.abs(back.values - u0))) / max(float(np.max(np.abs(u0))), 1e-300)
    results.append(("inverse-laplacian round trip", err <= ROUND_TRIP_TOL, f"rel err {err:.2e}"))

    src = ScalarField(spec, u0.copy())
    nsrc = fluctuation_potential(src)
    err = _rel_err(grad_norm_sq(nsrc), l2_inner(src, nsrc))
    results.append(("dual-norm identity", err <= DUAL_NORM_TOL, f"rel err {err:.2e}"))

    phi = ScalarField(spec, 0.6 * (rng.uniform(-1.0, 1.0, (spec.nx, spec.ny))))
    sigma = ScalarField(spec, 0.3 * rng.standard_normal((spec.nx, spec.ny)))
    delta = rng.standard_normal((spec.nx, spec.ny))
    delta -= delta.mean()
    h = 1.0e-5
    fp = free_energy(ScalarField(spec, phi.values + h * delta), sigma, p)
    fm = free_energy(ScalarField(spec, phi.values - h * delta), sigma, p)
    fd = (fp - fm) / (2.0 * h)
    mu = chemical_potential(phi, sigma, p)
    err = _rel_err(fd, l2_inner(mu, ScalarField(spec, delta)))
    results.append(("variational derivative", err <= VARIATIONAL_TOL, f"rel err {err:.2e}"))

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
    results.append(
        (
            "mass laws over 20 steps",
            _mass_laws_hold(report),
            f"sigma drift {report.sigma_drift:.2e}, phi dev {report.phi_abs_dev:.2e}",
        )
    )
    return results


# subcommands


def _check_outputs(path: str | os.PathLike, *names: str) -> Path:
    """``path``, refused unless it or its nearest existing ancestor is a
    directory and no output in it matching a glob of ``names`` is one."""
    out_dir = Path(path)
    existing = next(q for q in (out_dir, *out_dir.parents) if os.path.exists(q))
    if not os.path.isdir(existing):
        raise ConfigError(f"{out_dir}: cannot create output directory: {existing} is not a directory")
    for target in (q for name in names for q in sorted(out_dir.glob(name))):
        if target.is_dir():
            what = "ledger" if target.suffix == ".csv" else "snapshot"
            raise ConfigError(f"{target}: cannot write {what}: it is a directory")
    return out_dir


def _cmd_run(args: argparse.Namespace) -> int:
    seed = [] if args.seed is None else [f"scenario.seed={args.seed}"]
    cfg = parse_config(args.config, args.overrides + seed)
    # the CFL-limited march fixes the snapshots' steps, so every snapshot name is checked
    snaps = ("snap_*.bin",) if cfg.cadence > 0 else ()
    out_dir = _check_outputs(args.out_dir or "chns_out", "ledger.csv", "final.bin", *snaps)

    def record(state: SimState) -> None:
        write_snapshot(out_dir / f"snap_{state.step:08d}.bin", state)

    final, rows = run(cfg, on_record=record if cfg.cadence > 0 else None)
    write_ledger_csv(rows, out_dir / "ledger.csv")
    write_snapshot(out_dir / "final.bin", final)

    report = mass_check(rows, cfg.params)
    print(
        f"run: {final.step} steps to t = {final.t!r}; "
        f"total energy {rows[-1].total_energy:.6e}; "
        f"sigma mean drift {report.sigma_drift:.2e}; "
        f"separation margin {rows[-1].sep_delta:.3e}"
    )
    print(f"ledger: {out_dir / 'ledger.csv'}")
    print(f"final state: {out_dir / 'final.bin'}")
    for row in rows:
        for name in LEDGER_FIELDS:
            if not math.isfinite(getattr(row, name)):
                print(
                    f"invariant failure: non-finite ledger value in {name} at step {row.step}",
                    file=sys.stderr,
                )
                return 1
    # the phase bound must hold at every step, not only at the end of the run
    phase_margin = min(row.sep_delta for row in rows)
    if cfg.params.potential.variant == "logarithmic" and phase_margin <= BOUND_MARGIN:
        print("invariant failure: phase bound violated (separation margin below 1e-12)", file=sys.stderr)
        return 1
    if not _mass_laws_hold(report):
        print("invariant failure: mass law violated beyond tolerance", file=sys.stderr)
        return 1
    return 0


def _cmd_stationary(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config, args.overrides)
    state = read_snapshot(args.seed_snapshot)
    if state.grid != cfg.grid:
        raise ConfigError(
            f"snapshot grid {state.grid} does not match configured grid {cfg.grid}"
        )
    out_dir = _check_outputs(args.out_dir or Path(args.seed_snapshot).parent, "equilibrium.bin")
    try:
        eq = solve_stationary(state.phi, state.sigma, cfg.params, cfg.solver)
    except PotentialDomainError as exc:
        raise ConfigError(f"{args.seed_snapshot}: {exc}") from exc
    eq_state = SimState(
        vel=MacVelocity.zeros(cfg.grid),
        phi=eq.phi,
        mu=eq.mu,
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


def _cmd_ratefit(args: argparse.Namespace) -> int:
    eq_state = read_snapshot(args.equilibrium)
    snaps = sorted(Path(args.snapshots).glob("snap_*.bin"))
    if len(snaps) < 3:
        raise ConfigError(
            f"need at least 3 periodic snapshots in {args.snapshots} "
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
        f"over {fit.n_points} points (r^2 = {fit.r_squared:.6f})"
    )
    if fit.flagged:
        print(f"flagged: {fit.reason}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config, args.overrides)
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

    def add_common(sp, handler):
        sp.set_defaults(handler=handler)
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
    add_common(sp_run, _cmd_run)
    sp_run.add_argument("--out", dest="out_dir", help="output directory (default chns_out)")
    sp_run.add_argument("--seed", type=int, help="override the scenario seed")

    sp_st = sub.add_parser("stationary", help="relax a snapshot to a stationary state")
    add_common(sp_st, _cmd_stationary)
    sp_st.add_argument("--seed-snapshot", required=True, help="snapshot to relax from")
    sp_st.add_argument("--out", dest="out_dir", help="output directory (default: beside the snapshot)")

    sp_rf = sub.add_parser("ratefit", help="fit the algebraic decay rate toward an equilibrium")
    sp_rf.add_argument(
        "--snapshots", required=True, metavar="DIR", help="output directory of a run with cadence > 0"
    )
    sp_rf.add_argument("--equilibrium", required=True, help="equilibrium snapshot")
    sp_rf.set_defaults(handler=_cmd_ratefit)

    sp_ck = sub.add_parser("check", help="run the quick invariant battery")
    add_common(sp_ck, _cmd_check)
    return parser


def _keep_freed_heap_mapped() -> None:
    """Under glibc, keep freed heap memory mapped until the process exits.

    By default glibc hands the top of the heap back to the kernel as soon
    as a few freed temporaries leave it free, and serves large arrays
    with fresh ``mmap`` calls; every Newton iteration then faults the
    same pages back in.  Raising both thresholds keeps them mapped.
    Setting either alone turns off glibc's dynamic thresholds and faults
    more, so the trim threshold is raised only once the mmap threshold
    was accepted.  Elsewhere this does nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES):
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def main(argv: list | None = None) -> int:
    _keep_freed_heap_mapped()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # a failure is reported on one stderr line; numpy's overflow and
        # invalid-value warnings on the way to it would add lines of their own
        with np.errstate(all="ignore"):
            return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RateFitError as exc:
        print(f"rate fit refused: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
