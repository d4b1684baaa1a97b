"""Config parsing, ledger and snapshot round trips, exit codes, and the
invariant battery of the command-line front end."""

import os
import platform
import re
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from conftest import read_ledger

import chns
from chns import chd, cli, stationary
from chns.chd import ModelParams, NewtonError
from chns.cli import (
    _SCHEMA,
    ConfigError,
    SnapshotError,
    main,
    parse_config,
    read_snapshot,
    run_checks,
    write_ledger_csv,
    write_snapshot,
)
from chns.coupled import RunConfig, ScenarioConfig, initial_state
from chns.diagnostics import LEDGER_FIELDS, LedgerRow
from chns.elliptic import SolverError
from chns.grid import GridSpec, MacVelocity, ScalarField, laplacian_raw
from chns.hydro import CflError
from chns.potential import PotentialParams, psi_prime
from chns.state import SimState
from chns.stationary import StationaryError

QUICK = """
[grid]
nx = 16
ny = 16

[time]
dt = 0.02
t_end = 0.1
"""

# drives the Newton iteration into the barrier until it gives up
VIOLENT = """
[grid]
nx = 8
ny = 8

[params]
chi = 6.0

[time]
dt = 0.5
t_end = 0.5

[scenario]
name = drift
amplitude = 5.0
"""


def write_config(tmp_path, text, name="case.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def random_state(spec, rng, t=0.0):
    shape = (spec.nx, spec.ny)
    vel = MacVelocity.zeros(spec)
    vel.u[1:-1, :] = rng.standard_normal((spec.nx - 1, spec.ny))
    vel.v[:, 1:-1] = rng.standard_normal((spec.nx, spec.ny - 1))
    return SimState(
        vel=vel,
        phi=ScalarField(spec, rng.uniform(-0.9, 0.9, shape)),
        mu=ScalarField(spec, rng.standard_normal(shape)),
        sigma=ScalarField(spec, rng.standard_normal(shape)),
        pressure=ScalarField(spec, rng.standard_normal(shape)),
        t=t,
        step=0,
    )


# config parsing


def test_defaults_without_file():
    assert parse_config(None) == RunConfig(
        grid=GridSpec(nx=64, ny=64, lx=1.0, ly=1.0),
        params=ModelParams(
            nu1=1.0,
            nu2=1.0,
            chi=0.0,
            alpha=0.0,
            beta=0.0,
            c0=0.0,
            gamma=0.0,
            potential=PotentialParams(variant="logarithmic", theta=1.0, theta0=2.0),
        ),
        dt=1.0e-3,
        t_end=1.0,
        cfl_safety=0.5,
        scenario=ScenarioConfig(
            name="spinodal",
            amplitude=0.05,
            sigma_mean=0.0,
            radius=0.25,
            width=0.05,
            center_x=0.5,
            center_y=0.5,
            drift_strength=0.1,
        ),
        seed=0,
        cadence=0,
    )


# a distinct non-default value for every config key
EVERY_KEY = [
    "grid.nx=12",
    "grid.ny=20",
    "grid.lx=1.5",
    "grid.ly=0.75",
    "params.nu1=2.0",
    "params.nu2=3.0",
    "params.theta=1.25",
    "params.theta0=3.5",
    "params.chi=0.2",
    "params.alpha=0.5",
    "params.beta=1.0",
    "params.c0=0.1",
    "params.gamma=0.01",
    "params.potential= Quartic ",
    "time.dt=2e-3",
    "time.t_end=0.6",
    "time.cfl_safety=0.25",
    "scenario.name=DROPLET",
    "scenario.amplitude=0.12",
    "scenario.sigma_mean=0.15",
    "scenario.radius=0.3",
    "scenario.width=0.04",
    "scenario.center_x=0.4",
    "scenario.center_y=0.65",
    "scenario.drift_strength=0.22",
    "scenario.seed=7",
    "output.cadence=5",
]


def test_every_key_sets_its_field():
    keys = {item.split("=")[0] for item in EVERY_KEY}
    assert keys == {f"{sec}.{key}" for sec, names in _SCHEMA.items() for key in names}
    default = parse_config(None)
    for item in EVERY_KEY:
        assert parse_config(None, [item]) != default, item
    assert parse_config(None, EVERY_KEY) == RunConfig(
        grid=GridSpec(nx=12, ny=20, lx=1.5, ly=0.75),
        params=ModelParams(
            nu1=2.0,
            nu2=3.0,
            chi=0.2,
            alpha=0.5,
            beta=1.0,
            c0=0.1,
            gamma=0.01,
            potential=PotentialParams(variant="quartic", theta=1.25, theta0=3.5),
        ),
        dt=2.0e-3,
        t_end=0.6,
        cfl_safety=0.25,
        scenario=ScenarioConfig(
            name="droplet",
            amplitude=0.12,
            sigma_mean=0.15,
            radius=0.3,
            width=0.04,
            center_x=0.4,
            center_y=0.65,
            drift_strength=0.22,
        ),
        seed=7,
        cadence=5,
    )


def test_minimal_file_keeps_other_defaults(tmp_path):
    path = write_config(tmp_path, "[grid]\nnx = 12\nny = 20\n")
    cfg = parse_config(path)
    assert cfg.grid == GridSpec(12, 20, 1.0, 1.0)
    assert cfg.params.potential.theta0 == 2.0
    assert cfg.scenario.amplitude == 0.05


def test_readme_example_config_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(write_config(tmp_path, example))
    assert cfg.grid == GridSpec(48, 48, 1.0, 1.0)
    assert (cfg.scenario.name, cfg.seed, cfg.cadence) == ("spinodal", 3, 50)


def test_overrides_win_over_file(tmp_path):
    path = write_config(tmp_path, "[params]\nchi = 0.5\n")
    cfg = parse_config(path, ["params.chi=0.7", "scenario.seed=9"])
    assert cfg.params.chi == 0.7
    assert cfg.seed == 9


def test_unknown_section_rejected(tmp_path):
    path = write_config(tmp_path, "[junk]\nfoo = 1\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: unknown config section [junk]")):
        parse_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, "[grid]\nnz = 3\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: unknown key 'nz' in section [grid]")):
        parse_config(path)


def test_malformed_and_unknown_overrides():
    with pytest.raises(ConfigError, match="section.key=value"):
        parse_config(None, ["chi=0.5"])
    with pytest.raises(ConfigError, match="unknown override target"):
        parse_config(None, ["params.zeta=1.0"])


def test_model_rejection_surfaces_as_config_error():
    with pytest.raises(ConfigError, match=r"violates \(H3\)"):
        parse_config(None, ["params.alpha=-1.0"])


def test_non_numeric_value_rejected():
    with pytest.raises(ConfigError, match="must be a number"):
        parse_config(None, ["params.chi=abc"])


def test_default_section_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, "[DEFAULT]\nnx = 4\n")
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"error: {path}: ") and "[DEFAULT]" in err
    assert not out.exists()


# ledger CSV


def test_empty_ledger_is_header_only(tmp_path):
    path = tmp_path / "ledger.csv"
    write_ledger_csv([], path)
    assert path.read_text().strip() == ",".join(LEDGER_FIELDS)
    assert read_ledger(path) == []


def test_ledger_round_trip_is_exact(tmp_path):
    rows = [
        LedgerRow(
            step=0,
            t=0.0,
            kinetic=0.1,
            free_energy=1.0 / 3.0,
            total_energy=0.1 + 1.0 / 3.0,
            diss_visc=1.0e-300,
            diss_mu=2.0 ** -52,
            diss_cross=-7.25,
            oono_work=0.0,
            bel_residual=-0.0,
            mean_phi=0.30000000000000004,
            mean_sigma=-1.0e-16,
            sep_delta=0.95,
            div_inf=3.141592653589793,
            sigma_l4=12345.678901234567,
            newton_iters=4,
        ),
        LedgerRow(
            step=17,
            t=0.17,
            kinetic=2.0,
            free_energy=3.0,
            total_energy=5.0,
            diss_visc=0.5,
            diss_mu=0.25,
            diss_cross=0.0,
            oono_work=-0.125,
            bel_residual=1.0e-12,
            mean_phi=0.0,
            mean_sigma=0.0,
            sep_delta=1.0,
            div_inf=0.0,
            sigma_l4=1.0,
            newton_iters=1,
        ),
    ]
    path = tmp_path / "ledger.csv"
    write_ledger_csv(rows, path)
    back = read_ledger(path)
    assert back == rows
    assert isinstance(back[0].step, int) and isinstance(back[0].newton_iters, int)


# snapshots


def test_snapshot_round_trip_bit_exact(tmp_path, rng):
    spec = GridSpec(5, 4, lx=1.3, ly=0.8)
    state = random_state(spec, rng, t=0.07000000000000001)
    path = tmp_path / "state.bin"
    write_snapshot(path, state)
    back = read_snapshot(path)
    assert back.grid == spec
    assert back.t == state.t
    assert np.array_equal(back.phi.values, state.phi.values)
    assert np.array_equal(back.mu.values, state.mu.values)
    assert np.array_equal(back.sigma.values, state.sigma.values)
    assert np.array_equal(back.pressure.values, state.pressure.values)
    assert np.array_equal(back.vel.u, state.vel.u)
    assert np.array_equal(back.vel.v, state.vel.v)


def test_snapshot_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE 4 4 1.0 1.0 0.0\n" + b"\x00" * 8)
    with pytest.raises(SnapshotError, match="bad snapshot header"):
        read_snapshot(path)


def test_snapshot_non_ascii_header_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\xff\xfe garbage\n")
    with pytest.raises(SnapshotError, match="not ASCII"):
        read_snapshot(path)


@pytest.mark.parametrize(
    "header",
    [b"CHNS1 8 x 1.0 1.0 0.0", b"CHNS1 2 2 1.0 1.0 0.0", b"CHNS1 4 4 inf 1.0 0.0"],
)
def test_snapshot_unparsable_header_rejected(tmp_path, header):
    path = tmp_path / "bad.bin"
    path.write_bytes(header + b"\n" + b"\x00" * 8)
    with pytest.raises(SnapshotError, match="bad snapshot header"):
        read_snapshot(path)


def test_snapshot_truncated_payload_rejected(tmp_path, rng):
    spec = GridSpec(4, 4)
    path = tmp_path / "state.bin"
    write_snapshot(path, random_state(spec, rng))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(SnapshotError, match="expected"):
        read_snapshot(path)


# replacement header tokens: grid sizes stay small, so no header claims a
# grid much larger than the file, and free text carries no digits
HEADER_TOKENS = st.one_of(
    st.integers(-2, 12).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e400", "0x10", "", "CHNS1"]),
    st.text(st.characters(min_codepoint=33, max_codepoint=126, exclude_characters="0123456789"),
            max_size=6),
)
# a 4 x 4 snapshot holds 6 fields of 104 doubles in all
PAYLOAD_DOUBLES = 104


@settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
# each kind of edit is left out about half the time, so that many mutated
# files still parse and the checks on the parsed values get exercised
@given(
    token_edits=st.just([]) | st.lists(st.tuples(st.integers(0, 6), HEADER_TOKENS), max_size=2),
    byte_edits=st.just([]) | st.lists(
        st.tuples(st.integers(0, 8 * PAYLOAD_DOUBLES - 1), st.integers(0, 255)), max_size=4
    ),
    value_edits=st.lists(st.tuples(st.integers(0, PAYLOAD_DOUBLES - 1), st.floats()), max_size=2),
    resize=st.just(0) | st.integers(-9, 9),
)
def test_mutated_snapshot_parses_or_raises_snapshot_error(
    tmp_path, token_edits, byte_edits, value_edits, resize
):
    path = tmp_path / "state.bin"
    write_snapshot(path, random_state(GridSpec(4, 4), np.random.default_rng(0)))
    header, payload = path.read_bytes().split(b"\n", 1)
    assert len(payload) == 8 * PAYLOAD_DOUBLES
    tokens = header.decode("ascii").split()
    for index, token in token_edits:
        tokens[index:index + 1] = [token]
    payload = bytearray(payload)
    for offset, byte in byte_edits:
        payload[offset] = byte
    for index, value in value_edits:
        struct.pack_into("<d", payload, 8 * index, value)
    payload = payload[: len(payload) + resize] if resize < 0 else payload + bytes(resize)
    path.write_bytes(" ".join(tokens).encode("ascii") + b"\n" + bytes(payload))
    try:
        state = read_snapshot(path)
    except SnapshotError:
        return
    assert np.isfinite(state.t)
    for values in (
        state.phi.values,
        state.mu.values,
        state.sigma.values,
        state.pressure.values,
        state.vel.u,
        state.vel.v,
    ):
        assert np.all(np.isfinite(values))


# run command


def test_run_writes_ledger_and_final(tmp_path, capsys):
    cfg = write_config(tmp_path, QUICK)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["final.bin", "ledger.csv"]
    rows = read_ledger(out / "ledger.csv")
    assert len(rows) == 6  # initial row plus five steps
    assert rows[-1].step == 5
    final = read_snapshot(out / "final.bin")
    assert final.grid == GridSpec(16, 16)
    assert "run: 5 steps" in capsys.readouterr().out


def test_run_is_byte_reproducible(tmp_path):
    cfg = write_config(tmp_path, QUICK)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out_b)]) == 0
    for name in ("ledger.csv", "final.bin"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_seed_flag_changes_trajectory(tmp_path):
    cfg = write_config(tmp_path, QUICK)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out_a), "--seed", "1"]) == 0
    assert main(["run", "--config", cfg, "--out", str(out_b), "--seed", "2"]) == 0
    assert (out_a / "final.bin").read_bytes() != (out_b / "final.bin").read_bytes()


def test_run_cadence_writes_snapshots(tmp_path):
    cfg = write_config(tmp_path, QUICK + "\n[output]\ncadence = 2\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    snaps = sorted(p.name for p in out.glob("snap_*.bin"))
    assert snaps == [
        "snap_00000000.bin",
        "snap_00000002.bin",
        "snap_00000004.bin",
        "snap_00000005.bin",
    ]


def test_missing_config_exits_two(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.ini")]) == 2
    assert "error:" in capsys.readouterr().err


# inputs that configparser, the UTF-8 decoder or the file system refuse;
# None makes the input a directory.  configparser reads a section header
# with text after its bracket as that section.
UNREADABLE_INPUTS = {
    "no-section-header": ("--config", b"nx = 4\n"),
    "key-without-value": ("--config", b"[grid]\nnx\n"),
    "broken-header": ("--config", b"[grid\nnx = 4\n"),
    "duplicate-key": ("--config", b"[params]\nchi = 0.1\nchi = 0.3\n"),
    "duplicate-section": ("--config", b"[grid]\nnx = 8\n[time]\ndt = 0.01\n[grid]\nny = 8\n"),
    "duplicate-header-with-comment": (
        "--config",
        b"[grid] ; first\nnx = 8\nny = 8\n[time]\ndt = 0.01\n[grid] ; again\nnx = 16\n",
    ),
    "not-utf8": ("--config", b"[grid]\nnx = 4\n; caf\xe9\n"),
    "config-directory": ("--config", None),
    "snapshot-directory": ("--seed-snapshot", None),
}


@pytest.mark.parametrize(
    "flag, content", list(UNREADABLE_INPUTS.values()), ids=list(UNREADABLE_INPUTS)
)
def test_unreadable_input_exits_two(tmp_path, capsys, flag, content):
    bad = tmp_path / "bad"
    if content is None:
        bad.mkdir()
    else:
        bad.write_bytes(content)
    out = tmp_path / "out"
    if flag == "--config":
        argv = ["run", "--config", str(bad), "--out", str(out)]
    else:
        cfg = write_config(tmp_path, QUICK)
        argv = ["stationary", "--config", cfg, "--seed-snapshot", str(bad), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ") and str(bad) in err
    assert not out.exists()


# config text and overrides built from the schema's own sections, keys and
# plausible values, mixed with free text
FUZZ_SECTIONS = [*_SCHEMA, "DEFAULT", "junk"]
FUZZ_KEYS = sorted({key for names in _SCHEMA.values() for key in names}) + ["junk"]
FUZZ_VALUES = st.one_of(
    st.integers(-3, 200).map(str),
    st.floats().map(repr),
    st.sampled_from(["", "nan", "-inf", "1e400", "0x10", "quartic", "droplet", "%(nx)s"]),
    st.text(max_size=8),
)
FUZZ_LINES = st.one_of(
    st.sampled_from(FUZZ_SECTIONS).map(lambda sec: f"[{sec}]"),
    st.tuples(
        st.sampled_from(FUZZ_KEYS), st.sampled_from(["=", " = ", ":", ""]), FUZZ_VALUES
    ).map("".join),
    st.text(max_size=12),
)
# schema keys set to small integers or enum names mostly parse, so the
# initial-state check sees more than the default configuration
FUZZ_TARGETS = [f"{sec}.{key}" for sec, keys in _SCHEMA.items() for key in keys]
FUZZ_SETTINGS = st.one_of(
    st.integers(-3, 200).map(str), st.sampled_from(["0.5", "1e-3", "quartic", "droplet", "drift"])
)
FUZZ_OVERRIDES = st.one_of(
    st.tuples(st.sampled_from(FUZZ_TARGETS), FUZZ_SETTINGS).map("=".join),
    st.tuples(st.sampled_from(FUZZ_SECTIONS), st.sampled_from(FUZZ_KEYS), FUZZ_VALUES).map(
        lambda t: f"{t[0]}.{t[1]}={t[2]}"
    ),
    st.text(max_size=12),
)


@settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(lines=st.lists(FUZZ_LINES, max_size=8), overrides=st.lists(FUZZ_OVERRIDES, max_size=3))
@example(lines=["[scenario]", "seed = -1"], overrides=[])
def test_random_config_parses_or_raises_config_error(tmp_path, lines, overrides):
    path = tmp_path / "case.ini"
    # lone surrogates in the text become bytes that are not UTF-8
    path.write_text("\n".join(lines), encoding="utf-8", errors="surrogatepass")
    try:
        cfg = parse_config(path, overrides)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    # whatever parses also builds its initial state, here on a 4 x 4 grid
    small = replace(cfg, grid=GridSpec(4, 4, cfg.grid.lx, cfg.grid.ly))
    assert initial_state(small).grid == small.grid


def test_run_out_naming_a_file_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, QUICK)
    out = tmp_path / "afile"
    out.write_text("")
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"error: {out}: cannot create output directory")


@pytest.mark.parametrize("name", ["ledger.csv", "final.bin", "snap_00000004.bin"])
def test_run_output_file_that_cannot_be_written_exits_two(tmp_path, capsys, monkeypatch, name):
    # a directory in the file's place makes the write fail whoever runs it,
    # and it is refused before the march starts; snap_00000004.bin is the
    # last periodic snapshot of the 5-step march, one every 2 steps
    cfg = write_config(tmp_path, QUICK)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    runs = []
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args))
    argv = ["run", "--config", cfg, "--set", "output.cadence=2", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    what = "ledger" if name == "ledger.csv" else "snapshot"
    assert err.startswith(f"error: {out / name}: cannot write {what}: it is a directory")
    assert runs == []


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--seed", "-1"],
        ["run", "--set", "scenario.seed=-1"],
        ["check", "--set", "scenario.seed=-1"],
    ],
    ids=["run-seed", "run-set", "check-set"],
)
def test_negative_seed_exits_two(tmp_path, capsys, argv):
    out = tmp_path / "out"
    extra = ["--out", str(out)] if argv[0] == "run" else []
    assert main([*argv, "--config", write_config(tmp_path, QUICK), *extra]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: scenario.seed: seed must be >= 0, got -1")
    assert not out.exists()


@pytest.mark.parametrize(
    "text, overrides, named",
    [
        ("[time]\ndt = -1\n", [], "{path}: time.dt: dt must be positive"),
        ("[grid]\nnx = 3\nny = 2\n", [], "{path}: grid.nx, {path}: grid.ny: grid needs nx, ny"),
        ("[grid]\nnx = 3\nny = 2\n", ["grid.nx=8"], "{path}: grid.ny: grid needs nx, ny"),
        ("[time]\ndt = -1\n", ["scenario.seed=-1"], "{path}: time.dt: dt must be positive"),
        ("[time]\ndt = 0.01\n", ["params.alpha=-1"], "params.alpha: violates (H3)"),
    ],
    ids=["file", "file-two-keys", "override-fixes-one", "first-of-two-errors", "override"],
)
def test_rejected_value_names_its_key_and_file(tmp_path, capsys, text, overrides, named):
    path = tmp_path / "case.ini"
    path.write_text(text)
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main(["check", "--config", str(path), *sets]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: " + named.format(path=path))


def test_bad_override_exits_two(capsys):
    assert main(["run", "--set", "nonsense"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override",
    [
        "grid.lx=inf",
        "grid.ly=nan",
        "params.theta0=inf",
        "params.alpha=nan",
        "params.chi=-inf",
        "params.gamma=nan",
        "scenario.amplitude=nan",
        "scenario.center_x=inf",
        "time.dt=nan",
        "time.t_end=inf",
        "time.cfl_safety=nan",
    ],
)
def test_non_finite_value_exits_two(tmp_path, capsys, override):
    out = tmp_path / "out"
    assert main(["run", "--set", override, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err and "Traceback" not in err
    assert not out.exists()


def test_solver_failure_exits_three(tmp_path, capsys):
    cfg = write_config(tmp_path, VIOLENT)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_krylov_failure_exits_three(tmp_path, capsys, monkeypatch):
    # the droplet's first Newton system (psi0'' up to 500) needs more than
    # one GMRES iteration
    monkeypatch.setattr(chd, "GMRES_MAX_ITER", 1)
    cfg = write_config(tmp_path, QUICK + "\n[scenario]\nname = droplet\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "solver failure: GMRES did not converge in Newton iteration 1" in err
    assert "after 1 iterations" in err
    assert err.endswith(" (step 1, t = 0.0)\n")


def test_failed_run_without_snapshots_leaves_no_directory(tmp_path, capsys, monkeypatch):
    # at cadence 0 the first file is written after the march, so a run that
    # fails on its way there makes no output directory
    monkeypatch.setattr(chd, "GMRES_MAX_ITER", 1)
    cfg = write_config(tmp_path, QUICK + "\n[scenario]\nname = droplet\n[output]\ncadence = 0\n")
    out = tmp_path / "nested" / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("solver failure: GMRES did not converge")
    assert not (tmp_path / "nested").exists()


def test_krylov_nan_estimate_stops_the_solve(tmp_path, capsys):
    # the preconditioner's constant mode is 1/dt = 1e-299, so the first
    # Krylov solve overflows; a NaN estimate must stop GMRES at once
    # instead of idling to its iteration cap
    argv = ["run", "--set", "grid.nx=8", "--set", "grid.ny=8", "--set", "scenario.name=drift"]
    argv += ["--set", "scenario.drift_strength=0", "--set", "time.dt=1e299"]
    argv += ["--set", "time.t_end=1e300", "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("solver failure: GMRES did not converge in Newton iteration 1")
    assert int(re.search(r"after (\d+) iterations", err)[1]) < chd.GMRES_MAX_ITER


def separating_config(tmp_path, beta):
    """The README's phase-separating config (a droplet of width 1 on a
    20 x 20 box) with Oono's term ``beta`` and a run to t = 0.1."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = readme.split("```ini\n")[2].split("```", 1)[0]
    text = text.replace("beta = 0\n", f"beta = {beta}\n").replace("t_end = 20\n", "t_end = 0.1\n")
    return write_config(tmp_path, text)


def test_capped_krylov_solve_is_taken_on_the_separating_droplet(tmp_path, capsys):
    # at beta = 1 the first Krylov solve stops at its cap at 1.8e-6, just
    # above its forcing term; Newton still reaches its own target
    cfg = separating_config(tmp_path, 1)
    assert parse_config(cfg).params.beta == 1.0
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = read_ledger(out / "ledger.csv")
    assert [row.step for row in rows] == [0, 1, 2]


def test_capped_krylov_solve_is_taken_on_the_separating_droplet_seed(tmp_path, capsys):
    # the t = 0 droplet seed's first pseudo-step stops GMRES at its cap at
    # 1.2e-2; the solve still relaxes to the residual target
    cfg = separating_config(tmp_path, 0)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--set", "time.t_end=0", "--out", str(out)]) == 0
    code = main(["stationary", "--config", cfg, "--seed-snapshot", str(out / "final.bin")])
    assert code == 0
    assert capsys.readouterr().err == ""
    run_cfg = parse_config(cfg)
    p = run_cfg.params
    eq = read_snapshot(out / "equilibrium.bin")
    phi = eq.phi.values
    r = -laplacian_raw(eq.grid, phi) + psi_prime(phi, p.potential) - p.chi * eq.sigma.values
    assert np.max(np.abs(r - r.mean())) <= run_cfg.solver.rel_tol * p.theta0


# the unit-box spinodal on 16^2 to t = 0.01
SMALL_RUN = ["--set", "grid.nx=16", "--set", "grid.ny=16", "--set", "time.t_end=0.01"]


@pytest.mark.parametrize("override", ["params.chi=1e200", "grid.lx=1e-300"])
def test_non_finite_newton_residual_fails_before_any_krylov_solve(
    tmp_path, capsys, monkeypatch, override
):
    # an overflowing coupling or a vanishing cell width leaves the Newton
    # residual or its target non-finite, which no Krylov solve can repair
    solves = []  # Krylov solves of the current step
    ch_step, jacobian_solve = chd.ch_step, chd._jacobian_solve

    def step(*args, **kwargs):
        solves.clear()
        return ch_step(*args, **kwargs)

    def solve(*args):
        solves.append(None)
        return jacobian_solve(*args)

    monkeypatch.setattr(chd, "ch_step", step)
    monkeypatch.setattr(chd, "_jacobian_solve", solve)
    code = main(["run", *SMALL_RUN, "--set", override, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("solver failure: non-finite phase-field Newton residual")
    assert len(solves) <= 1


@pytest.mark.parametrize(
    "overrides",
    [
        ["--set", "scenario.sigma_mean=1e200"],
        ["--set", "grid.lx=1e-300", "--set", "grid.ly=1e-300", "--set", "time.t_end=0"],
    ],
)
def test_non_finite_ledger_exits_one(tmp_path, capsys, overrides):
    # a solute energy that overflows, or a ledger row on cells of width
    # 1e-300, is written out and then reported as a broken invariant
    out = tmp_path / "out"
    assert main(["run", *SMALL_RUN, *overrides, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert re.fullmatch(r"invariant failure: non-finite ledger value in \w+ at step 0\n", err)
    assert (out / "ledger.csv").is_file() and (out / "final.bin").is_file()


@pytest.mark.parametrize("override", ["params.chi=1e200", "scenario.sigma_mean=1e200"])
def test_failing_run_writes_one_stderr_line(tmp_path, override):
    # in process pytest captures numpy's overflow warnings, so only a child
    # process shows whether they reach stderr ahead of the failure line
    proc = subprocess.run(
        [sys.executable, "-m", "chns", "run", *SMALL_RUN, "--set", override],
        cwd=tmp_path,
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode in (1, 3)
    assert proc.stderr.count("\n") == 1
    assert re.match(r"(solver|invariant) failure: ", proc.stderr)


def test_phase_bound_is_gated_over_every_step(tmp_path, capsys, monkeypatch):
    # the gate must see a margin lost early in the run, not only in its tail
    ledger_run = cli.run

    def early_contact(cfg, **kwargs):
        final, rows = ledger_run(cfg, **kwargs)
        rows[1] = replace(rows[1], sep_delta=0.0)
        return final, rows

    monkeypatch.setattr(cli, "run", early_contact)
    cfg = write_config(tmp_path, QUICK)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "phase bound violated" in capsys.readouterr().err


# stationary and ratefit commands


def test_stationary_grid_mismatch_exits_two(tmp_path, rng, capsys):
    snap = tmp_path / "seed.bin"
    write_snapshot(snap, random_state(GridSpec(4, 4), rng))
    cfg = write_config(tmp_path, QUICK)
    assert main(["stationary", "--config", cfg, "--seed-snapshot", str(snap)]) == 2
    assert "does not match" in capsys.readouterr().err


# a 16^2 droplet seed whose phase mean lies far from c0 = 0
DROPLET_SEED = QUICK.replace("t_end = 0.1", "t_end = 0.0") + (
    "\n[params]\nchi = 0.2\nalpha = 0.5\nbeta = 0.0\n\n[scenario]\nname = droplet\n"
)


def test_stationary_contracts_droplet_seed_onto_c0(tmp_path, capsys):
    # the droplet's phase mean is about -0.59; shifting it to c0 = 0 would
    # push the bulk phase past +1, so the seed's fluctuation is contracted
    cfg = write_config(tmp_path, DROPLET_SEED)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    code = main(["stationary", "--config", cfg, "--seed-snapshot", str(out / "final.bin")])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    run_cfg = parse_config(cfg)
    p = run_cfg.params
    eq = read_snapshot(out / "equilibrium.bin")
    phi = eq.phi.values
    assert abs(phi.mean() - p.c0) <= 1.0e-12
    assert np.max(np.abs(phi)) < 1.0
    r = -laplacian_raw(eq.grid, phi) + psi_prime(phi, p.potential) - p.chi * eq.sigma.values
    assert np.max(np.abs(r - r.mean())) <= run_cfg.solver.rel_tol * p.theta0


def test_stationary_krylov_failure_names_the_pseudo_step(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, DROPLET_SEED)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(chd, "GMRES_MAX_ITER", 1)
    code = main(["stationary", "--config", cfg, "--seed-snapshot", str(out / "final.bin")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("solver failure: GMRES did not converge in Newton iteration 1")
    # the first pseudo-step is 0.99 of the convexity bound 4 / (theta0 + chi^2 - theta)^2
    assert err.endswith(f" (pseudo-step 1, dtau = {0.99 * 4.0 / 1.04**2:g})\n")
    assert not (out / "equilibrium.bin").exists()


@pytest.mark.parametrize("chi", ["10", "30"])
def test_stationary_breakdown_is_a_solver_failure(tmp_path, capsys, chi):
    # the seed is admissible and the pseudo-steps at this chi break down: a
    # solver failure, even where shifting a clamped iterate onto the pinned
    # mean would carry a cell to +-1
    grid = ["--set", "grid.nx=8", "--set", "grid.ny=8"]
    out = tmp_path / "base"
    assert main(["run", *grid, "--set", "time.t_end=0.01", "--out", str(out)]) == 0
    capsys.readouterr()
    argv = ["stationary", *grid, "--set", f"params.chi={chi}"]
    assert main([*argv, "--seed-snapshot", str(out / "final.bin")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert re.fullmatch(r"solver failure: .* \(pseudo-step \d+, dtau = \S+\)\n", err)
    assert not (out / "equilibrium.bin").exists()


def test_stationary_seed_mean_outside_phase_interval_exits_two(tmp_path, rng, capsys):
    # with alpha = 0 the seed's own mean is pinned, and no state of the
    # logarithmic potential has a mean of 1.2
    seed = random_state(GridSpec(16, 16), rng)
    seed.phi.values += 1.2 - seed.phi.values.mean()
    snap = tmp_path / "seed.bin"
    write_snapshot(snap, seed)
    cfg = write_config(tmp_path, QUICK)
    assert main(["stationary", "--config", cfg, "--seed-snapshot", str(snap)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "outside" in err
    assert not (tmp_path / "equilibrium.bin").exists()


@pytest.mark.parametrize("broken", ["t", "phi"])
def test_stationary_non_finite_snapshot_exits_two(tmp_path, capsys, broken):
    cfg = write_config(tmp_path, QUICK)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    seed = read_snapshot(out / "final.bin")
    if broken == "t":
        seed.t = float("nan")
    else:
        seed.phi.values[3, 5] = np.nan
    write_snapshot(out / "final.bin", seed)
    capsys.readouterr()
    code = main(["stationary", "--config", cfg, "--seed-snapshot", str(out / "final.bin")])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "non-finite" in err
    assert not (out / "equilibrium.bin").exists()


def test_stationary_out_naming_a_file_exits_two(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, QUICK.replace("t_end = 0.1", "t_end = 0.0"))
    seed = tmp_path / "seed"
    assert main(["run", "--config", cfg, "--out", str(seed)]) == 0
    afile = tmp_path / "afile"
    afile.write_text("")
    capsys.readouterr()
    # the output path is refused before the relaxation starts
    solves = []
    monkeypatch.setattr(cli, "solve_stationary", lambda *args: solves.append(args))
    argv = ["stationary", "--config", cfg, "--seed-snapshot", str(seed / "final.bin")]
    for out in (afile, afile / "sub"):
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"error: {out}: cannot create output directory")
    assert solves == []


def test_stationary_output_file_that_cannot_be_written_exits_two(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, QUICK.replace("t_end = 0.1", "t_end = 0.0"))
    seed = tmp_path / "seed"
    assert main(["run", "--config", cfg, "--out", str(seed)]) == 0
    (seed / "equilibrium.bin").mkdir()
    capsys.readouterr()
    # the blocked output is refused before the relaxation starts
    solves = []
    monkeypatch.setattr(cli, "solve_stationary", lambda *args: solves.append(args))
    argv = ["stationary", "--config", cfg, "--seed-snapshot", str(seed / "final.bin")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"error: {seed / 'equilibrium.bin'}: cannot write snapshot")
    assert solves == []


def test_stationary_writes_the_chemical_potential_of_its_last_evaluation(
    tmp_path, capsys, monkeypatch
):
    # the solve's last evaluation holds the equilibrium's mu, so no N solve
    # runs after the solve returns
    text = QUICK.replace("t_end = 0.1", "t_end = 0.0") + "\n[params]\nchi = 0.2\nbeta = 1.0\n"
    cfg = write_config(tmp_path, text)
    seed = tmp_path / "seed"
    assert main(["run", "--config", cfg, "--out", str(seed)]) == 0
    events = []

    def record(module, name, event, after=None):
        fn = getattr(module, name)

        def recorded(*args, **kwargs):
            events.append(event)
            result = fn(*args, **kwargs)
            if after:
                events.append(after)
            return result

        monkeypatch.setattr(module, name, recorded)

    record(chd, "nonlocal_potential", "N")
    record(stationary, "nonlocal_potential", "N")
    record(stationary, "_evaluate", "evaluate")
    record(cli, "solve_stationary", "solve", after="returned")
    assert main(["stationary", "--config", cfg, "--seed-snapshot", str(seed / "final.bin")]) == 0
    returned = events.index("returned")
    assert events.count("N") == events.count("evaluate") > 0
    assert "N" not in events[returned:]

    eq = read_snapshot(seed / "equilibrium.bin")
    want = chd.chemical_potential(eq.phi, eq.sigma, parse_config(cfg).params).values
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(eq.mu.values - want)) <= 1.0e-12 * scale


def test_failed_stationary_solve_exits_three_and_leaves_no_directory(
    tmp_path, capsys, monkeypatch
):
    cfg = write_config(tmp_path, QUICK.replace("t_end = 0.1", "t_end = 0.0"))
    seed = tmp_path / "seed"
    assert main(["run", "--config", cfg, "--out", str(seed)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(stationary, "MAX_FLOW_ITER", 0)
    out = tmp_path / "out"
    argv = ["stationary", "--config", cfg, "--seed-snapshot", str(seed / "final.bin")]
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("solver failure: stationary residual")
    assert not out.exists()


@pytest.mark.parametrize("override", ["params.chi=1e200", "params.theta0=1e160"])
def test_stationary_overflowing_parameter_exits_three(tmp_path, capsys, override):
    # theta0 + chi^2 and the square in the first pseudo-step's bound are
    # Python floats, whose ** raises OverflowError instead of giving inf
    cfg = write_config(tmp_path, QUICK.replace("t_end = 0.1", "t_end = 0.0"))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    argv = ["stationary", "--config", cfg, "--set", override]
    assert main([*argv, "--seed-snapshot", str(out / "final.bin")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("solver failure: theta0 + chi^2 overflows")
    assert not (out / "equilibrium.bin").exists()


def test_solver_failures_share_one_base():
    # cli.main turns a SolverError, and only that, into exit 3
    for exc in (NewtonError, StationaryError, CflError):
        assert issubclass(exc, SolverError)


def test_ratefit_needs_three_snapshots(tmp_path, rng, capsys):
    spec = GridSpec(4, 4)
    write_snapshot(tmp_path / "equilibrium.bin", random_state(spec, rng))
    write_snapshot(tmp_path / "snap_00000000.bin", random_state(spec, rng))
    write_snapshot(tmp_path / "snap_00000001.bin", random_state(spec, rng))
    for snapshots in (tmp_path, tmp_path / "absent"):
        code = main(
            [
                "ratefit",
                "--snapshots",
                str(snapshots),
                "--equilibrium",
                str(tmp_path / "equilibrium.bin"),
            ]
        )
        assert code == 2
        assert "at least 3" in capsys.readouterr().err


def test_ratefit_refusals_exit_codes(tmp_path, rng, capsys):
    cfg = write_config(tmp_path, QUICK + "\n[output]\ncadence = 2\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    # an equilibrium on another grid is bad input
    other = tmp_path / "other.bin"
    write_snapshot(other, random_state(GridSpec(8, 8), rng))
    assert main(["ratefit", "--snapshots", str(out), "--equilibrium", str(other)]) == 2
    assert "grid does not match the equilibrium snapshot" in capsys.readouterr().err
    # the run's own final state zeroes the last deficit, and the fit is refused
    assert main(["ratefit", "--snapshots", str(out), "--equilibrium", str(out / "final.bin")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("rate fit refused: ")


def test_run_stationary_ratefit_pipeline(tmp_path, capsys):
    # a sub-critical spinodal seed relaxes back to the uniform state, so
    # the deficit decays monotonically and the fit flags it as faster
    # than algebraic
    cfg = write_config(tmp_path, QUICK.replace("t_end = 0.1", "t_end = 0.2") + "\n[output]\ncadence = 2\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (
        main(
            [
                "stationary",
                "--config",
                cfg,
                "--seed-snapshot",
                str(out / "final.bin"),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "ratefit",
                "--snapshots",
                str(out),
                "--equilibrium",
                str(out / "equilibrium.bin"),
            ]
        )
        == 0
    )
    text = capsys.readouterr().out
    assert "equilibrium:" in text
    assert "ratefit: kappa_hat" in text


# check command


def test_check_command_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, QUICK)
    assert main(["check", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("OK  ") == 6


def test_run_checks_reports_broken_tolerance(monkeypatch, capsys):
    cfg = parse_config(None, ["grid.nx=16", "grid.ny=16"])
    monkeypatch.setattr(cli, "ADJOINTNESS_TOL", 0.0)
    results = run_checks(cfg)
    by_name = {name: ok for name, ok, _ in results}
    assert by_name["gradient-divergence adjointness"] is False
    assert all(ok for name, ok in by_name.items() if name != "gradient-divergence adjointness")
    capsys.readouterr()
    assert main(["check", "--set", "grid.nx=16", "--set", "grid.ny=16"]) == 1
    err = capsys.readouterr().err
    assert err == "invariant failure: gradient-divergence adjointness\n"


@pytest.mark.parametrize("tol", ["SIGMA_DRIFT_TOL", "PHI_DEV_TOL"])
def test_run_and_check_judge_mass_laws_by_the_same_thresholds(tmp_path, capsys, monkeypatch, tol):
    # QUICK starts on target, so the phase law rests on its absolute
    # deviation alone
    cfg = write_config(tmp_path, QUICK)
    monkeypatch.setattr(cli, tol, -1.0)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "mass law violated" in capsys.readouterr().err
    by_name = {name: ok for name, ok, _ in run_checks(parse_config(cfg))}
    assert by_name["mass laws over 20 steps"] is False


# thread counts


def subprocess_env(**overrides):
    """Environment of a child Python that imports this checkout's chns."""
    src = str(Path(chns.__file__).resolve().parents[1])
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# BLAS splits dot products across threads only for long vectors, so the
# 16^2 case alone would not see a reduction that goes through BLAS
@pytest.mark.parametrize(
    "n, dt, t_end", [(16, "0.02", "0.1"), (128, "0.001", "0.002")], ids=["16", "128"]
)
def test_run_is_byte_identical_across_blas_thread_counts(tmp_path, n, dt, t_end):
    cfg = write_config(
        tmp_path,
        f"[grid]\nnx = {n}\nny = {n}\n\n[time]\ndt = {dt}\nt_end = {t_end}\n"
        "\n[params]\nchi = 0.2\nalpha = 0.5\nbeta = 1.0\n",
    )
    outputs = []
    for threads in ("1", "2"):
        env = subprocess_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-m", "chns", "run", "--config", cfg, "--out", str(out)],
            env=env,
            check=True,
            capture_output=True,
            timeout=300,
        )
        outputs.append([(out / name).read_bytes() for name in ("ledger.csv", "final.bin")])
    assert outputs[0] == outputs[1]


# heap policy

COUPLED = "\n[params]\nchi = 0.2\nalpha = 0.5\nbeta = 1.0\n"

# cli.main with the heap policy switched off
WITHOUT_HEAP_POLICY = (
    "import sys\n"
    "from chns import cli\n"
    "cli._keep_freed_heap_mapped = lambda: None\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)

# the minor page faults of the second of two identical commands
WARM_FAULTS = (
    "import resource, sys\n"
    "from chns import cli\n"
    "assert cli.main(sys.argv[1:]) == 0\n"
    "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
    "assert cli.main(sys.argv[1:]) == 0\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
)


def test_run_is_byte_identical_without_heap_policy(tmp_path):
    cfg = write_config(
        tmp_path, "[grid]\nnx = 32\nny = 32\n\n[time]\ndt = 0.001\nt_end = 0.02\n" + COUPLED
    )
    outputs = []
    for launch in (["-m", "chns"], ["-c", WITHOUT_HEAP_POLICY]):
        out = tmp_path / launch[0]
        subprocess.run(
            [sys.executable, *launch, "run", "--config", cfg, "--out", str(out)],
            env=subprocess_env(),
            check=True,
            capture_output=True,
            timeout=300,
        )
        outputs.append([(out / name).read_bytes() for name in ("ledger.csv", "final.bin")])
    assert len(read_ledger(tmp_path / "-m" / "ledger.csv")) == 21
    assert outputs[0] == outputs[1]


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the heap policy acts under glibc only"
)
def test_warm_stationary_solve_keeps_heap_mapped(tmp_path):
    # without the policy the second 96^2 solve takes about 3000 minor
    # faults, as glibc trims and refaults the heap on every iteration
    cfg = write_config(
        tmp_path,
        "[grid]\nnx = 96\nny = 96\n\n[time]\ndt = 0.001\nt_end = 0.0\n"
        "\n[scenario]\nseed = 1\n" + COUPLED,
    )
    seed = tmp_path / "seed"
    assert main(["run", "--config", cfg, "--out", str(seed)]) == 0
    argv = ["stationary", "--config", cfg, "--seed-snapshot", str(seed / "final.bin")]
    proc = subprocess.run(
        [sys.executable, "-c", WARM_FAULTS, *argv, "--out", str(tmp_path / "eq")],
        env=subprocess_env(),
        check=True,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert int(proc.stdout.split()[-1]) < 300
