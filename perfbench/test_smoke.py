"""Smoke test of the benchmark harness on 16x16 grids with a few steps.

Runs every workload generator through untraced and traced invocations,
every output check and the trace parser, in seconds::

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import child
import run
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_STEPS = {"spinodal-128": 3, "droplet-64": 12, "stationary-96": 0}


@pytest.fixture(scope="module")
def reports():
    return {
        name: run.run_workload(WORKLOADS[name], 7, 0.0, True, ROOT, size=16, steps=steps)
        for name, steps in SMOKE_STEPS.items()
    }


def test_spec_matches_harness(reports):
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    for report in reports.values():
        assert list(report.end_to_end) == [m["name"] for m in SPEC["end_to_end"]]
        assert list(report.per_layer) == [m["name"] for m in SPEC["per_layer"]]
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        for name, (value, unit) in {**report.end_to_end, **report.per_layer}.items():
            assert unit == units[name]
            assert value == value and value >= 0.0, name


@pytest.mark.parametrize("name", SMOKE_STEPS)
def test_every_invocation_passes(reports, name):
    report = reports[name]
    assert [inv.problems for inv in report.invocations] == [[] for _ in report.invocations]
    assert any(inv.traced for inv in report.invocations)
    assert all(value > 0.0 for value, _ in report.end_to_end.values())
    assert report.env["blas_threads"] and set(report.env["blas_threads"].values()) == {1}


def test_layers_follow_the_workloads(reports):
    spinodal = {k: v for k, (v, _) in reports["spinodal-128"].per_layer.items()}
    droplet = {k: v for k, (v, _) in reports["droplet-64"].per_layer.items()}
    stationary = {k: v for k, (v, _) in reports["stationary-96"].per_layer.items()}
    assert spinodal["chd.newton_iters"] == spinodal["chd.factor_calls"] > 0
    assert spinodal["diagnostics.nonlocal_ms"] > 0.0 and droplet["diagnostics.nonlocal_ms"] == 0.0
    assert droplet["cli.write_snapshot_ms"] > 0.0 and droplet["hydro.pressure_iters"] > 0
    assert stationary["hydro.ns_step_ms"] == 0.0 and stationary["stationary.iterations"] > 0
    assert stationary["stationary.nonlocal_ms"] > 0.0 and stationary["chd.lu_nnz"] > 0
    for layers in (spinodal, droplet, stationary):
        parts = sum(layers[f"{name}.self_ms"] for name in tracing.LAYERS)
        assert parts + layers["coupled.other_ms"] == pytest.approx(layers["coupled.step_ms"])


@pytest.mark.parametrize("name, output", [("droplet-64", "ledger.csv"),
                                          ("stationary-96", "equilibrium.bin")])
def test_differing_output_counts_as_failure(reports, name, output):
    report = reports[name]
    for inv in report.invocations:
        inv.problems.clear()
    with open(report.invocations[-1].out_dir / output, "ab") as handle:
        handle.write(b"\0")
    run.check_outputs(report.workload, report.invocations, SMOKE_STEPS[name])
    assert [bool(inv.problems) for inv in report.invocations] == [False, True]


def test_stationary_checks_catch_broken_outputs(reports, tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from chns import cli

        inv = reports["stationary-96"].invocations[0]
        inputs = inv.out_dir.parent.parent / "input"
        config, seed = inputs / "case.ini", inputs / "final.bin"
        good = child._stationary_checks(config, seed, inv.out_dir, SimpleNamespace(residual_inf=0.0))
        eq = cli.read_snapshot(inv.out_dir / "equilibrium.bin")
        eq.sigma.values += 1.0e-6
        cli.write_snapshot(tmp_path / "equilibrium.bin", eq)
        bad = child._stationary_checks(config, seed, tmp_path, SimpleNamespace(residual_inf=1.0))
    finally:
        sys.path.remove(str(ROOT / "src"))
    assert all(passed for _, passed, _ in good)
    assert [label for label, passed, _ in bad if not passed] == [
        "reported residual within target",
        "solute mean law",
    ]


def test_trace_parser_on_known_spans():
    spans = [
        ["coupled.run", 0.0, 10.0, None, None],
        ["coupled.coupled_step", 1.1, 4.0, 0, None],
        ["chd.chd_step", 1.2, 3.0, 1, {"newton_iters": 2, "linear_iters": 5, "clipped_steps": 1}],
        ["chd.nonlocal_potential", 1.3, 1.5, 2, None],
        ["diagnostics.ledger_row", 4.1, 4.9, 0, None],
        ["chd.nonlocal_potential", 4.2, 4.4, 4, None],
        ["chd.splu", 1.6, 2.0, 2, {"lu_nnz": 100}],
    ]
    metrics, mismatches = tracing.per_layer([(spans, [(1.0, 5.0)])])
    m = {k: v for k, (v, _) in metrics.items()}
    assert m["coupled.step_ms"] == pytest.approx(4000.0)
    assert m["coupled.other_ms"] == pytest.approx(300.0)
    assert m["chd.nonlocal_ms"] == pytest.approx(200.0)
    assert m["diagnostics.nonlocal_ms"] == pytest.approx(200.0)
    assert m["diagnostics.self_ms"] == pytest.approx(600.0)
    assert m["chd.self_ms"] == pytest.approx(1200.0 + 200.0 + 200.0 + 400.0)
    assert m["coupled.self_ms"] == pytest.approx(1100.0)
    assert (m["chd.newton_iters"], m["chd.clipped_steps"], m["chd.lu_nnz"]) == (2, 1, 100)
    assert max(mismatches) < 1.0e-12


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "droplet-64", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
