"""Benchmark of the chns solver.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run generates the workload's inputs from the seed, then runs the
``chns`` command on them in fresh child processes, one at a time, until
``--seconds`` is used up (at least three invocations untraced; with
``--trace 1`` untraced and traced invocations alternate, at least one of
each).  Every invocation in a run gets the same inputs, so their outputs
must be byte-identical; that is one of the checks that count failures.

Untraced, the last line is the end-to-end metrics; traced, the per-layer
metrics of the traced invocations.  Lines before it give the environment,
every metric with its unit, the error rate and the tracing overhead.  The
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Work files go to ``.bench_work/`` in the
current directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
THREAD_CAP = 1  # one BLAS/OpenMP thread: a plain single-threaded baseline
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
CHILD_TIMEOUT_S = 150.0
MIN_UNTRACED = 3  # enough for a set-up median and the same-seed comparison

END_TO_END_UNITS = {
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "solve_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class HarnessError(RuntimeError):
    """The benchmark itself cannot run here; no result is printed."""


@dataclass
class Invocation:
    """One child process: its result file, clocks and check failures."""

    index: int
    traced: bool
    spawned: float
    duration: float
    out_dir: Path
    data: dict | None
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def setup_end(self, command: str) -> float:
        d = self.data
        return d["loop_start"] if command == "stationary" else d["step_starts"][0]

    def step_seconds(self) -> list:
        ends = self.data["step_starts"][1:] + [self.data["loop_end"]]
        return [b - a for a, b in zip(self.data["step_starts"], ends)]

    def units(self, command: str) -> list:
        """Intervals the per-layer numbers are normalised by."""
        d = self.data
        if command == "stationary":
            return [(d["loop_start"], d["loop_end"])]
        return list(zip(d["step_starts"], d["step_starts"][1:] + [d["loop_end"]]))


@dataclass
class Report:
    workload: Workload
    seed: int
    invocations: list
    end_to_end: dict
    per_layer: dict
    samples: int
    env: dict
    overhead: tuple | None


def find_src(root: Path) -> Path:
    src = root / "src"
    if not (src / "chns" / "__init__.py").is_file():
        raise HarnessError(f"no chns package under {src}; run from the repository root")
    return src


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.update({var: str(THREAD_CAP) for var in THREAD_VARS})
    env.pop("CHNS_THREADS", None)
    return env


def generate_inputs(workload: Workload, seed: int, work: Path, src: Path, *,
                    size: int | None = None, steps: int | None = None) -> list:
    """Write the seeded inputs and return the chns arguments minus ``--out``."""
    inputs = work / "input"
    inputs.mkdir(parents=True)
    config = inputs / "case.ini"
    config.write_text(workload.ini_text(seed, size=size, steps=steps))
    if workload.command == "run":
        return ["run", "--config", str(config)]
    # with no steps, `chns run` writes the scenario's initial state as final.bin
    proc = subprocess.run(
        [sys.executable, "-m", "chns", "run", "--config", str(config), "--out", str(inputs)],
        env=child_env(src), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise HarnessError(f"seed snapshot generation failed: {proc.stderr.strip()}")
    return ["stationary", "--config", str(config), "--seed-snapshot", str(inputs / "final.bin")]


def invoke(index: int, traced: bool, chns_args: list, work: Path, src: Path) -> Invocation:
    inv_dir = work / f"inv_{index:03d}"
    out_dir = inv_dir / "out"
    out_dir.mkdir(parents=True)
    result = inv_dir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(src), "--result", str(result)]
    if traced:
        cmd.append("--trace")
    cmd += ["--", *chns_args, "--out", str(out_dir)]
    with open(inv_dir / "stdout.txt", "w") as out, open(inv_dir / "stderr.txt", "w") as err:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=child_env(src), stdout=out, stderr=err,
                                  timeout=CHILD_TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = None
        duration = time.monotonic() - spawned
    data = json.loads(result.read_text()) if code == 0 and result.is_file() else None
    inv = Invocation(index, traced, spawned, duration, out_dir, data)
    if code is None:
        inv.problems.append(f"timed out after {CHILD_TIMEOUT_S:.0f} s")
    elif code != 0:
        inv.problems.append(f"exit code {code}")
    elif data is None:
        inv.problems.append("no result file")
    return inv


def check_outputs(workload: Workload, invocations: list, steps: int) -> None:
    """Count an invocation failed when its output differs from the first
    good one (same inputs, so bytes must match, traced or not), when a
    coupled ledger has the wrong length, or when a stationary check fails."""
    name = "ledger.csv" if workload.command == "run" else "equilibrium.bin"
    reference = None
    for inv in invocations:
        if not inv.ok:
            continue
        path = inv.out_dir / name
        if not path.is_file():
            inv.problems.append(f"{name} missing")
            continue
        blob = path.read_bytes()
        if workload.command == "run":
            with open(path, newline="") as handle:
                rows = sum(1 for _ in csv.reader(handle)) - 1
            if rows != steps + 1:
                inv.problems.append(f"ledger has {rows} rows, expected {steps + 1}")
        for label, passed, detail in inv.data.get("checks", []):
            if not passed:
                inv.problems.append(f"{label}: {detail}")
        if reference is None:
            reference = (inv.index, blob)
        elif blob != reference[1]:
            inv.problems.append(f"{name} differs from invocation {reference[0]}")


def end_to_end(workload: Workload, invocations: list) -> tuple[dict, int]:
    timed = [inv for inv in invocations if not inv.traced and inv.data is not None]
    if not timed:
        raise HarnessError("no untraced invocation produced timings")
    steps = [s for inv in timed for s in inv.step_seconds()]
    loop = sum(inv.data["loop_end"] - inv.data["step_starts"][0] for inv in timed)
    setup = [inv.setup_end(workload.command) - inv.spawned for inv in timed]
    solve = [inv.data["main_end"] - inv.setup_end(workload.command) for inv in timed]
    values = {
        "steps_per_s": len(steps) / loop,
        "step_ms_p50": 1.0e3 * statistics.median(steps),
        "step_ms_p90": 1.0e3 * statistics.quantiles(steps, n=10, method="inclusive")[-1],
        "solve_s_p50": statistics.median(solve),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(inv.data["peak_rss_kb"] / 1024.0 for inv in timed),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, len(steps)


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(workload: Workload, invocations: list, per_layer: dict, size: int) -> dict:
    child = next((inv.data["env"] for inv in invocations if inv.data), {})
    cells = size * size
    env = {
        **child,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_cap": THREAD_CAP,
        "caches": _cache_sizes(),
        "computed_state_bytes": 8 * (4 * cells + 2 * (size + 1) * size),
    }
    if per_layer:
        # SuperLU keeps a value and a row index per stored entry
        env["computed_lu_bytes"] = int(12 * per_layer["chd.lu_nnz"][0])
    return env


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, root: Path, *,
                 size: int | None = None, steps: int | None = None) -> Report:
    src = find_src(root)
    work = root / ".bench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    steps = workload.steps if steps is None else steps
    start = time.monotonic()
    chns_args = generate_inputs(workload, seed, work, src, size=size, steps=steps)

    invocations: list = []
    longest = 0.0
    while True:
        n_traced = sum(inv.traced for inv in invocations)
        n_plain = len(invocations) - n_traced
        if trace:
            enough = n_plain >= 1 and n_traced >= 1
        else:
            enough = n_plain >= MIN_UNTRACED
        if enough and time.monotonic() + longest > start + seconds:
            break
        traced = trace and n_plain > n_traced
        invocations.append(invoke(len(invocations), traced, chns_args, work, src))
        longest = max(longest, invocations[-1].duration)

    check_outputs(workload, invocations, steps)
    e2e, samples = end_to_end(workload, invocations)
    layers: dict = {}
    overhead = None
    if trace:
        traced_runs = [inv for inv in invocations if inv.traced and inv.data is not None]
        layers, mismatches = tracing.per_layer(
            [(inv.data["spans"], inv.units(workload.command)) for inv in traced_runs]
        )
        worst = max(mismatches, default=0.0)
        if worst > 1.0e-9:
            for inv in traced_runs:
                inv.problems.append(f"self times miss the traced step time by {worst:.2e} s")
        untraced = statistics.fmean(
            1.0e3 * (end - start) for inv in invocations if not inv.traced and inv.data
            for start, end in inv.units(workload.command)
        )
        overhead = (layers["coupled.step_ms"][0] - untraced, untraced)
    env = environment(workload, invocations, layers, workload.size if size is None else size)
    return Report(workload, seed, invocations, e2e, layers, samples, env, overhead)


def print_report(report: Report, trace: bool) -> None:
    w = report.workload
    failed = [inv for inv in report.invocations if not inv.ok]
    print(f"workload {w.name} seed {report.seed}: {len(report.invocations)} invocations of "
          f"`chns {w.command}`, {sum(i.traced for i in report.invocations)} traced")
    print(f"env {json.dumps(report.env, sort_keys=True)}")
    for name, (value, unit) in report.end_to_end.items():
        note = f"  ({report.samples} step samples)" if name.startswith("step_ms") else ""
        print(f"{name} {value:.6g} {unit}{note}")
    print(f"error_rate {len(failed) / len(report.invocations):.6g} "
          f"({len(failed)} of {len(report.invocations)} operations failed)")
    for inv in failed:
        print(f"  invocation {inv.index}: {'; '.join(inv.problems)}")
    if trace:
        for name, (value, unit) in report.per_layer.items():
            print(f"{name} {value:.6g} {unit}")
        extra, base = report.overhead
        unit = "solve" if w.command == "stationary" else "step"
        print(f"tracing overhead {extra:+.3f} ms per {unit} on {base:.3f} ms untraced "
              f"({100.0 * extra / base:+.2f} %)")
        m = {k: v for k, (v, _) in report.per_layer.items()}
        share = m["chd.factor_ms"] / m["coupled.step_ms"] if m["coupled.step_ms"] else 0.0
        print(f"baseline row: coupled step {m['coupled.step_ms']:.1f} ms | ledger row "
              f"{m['diagnostics.ledger_row_ms']:.1f} ms | pressure CG its "
              f"{m['hydro.pressure_iters']:.1f} | Helmholtz CG its {m['hydro.helmholtz_iters']:.1f}"
              f" | factor {m['chd.factor_ms']:.1f} ms, {100.0 * share:.0f} % of the step")


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the chns solver")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), Path.cwd())
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(report, bool(args.trace))
    metrics = report.per_layer if args.trace else report.end_to_end
    failed = sum(not inv.ok for inv in report.invocations)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(report.invocations),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
