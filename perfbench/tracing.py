"""Span tracing around the public functions of ``chns`` and the parser that
turns spans into per-layer numbers.

The tracer replaces each function in the namespace its callers look it up
in (``coupled.chd_step`` is the name ``coupled.run`` calls, so that is the
attribute patched).  A span is ``[name, start, end, parent, counts]``:
``name`` is ``<layer>.<function>``, ``parent`` the index of the enclosing
span, and ``counts`` the solver counts read from the call's return value.
Spans stay in memory until the process writes them out.

``grid`` and ``potential`` hold stencil and pointwise kernels that run
inside the other layers, so they get no spans of their own.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def _chd_report(result):
    report = result[1]
    return {
        "newton_iters": report.newton_iters,
        "linear_iters": report.linear_iters,
        "clipped_steps": report.clipped_steps,
    }


def _projection_report(result):
    report = result[2]
    return {"pressure_iters": report.pressure_iters, "helmholtz_iters": report.helmholtz_iters}


def _newton_result(result):
    return {"newton_iters": result[1], "clipped_steps": result[3]}


def _equilibrium(result):
    return {"iterations": result.iterations}


# (namespace the caller looks the name up in, attribute, span name, counts)
WRAPS = (
    ("cli", "parse_config", "cli.parse_config", None),
    ("cli", "read_snapshot", "cli.read_snapshot", None),
    ("cli", "write_snapshot", "cli.write_snapshot", None),
    ("cli", "write_ledger_csv", "cli.write_ledger_csv", None),
    ("cli", "run", "coupled.run", None),
    ("cli", "solve_stationary", "stationary.solve_stationary", _equilibrium),
    ("cli", "chemical_potential", "chd.chemical_potential", None),
    ("coupled", "initial_state", "coupled.initial_state", None),
    ("coupled", "coupled_step", "coupled.coupled_step", None),
    ("coupled", "chd_step", "chd.chd_step", _chd_report),
    ("coupled", "ns_step", "hydro.ns_step", _projection_report),
    ("coupled", "ledger_row", "diagnostics.ledger_row", None),
    ("coupled", "chemical_potential", "chd.chemical_potential", None),
    ("chd", "nonlocal_potential", "chd.nonlocal_potential", None),
    ("chd", "ch_step", "chd.ch_step", None),
    ("chd", "sigma_step", "chd.sigma_step", None),
    ("chd", "splu", "chd.splu", "first_lu_fill"),
    ("chd", "cg_raw", "elliptic.cg_raw", None),
    ("chd", "solve_spd", "elliptic.solve_spd", None),
    ("hydro", "project", "hydro.project", None),
    ("hydro", "neumann_solve", "elliptic.neumann_solve", None),
    ("hydro", "cg_raw", "elliptic.cg_raw", None),
    ("elliptic", "solve_spd", "elliptic.solve_spd", None),
    ("elliptic", "cg_raw", "elliptic.cg_raw", None),
    ("diagnostics", "nonlocal_potential", "chd.nonlocal_potential", None),
    ("diagnostics", "free_energy", "diagnostics.free_energy", None),
    ("stationary", "_newton_solve", "chd._newton_solve", _newton_result),
    ("stationary", "nonlocal_potential", "chd.nonlocal_potential", None),
)

LAYERS = ("cli", "coupled", "chd", "elliptic", "hydro", "diagnostics", "stationary")


class Tracer:
    """Collects spans in call order; not thread-safe (the solver is serial)."""

    def __init__(self) -> None:
        self.spans: list = []
        self._open: list = []
        self._lu_seen = False

    def wrap(self, fn, name: str, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else None, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self._open.pop()
            if counts is not None:
                span[4] = counts(result)
            return result

        return traced

    def _first_lu_fill(self, lu):
        # building the L and U copies costs time inside the step, so only
        # the process's first factorization is read
        if self._lu_seen:
            return None
        self._lu_seen = True
        return {"lu_nnz": lu.L.nnz + lu.U.nnz}

    def install(self) -> None:
        """Patch every entry of :data:`WRAPS` in the imported ``chns``."""
        for module_name, attr, span_name, counts in WRAPS:
            if counts == "first_lu_fill":
                counts = self._first_lu_fill
            module = importlib.import_module(f"chns.{module_name}")
            setattr(module, attr, self.wrap(getattr(module, attr), span_name, counts))


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(runs: list) -> tuple[dict, list]:
    """Per-layer metrics from traced invocations.

    ``runs`` holds ``(spans, units)`` pairs, where ``units`` are the
    ``(start, end)`` intervals of each step (or each stationary solve).
    Times and counts are per unit, except the set-up and file I/O numbers,
    which are per call.  Returns the metrics and, for each unit, the
    mismatch between its duration and its self times plus uncovered time,
    which should be rounding only.
    """
    sums: dict = defaultdict(float)
    per_call: dict = defaultdict(list)
    mismatches = []
    n_units = 0
    for spans, units in runs:
        for name, start, end, _, counts in spans:
            per_call[name].append(end - start)
            if counts and "lu_nnz" in counts:
                per_call["lu_nnz"].append(counts["lu_nnz"])
        for u_start, u_end in units:
            n_units += 1
            inside = [i for i, s in enumerate(spans) if s[1] >= u_start and s[2] <= u_end]
            inside_set = set(inside)
            child_time: dict = defaultdict(float)
            for i in inside:
                parent = spans[i][3]
                if parent in inside_set:
                    child_time[parent] += spans[i][2] - spans[i][1]
            covered = 0.0
            self_total = 0.0
            for i in inside:
                name, start, end, parent, counts = spans[i]
                duration = end - start
                self_time = duration - child_time[i]
                self_total += self_time
                sums[f"{layer(name)}.self"] += self_time
                sums[name] += duration
                sums[f"{name}#calls"] += 1
                if parent not in inside_set:
                    covered += duration
                if name == "chd.nonlocal_potential" and parent is not None:
                    sums[f"{layer(spans[parent][0])}.nonlocal"] += duration
                for key, value in (counts or {}).items():
                    if key != "lu_nnz":
                        sums[f"count.{key}"] += value
            other = (u_end - u_start) - covered
            sums["other"] += other
            sums["unit"] += u_end - u_start
            mismatches.append(abs(self_total + other - (u_end - u_start)))

    def ms(key: str) -> float:
        return 1.0e3 * sums[key] / n_units if n_units else 0.0

    def count(key: str) -> float:
        return sums[key] / n_units if n_units else 0.0

    metrics = {
        "coupled.step_ms": (ms("unit"), "ms"),
        "coupled.other_ms": (ms("other"), "ms"),
        "chd.ch_step_ms": (ms("chd.ch_step"), "ms"),
        "chd.sigma_step_ms": (ms("chd.sigma_step"), "ms"),
        "chd.factor_ms": (ms("chd.splu"), "ms"),
        "chd.factor_calls": (count("chd.splu#calls"), "count"),
        "chd.lu_nnz": (_mean(per_call["lu_nnz"]), "count"),
        "chd.newton_iters": (count("count.newton_iters"), "count"),
        "chd.clipped_steps": (count("count.clipped_steps"), "count"),
        "chd.linear_iters": (count("count.linear_iters"), "count"),
        "chd.nonlocal_ms": (ms("chd.nonlocal"), "ms"),
        "diagnostics.nonlocal_ms": (ms("diagnostics.nonlocal"), "ms"),
        "diagnostics.ledger_row_ms": (ms("diagnostics.ledger_row"), "ms"),
        "stationary.nonlocal_ms": (ms("stationary.nonlocal"), "ms"),
        "stationary.solve_ms": (ms("stationary.solve_stationary"), "ms"),
        "stationary.iterations": (count("count.iterations"), "count"),
        "hydro.ns_step_ms": (ms("hydro.ns_step"), "ms"),
        "hydro.predictor_ms": (ms("hydro.ns_step") - ms("hydro.project"), "ms"),
        "hydro.project_ms": (ms("hydro.project"), "ms"),
        "hydro.pressure_iters": (count("count.pressure_iters"), "count"),
        "hydro.helmholtz_iters": (count("count.helmholtz_iters"), "count"),
        "elliptic.cg_ms": (ms("elliptic.cg_raw"), "ms"),
        "elliptic.cg_calls": (count("elliptic.cg_raw#calls"), "count"),
        "coupled.initial_state_ms": (1.0e3 * _mean(per_call["coupled.initial_state"]), "ms"),
        "cli.parse_config_ms": (1.0e3 * _mean(per_call["cli.parse_config"]), "ms"),
        "cli.read_snapshot_ms": (1.0e3 * _mean(per_call["cli.read_snapshot"]), "ms"),
        "cli.write_snapshot_ms": (1.0e3 * _mean(per_call["cli.write_snapshot"]), "ms"),
        "cli.write_ledger_ms": (1.0e3 * _mean(per_call["cli.write_ledger_csv"]), "ms"),
    }
    for name in LAYERS:
        metrics[f"{name}.self_ms"] = (ms(f"{name}.self"), "ms")
    return metrics, mismatches
