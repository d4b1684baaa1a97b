"""Run one ``chns`` command in this fresh process and record its clocks.

Usage::

    python3 perfbench/child.py --src SRC --result OUT.json [--trace] -- <chns arguments>

The command goes through ``chns.cli.main``.  Without ``--trace`` the only
instrumentation is one clock read at the start of each step (or pseudo-step
of a stationary solve) and one at the end of the stepping loop.  With
``--trace`` every public function in :data:`tracing.WRAPS` also records a
span.  The result file holds the clock readings (``time.monotonic``, which
all processes share), peak RSS, the environment, the stationary output
checks and, when traced, the spans.  The exit code is the command's.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

import tracing


def _blas_threads() -> dict:
    """Threads each loaded OpenBLAS reports it will use."""
    found = {}
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def _install_clocks(marks: dict) -> None:
    """Clock reads at step starts and loop ends, outside any trace wrapper."""
    from chns import cli, coupled, stationary

    def at_entry(fn, key):
        def clocked(*args, **kwargs):
            marks[key].append(time.monotonic())
            return fn(*args, **kwargs)

        return clocked

    def around(fn, start_key, end_key):
        def clocked(*args, **kwargs):
            marks[start_key].append(time.monotonic())
            result = fn(*args, **kwargs)
            marks[end_key].append(time.monotonic())
            marks["result"] = result
            return result

        return clocked

    coupled.coupled_step = at_entry(coupled.coupled_step, "steps")
    stationary._newton_solve = at_entry(stationary._newton_solve, "steps")
    cli.run = around(cli.run, "loop", "loop_end")
    cli.solve_stationary = around(cli.solve_stationary, "loop", "loop_end")


def _stationary_checks(config: str, seed_snapshot: str, out_dir: str, eq) -> list:
    """Residual target and mean laws of the written equilibrium, with the
    residual recomputed from the file rather than taken from the solver."""
    import numpy as np
    from chns import cli, potential
    from chns.chd import nonlocal_potential
    from chns.grid import laplacian_raw

    cfg = cli.parse_config(config)
    p = cfg.params
    seed = cli.read_snapshot(seed_snapshot)
    out = cli.read_snapshot(Path(out_dir) / "equilibrium.bin")
    target = cfg.solver.rel_tol * p.theta0
    m_target = p.c0 if p.alpha > 0.0 else float(seed.phi.values.mean())
    sigma_const = float(seed.sigma.values.mean()) - p.chi * m_target
    phi = out.phi.values
    r = -laplacian_raw(out.grid, phi) + potential.psi_prime(phi, p.potential)
    r -= p.chi * (p.chi * phi + sigma_const)
    if p.beta != 0.0:
        r += p.beta * nonlocal_potential(out.phi, cfg.solver)[0].values
    residual = float(np.max(np.abs(r - r.mean())))
    phi_dev = abs(float(phi.mean()) - m_target)
    sigma_dev = abs(float(out.sigma.values.mean()) - float(seed.sigma.values.mean()))
    return [
        ("reported residual within target", eq.residual_inf <= target,
         f"{eq.residual_inf:.3e} vs {target:.3e}"),
        ("recomputed residual within target", residual <= target, f"{residual:.3e} vs {target:.3e}"),
        ("phase mean law", phi_dev <= 1.0e-12, f"|mean phi - {m_target!r}| = {phi_dev:.2e}"),
        ("solute mean law", sigma_dev <= 1.0e-12, f"mean sigma drift {sigma_dev:.2e}"),
    ]


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the chns package")
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("--trace", action="store_true", help="record spans")
    parser.add_argument("chns_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    chns_args = args.chns_args[1:] if args.chns_args[:1] == ["--"] else args.chns_args

    import chns
    from chns import cli

    src = Path(args.src).resolve()
    if Path(chns.__file__).resolve().parent != src / "chns":
        print(f"error: imported chns from {chns.__file__}, expected {src}", file=sys.stderr)
        return 2

    tracer = None
    main_fn = cli.main
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        main_fn = tracer.wrap(cli.main, "cli.main")
    marks: dict = {"steps": [], "loop": [], "loop_end": []}
    _install_clocks(marks)

    code = main_fn(chns_args)
    main_end = time.monotonic()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import numpy
    import scipy

    result = {
        "exit_code": code,
        "step_starts": marks["steps"],
        "loop_start": marks["loop"][0] if marks["loop"] else None,
        "loop_end": marks["loop_end"][0] if marks["loop_end"] else None,
        "main_end": main_end,
        "peak_rss_kb": peak_rss_kb,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": _blas_threads(),
        },
    }
    if code == 0 and chns_args[0] == "stationary":
        def arg(flag):
            return chns_args[chns_args.index(flag) + 1]

        result["checks"] = _stationary_checks(
            arg("--config"), arg("--seed-snapshot"), arg("--out"), marks["result"]
        )
    if tracer is not None:
        result["spans"] = tracer.spans
    Path(args.result).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
