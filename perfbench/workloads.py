"""The benchmark's workloads: what each one feeds the solver, and why.

A workload turns a seed into inputs (an INI file, plus a seed snapshot for
the stationary solve) and names the ``chns`` command that consumes them.
The solver sees only those generated files.  Each definition carries its
grid size and step count, and the smoke test runs the same generators on a
small grid with a few steps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DT = 1.0e-3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "run" (coupled march) or "stationary" (equilibrium solve)
    scenario: str  # chns scenario of the run, or of the stationary seed
    size: int  # cells per side
    steps: int  # time steps per coupled run; 0 for a stationary solve
    beta: float  # nonlocal coefficient; 0 switches N(phi) off
    cadence: int = 0  # snapshot every this many steps; 0: final only

    def ini_text(self, seed: int, size: int | None = None, steps: int | None = None) -> str:
        """INI configuration for ``seed``.  A stationary workload's file also
        generates its seed snapshot: with no steps, ``chns run`` writes the
        initial state."""
        n = self.size if size is None else size
        k = self.steps if steps is None else steps
        sections = {
            "grid": {"nx": n, "ny": n},
            "params": {"chi": 0.2, "alpha": 0.5, "beta": self.beta, "potential": "logarithmic"},
            "time": {"dt": DT, "t_end": k * DT},
            "scenario": self._scenario(seed),
            "output": {"cadence": self.cadence},
        }
        lines = []
        for section, entries in sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in entries.items())
            lines.append("")
        return "\n".join(lines)

    def _scenario(self, seed: int) -> dict:
        if self.scenario == "droplet":
            # the droplet carries no noise, so the seed places and sizes the disk
            rng = random.Random(seed)
            return {
                "name": "droplet",
                "radius": round(rng.uniform(0.22, 0.28), 4),
                "center_x": round(rng.uniform(0.45, 0.55), 4),
                "center_y": round(rng.uniform(0.45, 0.55), 4),
            }
        return {"name": self.scenario, "seed": seed}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="spinodal-128",
            why=(
                "coupled run on the largest grid the budget allows: every layer works, the chd LU "
                "dominates and N(phi) is on, so DCT and Newton-Krylov gains show here"
            ),
            command="run",
            scenario="spinodal",
            size=128,
            steps=6,
            beta=1.0,
        ),
        Workload(
            name="droplet-64",
            why=(
                "stiff Newton on a tanh droplet, N(phi) off (beta=0), a snapshot every 10 steps: "
                "hydro and cli I/O weigh more, and an N or ledger change must not move it"
            ),
            command="run",
            scenario="droplet",
            size=64,
            steps=50,
            beta=0.0,
            cadence=10,
        ),
        Workload(
            name="stationary-96",
            why=(
                "chns stationary relaxes a spinodal seed to its residual target: Newton core with "
                "large pseudo-steps and warm N, flow and solute bypassed, so hydro must not move it"
            ),
            command="stationary",
            scenario="spinodal",
            size=96,
            steps=0,
            beta=1.0,
        ),
    )
}
