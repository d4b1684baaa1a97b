"""Full coupled stepping: transport first, then flow, plus run scenarios.

Each step freezes the velocity for the phase-field and solute updates,
then advances the momentum equation with the fresh fields driving the
capillary force.  The step size honors an advective CFL bound; the base
step is used whenever the flow is slow enough.

Scenarios:

* ``spinodal``: uniform means plus small seeded noise, fluid at rest;
* ``droplet``: a tanh-profile disk in a quiescent matrix;
* ``drift``: transport only, against a fixed, discretely divergence-free
  velocity built from a corner stream function (the flow solver is
  bypassed, which isolates the transport subsystem).

The seeded noise is drawn from :class:`_Pcg64`, a pure-Python copy of
numpy's default generator: ``_Pcg64(seed).uniform(-1, 1)`` is bit for bit
``numpy.random.default_rng(seed).uniform(-1, 1)``, so seeded states match
numpy's without loading ``numpy.random`` and its OpenSSL-backed seeding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .chd import ChdStepReport, ModelParams, chd_step, chemical_potential
from .diagnostics import LedgerRow, ledger_row
from .elliptic import SolverConfig, SolverError
from .grid import GridSpec, MacVelocity, ScalarField, check_finite
from .hydro import ns_step
from .potential import INIT_MARGIN
from .state import SimState

__all__ = [
    "RunConfig",
    "ScenarioConfig",
    "cfl_dt",
    "coupled_step",
    "initial_state",
    "run",
]

_SCENARIOS = ("spinodal", "droplet", "drift")


@dataclass(frozen=True)
class ScenarioConfig:
    """Initial-data recipe plus its knobs.

    ``amplitude`` scales the seeded noise, ``sigma_mean`` sets the
    conserved solute mean.  The droplet is ``tanh((radius min(lx, ly) -
    dist) / width)``: ``radius`` is a fraction of the shorter side,
    ``center_x`` and ``center_y`` are fractions of their sides, and
    ``width`` is an absolute length.  ``drift_strength`` scales the
    prescribed stream function of the drift scenario.
    """

    name: str = "spinodal"
    amplitude: float = 0.05
    sigma_mean: float = 0.0
    radius: float = 0.25
    width: float = 0.05
    center_x: float = 0.5
    center_y: float = 0.5
    drift_strength: float = 0.1

    def __post_init__(self) -> None:
        check_finite(self)
        if self.name not in _SCENARIOS:
            raise ValueError(f"unknown scenario {self.name!r}; pick from {_SCENARIOS}")
        if self.amplitude < 0.0:
            raise ValueError(f"noise amplitude must be >= 0, got {self.amplitude}")
        if self.name == "droplet" and self.width <= 0.0:
            raise ValueError(f"droplet interface width must be > 0, got {self.width}")

    @property
    def evolves_velocity(self) -> bool:
        return self.name != "drift"


@dataclass(frozen=True)
class RunConfig:
    """Everything a reproducible run needs."""

    grid: GridSpec
    params: ModelParams = ModelParams()
    dt: float = 1.0e-3
    t_end: float = 1.0
    cfl_safety: float = 0.5
    scenario: ScenarioConfig = ScenarioConfig()
    seed: int = 0
    #: Steps between ``on_record`` callbacks; 0 records only the first
    #: and final states.  The ledger itself is always per step.
    cadence: int = 0
    #: Only ``rel_tol`` is read: it sets the residual target of
    #: :func:`~chns.stationary.solve_stationary`.
    solver: SolverConfig = SolverConfig()

    def __post_init__(self) -> None:
        check_finite(self)
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0.0:
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.cadence < 0:
            raise ValueError(f"cadence must be >= 0, got {self.cadence}")


def _clip_phase(values: np.ndarray) -> np.ndarray:
    return np.clip(values, -1.0 + INIT_MARGIN, 1.0 - INIT_MARGIN)


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _Pcg64:
    """The stream of ``numpy.random.default_rng(seed)``, bit for bit.

    Seeding follows numpy's ``SeedSequence``: the seed split into 32-bit
    words is hashed into a pool of four words, and the pool expands into
    the 128-bit state and stream of PCG64, the XSL-RR 128/64 generator of
    O'Neill (PCG, HMC-CS-2014-0905, 2014), which steps before each output.
    """

    def __init__(self, seed: int) -> None:
        words = [seed & _MASK32]
        while seed >> 32:
            seed >>= 32
            words.append(seed & _MASK32)
        const = 0x43B0D7E5

        def hashmix(value: int) -> int:
            nonlocal const
            value ^= const
            const = const * 0x931E8875 & _MASK32
            value = value * const & _MASK32
            return value ^ value >> 16

        def mix(x: int, y: int) -> int:
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
            return r ^ r >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        # generate_state(4, uint64): eight 32-bit words, paired little-endian
        const = 0x8B51F9DD
        out = []
        for i in range(8):
            value = pool[i % 4] ^ const
            const = const * 0x58F38DED & _MASK32
            value = value * const & _MASK32
            out.append(value ^ value >> 16)
        u64 = [out[k] | out[k + 1] << 32 for k in range(0, 8, 2)]
        initstate, initseq = u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]
        self._inc = (initseq << 1 | 1) & _MASK128
        self._state = ((self._inc + initstate) * _PCG_MULT + self._inc) & _MASK128

    def uniform(self, low: float, high: float) -> float:
        """One draw from ``[low, high)``, as numpy's ``Generator.uniform``."""
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = (self._state >> 64 ^ self._state) & _MASK64
        rot = self._state >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        return low + (high - low) * ((x >> 11) * 2.0**-53)


#: Highest cosine mode index used for seeded noise, per direction.
_NOISE_MODES = 2


def _seeded_noise(rng: _Pcg64, spec: GridSpec) -> np.ndarray:
    """Smooth random field with unit max norm.

    Uniform random coefficients on the lowest cosine modes, weighted down
    with the mode number, each drawn in turn as ``rng.uniform(-1, 1)``;
    :class:`_Pcg64` gives bit for bit the draws of
    ``numpy.random.default_rng(seed).uniform(-1, 1)``.  Content beyond the
    reach of one implicit step would be flushed out immediately and its
    energy booked as a one-off ledger defect, so the noise is kept band
    limited.
    """
    xs = (np.arange(spec.nx) + 0.5) / spec.nx
    ys = (np.arange(spec.ny) + 0.5) / spec.ny
    w = np.zeros((spec.nx, spec.ny))
    for j in range(_NOISE_MODES + 1):
        for k in range(_NOISE_MODES + 1):
            if j == 0 and k == 0:
                continue
            amp = rng.uniform(-1.0, 1.0) / float(j * j + k * k) ** 2
            w += amp * np.outer(np.cos(np.pi * j * xs), np.cos(np.pi * k * ys))
    return w / np.max(np.abs(w))


def initial_state(cfg: RunConfig) -> SimState:
    """Build the scenario's initial state; noise is seeded and the phase
    field is kept strictly inside the physical interval."""
    spec = cfg.grid
    p = cfg.params
    sc = cfg.scenario
    shape = (spec.nx, spec.ny)
    vel = MacVelocity.zeros(spec)

    if sc.name in ("spinodal", "drift"):
        rng = _Pcg64(cfg.seed)
        phi_vals = p.c0 + sc.amplitude * _seeded_noise(rng, spec)
        sigma_vals = sc.sigma_mean + sc.amplitude * _seeded_noise(rng, spec)
    else:
        xx, yy = spec.cell_centers()
        dist = np.hypot(xx - sc.center_x * spec.lx, yy - sc.center_y * spec.ly)
        phi_vals = np.tanh((sc.radius * min(spec.lx, spec.ly) - dist) / sc.width)
        sigma_vals = np.full(shape, sc.sigma_mean)

    if sc.name == "drift":
        xc, yc = spec.corner_coords()
        psi = (
            sc.drift_strength
            / np.pi
            * np.sin(np.pi * xc / spec.lx)
            * np.sin(np.pi * yc / spec.ly)
        )
        # sin(pi) carries rounding dust; wall faces must vanish exactly.
        psi[0, :] = psi[-1, :] = 0.0
        psi[:, 0] = psi[:, -1] = 0.0
        vel = MacVelocity.from_stream(spec, psi)

    phi = ScalarField(spec, _clip_phase(phi_vals))
    sigma = ScalarField(spec, sigma_vals)
    mu = chemical_potential(phi, sigma, p)
    return SimState(
        vel=vel,
        phi=phi,
        mu=mu,
        sigma=sigma,
        pressure=ScalarField.zeros(spec),
        t=0.0,
        step=0,
    )


def cfl_dt(vel: MacVelocity, base_dt: float, safety: float) -> float:
    """Advective step bound: ``min(base_dt, safety * h_min / |vel|_inf)``,
    and ``base_dt`` when the fluid is at rest."""
    vmax = vel.max_abs()
    if vmax == 0.0:
        return base_dt
    spec = vel.grid
    return min(base_dt, safety * min(spec.hx, spec.hy) / vmax)


def coupled_step(state: SimState, p: ModelParams, dt: float) -> tuple[SimState, ChdStepReport]:
    """Transport against the frozen velocity, then the projection step
    driven by the fresh fields."""
    mid, report = chd_step(state, p, dt)
    vel_new, pressure, _ = ns_step(state.vel, mid.phi, mid.mu, mid.sigma, p, dt)
    return replace(mid, vel=vel_new, pressure=pressure), report


def run(cfg: RunConfig, on_record=None) -> tuple[SimState, list]:
    """March the configured scenario to ``t_end``.

    Deterministic for a fixed configuration and seed.  Returns the final
    state and the per-step ledger; ``on_record(state)`` fires for the
    initial state and then every ``cadence``-th step plus the final one,
    which is where snapshot writers hook in.  A :class:`SolverError` from
    a step is raised again as the same class, its message ending in
    ``(step N, t = T)``: the failed step and the time it started from.
    """
    state = initial_state(cfg)
    rows: list[LedgerRow] = [ledger_row(state, cfg.params)]
    if on_record is not None:
        on_record(state)
    step = coupled_step if cfg.scenario.evolves_velocity else chd_step
    # a time within a relative 1e-12 of t_end counts as reaching it
    t_stop = cfg.t_end - 1.0e-12 * cfg.t_end

    while state.t < t_stop:
        dt = min(cfl_dt(state.vel, cfg.dt, cfg.cfl_safety), cfg.t_end - state.t)
        try:
            state, report = step(state, cfg.params, dt)
        except SolverError as exc:
            raise type(exc)(f"{exc} (step {state.step + 1}, t = {state.t!r})") from exc
        rows.append(ledger_row(state, cfg.params, prev=rows[-1], dt=dt, report=report))
        final = state.t >= t_stop
        periodic = cfg.cadence > 0 and state.step % cfg.cadence == 0
        if on_record is not None and (periodic or final):
            on_record(state)
    return state, rows
