"""Shared simulation state passed between the transport and flow steps."""

from __future__ import annotations

from dataclasses import dataclass

from .grid import GridSpec, MacVelocity, ScalarField

__all__ = ["SimState"]


@dataclass
class SimState:
    """Full unknown set at one time level."""

    vel: MacVelocity
    phi: ScalarField
    mu: ScalarField
    sigma: ScalarField
    pressure: ScalarField
    t: float = 0.0
    step: int = 0

    def __post_init__(self) -> None:
        g = self.vel.grid
        for f in (self.phi, self.mu, self.sigma, self.pressure):
            if f.grid != g:
                raise ValueError("state fields live on different grids")

    @property
    def grid(self) -> GridSpec:
        return self.vel.grid
