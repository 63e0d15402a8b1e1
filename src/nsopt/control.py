"""Stationarity/trust-region radius schedule, stall counting, and termination."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class RadiiState:
    eps: float
    delta: float


@dataclass
class StallCounter:
    tolerance: float
    count: int = 0

    def observe(self, f_current: float, f_next: float) -> None:
        """Count consecutive iterations with negligible relative objective change."""
        if abs(f_current - f_next) <= self.tolerance * max(1.0, abs(f_current)):
            self.count += 1
        else:
            self.count = 0


def init_radii(g1: np.ndarray) -> RadiiState:
    norm = float(np.max(np.abs(g1))) if np.size(g1) else 0.0
    return RadiiState(eps=max(1e-2, 1e-1 * norm), delta=max(1e-1, 1e10 * norm))


def reduction_condition(inf_norms: tuple[float, float, float], eps: float) -> bool:
    """True when the step and convex-combination gradients are all within eps."""
    return max(inf_norms) <= eps


def update_radii(state: RadiiState, inf_norms, stall_triggered: bool,
                 eps_min: float) -> tuple[RadiiState, bool]:
    """Shrink both radii tenfold when a stall or the reduction condition
    triggers.  Also returns whether the run is stationary: a reduction
    triggered while eps is already at eps_min."""
    if not (stall_triggered or reduction_condition(inf_norms, state.eps)):
        return state, False
    shrunk = RadiiState(eps=1e-1 * state.eps, delta=1e-1 * state.delta)
    return shrunk, state.eps <= eps_min * (1.0 + 1e-9)
