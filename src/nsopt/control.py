"""Stationarity/trust-region radius schedule, stall counting, and termination."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class Decision(enum.Enum):
    CONTINUE = "continue"
    REDUCE = "reduce"
    TERMINATE = "terminate"


@dataclass
class RadiiState:
    eps: float
    delta: float


@dataclass
class StallCounter:
    threshold: int
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


def update_radii(state: RadiiState, inf_norms, stall_triggered: bool) -> RadiiState:
    if stall_triggered or reduction_condition(inf_norms, state.eps):
        return RadiiState(eps=1e-1 * state.eps, delta=1e-1 * state.delta)
    return state


def check_termination(state: RadiiState, inf_norms, stall: StallCounter,
                      eps_min: float) -> Decision:
    reduce_now = stall.count >= stall.threshold or reduction_condition(inf_norms, state.eps)
    if not reduce_now:
        return Decision.CONTINUE
    if state.eps <= eps_min * (1.0 + 1e-9):
        return Decision.TERMINATE
    return Decision.REDUCE
