"""Step-size selection enforcing the sufficient decrease condition

    f(x + alpha d) - f(x) <= -1/2 * ls_decrease * alpha * ||d||_H^2,

optionally combined with a weak Wolfe curvature condition on the new gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MAX_UPDATES = 60


class LineSearchError(RuntimeError):
    """No step satisfying sufficient decrease was found within the update cap."""


@dataclass
class LineSearchResult:
    alpha: float
    x_next: np.ndarray
    f_next: float
    g_next: np.ndarray


def backtracking_armijo(ev, x, f, d, model_norm_sq, opts) -> LineSearchResult:
    """Halve alpha from opts.ls_initial until sufficient decrease holds."""
    if model_norm_sq <= 0:
        raise ValueError("descent model norm must be positive")
    alpha = opts.ls_initial
    for _ in range(_MAX_UPDATES + 1):
        x_t = x + alpha * d
        f_t = ev.f(x_t)
        if np.isfinite(f_t) and f_t - f <= -0.5 * opts.ls_decrease * alpha * model_norm_sq:
            g_t = ev.g(x_t)
            return LineSearchResult(alpha, x_t, f_t, g_t)
        alpha *= 0.5
    raise LineSearchError("backtracking exhausted without sufficient decrease")


def weak_wolfe(ev, x, f, d, model_norm_sq, opts) -> LineSearchResult:
    """Bracketing/bisection Armijo + curvature search.

    Expands while decrease holds but curvature fails, bisects on a decrease
    failure.  If the cap is hit, the best decrease-satisfying step seen is
    returned with the curvature condition abandoned.  A search that has
    found no such step ends once x + alpha d rounds to x itself: every later
    trial is x again, whose f cannot decrease.
    """
    if model_norm_sq <= 0:
        raise ValueError("descent model norm must be positive")
    lo, hi = 0.0, np.inf
    alpha = opts.ls_initial
    best = None  # (alpha, x_t, f_t, g_t or None), Armijo-satisfying
    x_bytes = np.asarray(x, dtype=float).tobytes()
    for _ in range(_MAX_UPDATES):
        x_t = x + alpha * d
        if best is None and x_t.tobytes() == x_bytes:
            break
        f_t = ev.f(x_t)
        armijo = np.isfinite(f_t) and f_t - f <= -0.5 * opts.ls_decrease * alpha * model_norm_sq
        if not armijo:
            hi = alpha
            alpha = 0.5 * (lo + hi)
            continue
        g_t = ev.g(x_t)
        if best is None or f_t < best[2]:
            best = (alpha, x_t, f_t, g_t)
        if float(g_t @ d) >= -opts.ls_curvature * model_norm_sq:
            return LineSearchResult(alpha, x_t, f_t, g_t)
        lo = alpha
        alpha = 2.0 * alpha if np.isinf(hi) else 0.5 * (lo + hi)
    if best is None:
        raise LineSearchError("weak Wolfe search found no sufficient-decrease step")
    alpha, x_t, f_t, g_t = best
    return LineSearchResult(alpha, x_t, f_t, g_t)
