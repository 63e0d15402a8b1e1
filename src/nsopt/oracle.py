"""Objective oracle contract, scaling, and finite-difference derivative checking.

An oracle evaluates one point at a time, or with ``blocks`` also an (n, k)
block of points as columns.  ``CountingOracle`` takes either from the
solver and counts per point; for an oracle without ``blocks`` it evaluates
a block column by column, the one place where the two kinds meet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class ObjectiveOracle:
    """User-supplied evaluator of f(x) and one generalized gradient at x.

    ``evaluate_f`` may return ``inf`` to mark points outside the effective
    domain; it must never return NaN.  At points of differentiability
    ``evaluate_g`` must return the gradient; at kinks any generalized
    gradient element is acceptable.  Both callables must be pure.

    ``blocks`` says that both callables also take an (n, k) Fortran-ordered
    block whose columns are k points, and return the k values of f or the
    n x k block of gradients, column j for point j.  Otherwise a block is
    evaluated one column at a time (``CountingOracle``).
    """

    dimension: int
    evaluate_f: Callable[[np.ndarray], float]
    evaluate_g: Callable[[np.ndarray], np.ndarray]
    blocks: bool = False


class CountingOracle:
    """Wraps an oracle with evaluation counters and optional objective scaling.

    ``f`` and ``g`` take a point or an (n, k) block of points as columns, and
    count one evaluation per point.  A block goes to an oracle with
    ``blocks`` whole, in Fortran order, and to any other column by column.
    """

    def __init__(self, oracle: ObjectiveOracle, scale: float = 1.0):
        self.oracle = oracle
        self.scale = scale
        self.function_evaluations = 0
        self.gradient_evaluations = 0

    def _each(self, evaluate, X: np.ndarray):
        """``evaluate`` at the columns of X: in one call when the oracle
        takes blocks, else as a list of one call per column."""
        if self.oracle.blocks:
            return evaluate(np.asfortranarray(X))
        return [evaluate(c) for c in X.T]

    def f(self, x: np.ndarray):
        """f(x) as a float, or the k values at the columns of an (n, k) block."""
        if np.ndim(x) == 1:
            self.function_evaluations += 1
            value = float(self.oracle.evaluate_f(x))
        else:
            self.function_evaluations += x.shape[1]
            value = np.asarray(self._each(self.oracle.evaluate_f, x), dtype=float).reshape(-1)
        if np.isnan(value).any():
            raise ValueError("objective returned NaN; use inf for out-of-domain points")
        return self.scale * value

    def g(self, x: np.ndarray) -> np.ndarray:
        """A generalized gradient at x, or the n x k block of those at the
        columns of an (n, k) block."""
        if np.ndim(x) == 1:
            self.gradient_evaluations += 1
            grad = self.oracle.evaluate_g(x)
        else:
            self.gradient_evaluations += x.shape[1]
            grad = self._each(self.oracle.evaluate_g, x)
            if not self.oracle.blocks:
                grad = np.reshape(grad, x.shape[::-1]).T
        grad = np.asarray(grad, dtype=float)
        if not np.all(np.isfinite(grad)):
            raise ValueError("generalized gradient has non-finite entries")
        return self.scale * grad


def scale_objective(g1: np.ndarray) -> float:
    """Scale factor min{1, 1e2 / ||g1||_inf} bringing the initial gradient below 1e2.

    Returns 1 for a zero gradient.
    """
    norm = float(np.max(np.abs(g1))) if np.size(g1) else 0.0
    if norm == 0.0 or not np.isfinite(norm):
        return 1.0
    return min(1.0, 1e2 / norm)


@dataclass
class DerivativeCheckEntry:
    coordinate: int
    analytic: float
    finite_difference: float
    passed: bool
    testable: bool = True


def check_derivatives(
    oracle: ObjectiveOracle,
    x: np.ndarray,
    increment: float = 1e-8,
    rel_tol: float = 1e-4,
) -> list[DerivativeCheckEntry]:
    """Compare the oracle gradient with forward differences, coordinate by coordinate.

    Coordinates where the probe point evaluates infinite are reported as
    untestable.  The comparison is unreliable at kinks of the objective.
    """
    if increment <= 0:
        raise ValueError("increment must be positive")
    x = np.asarray(x, dtype=float)
    f0 = float(oracle.evaluate_f(x))
    if not np.isfinite(f0):
        raise ValueError("derivative check requires a finite base point")
    g = np.asarray(oracle.evaluate_g(x), dtype=float)

    entries = []
    for i in range(oracle.dimension):
        xp = x.copy()
        xp[i] += increment
        fp = float(oracle.evaluate_f(xp))
        if not np.isfinite(fp):
            entries.append(DerivativeCheckEntry(i, g[i], np.nan, False, testable=False))
            continue
        fd = (fp - f0) / increment
        ok = abs(fd - g[i]) <= rel_tol * max(1.0, abs(g[i]))
        entries.append(DerivativeCheckEntry(i, g[i], fd, ok))
    return entries
