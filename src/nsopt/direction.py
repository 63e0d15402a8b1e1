"""Search-direction computation from the bundle and quasi-Newton metric.

Builds the dual subproblem data for one of three strategies and recovers the
primal direction d = -W (G omega + gamma) from the active-set QP solver, or
from the interior-point solver when the active-set solver fails:

- "gradient": current gradient only (m = 1);
- "gradient_combination": all bundle gradients with a common intercept f_k;
- "cutting_plane": linearization values b_j = f_j + g_j'(x_k - x_j),
  downshifted to stay below f_k, from the offsets the bundle holds for x_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .point_set import PointSet
from .qp_das import DasError, solve_das
from .qp_ipm import IpmError, solve_ipm
from .quasi_newton import QuasiNewtonState
from .subproblem import SubproblemData

__all__ = ["SubproblemData", "DirectionResult", "SubproblemFailure",
           "build_subproblem", "compute_direction"]

_DOWNSHIFT = 1e-8
# What a QP solver raises when it cannot solve a subproblem.
_QP_FAILURES = (DasError, IpmError, np.linalg.LinAlgError)


class SubproblemFailure(RuntimeError):
    """Both QP solvers failed on one subproblem."""


@dataclass
class DirectionResult:
    d: np.ndarray
    omega: np.ndarray
    gamma: np.ndarray
    u: float
    kkt_residual: float
    solver: str  # "gradient", "das", or "ipm"
    model_norm_sq: float  # d'Hd = (G w + gamma)' W (G w + gamma)
    inf_norms: tuple[float, float, float]  # ||d||, ||Gw||, ||Gw + gamma||
    fallback: bool = False  # the active-set solver failed and the IPM solved
    # what the metric returned with W (G w + gamma), for its update after a
    # step along d (``QuasiNewtonState.model``)
    hint: np.ndarray | None = None


def build_subproblem(point_set: PointSet, qn: QuasiNewtonState, delta: float,
                     strategy: str) -> SubproblemData:
    cur = point_set.current
    if strategy == "gradient":
        return SubproblemData(G=cur.g.reshape(-1, 1),
                              b=np.array([cur.f]), delta=delta, qn=qn)
    G, gtg, bt_g = point_set.gradient_products(qn)
    if strategy == "gradient_combination":
        b = np.full(len(point_set), cur.f)
    elif strategy == "cutting_plane":
        q, r = point_set.offsets()
        b = np.minimum(point_set.f + r, cur.f - _DOWNSHIFT * q)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return SubproblemData(G=G, b=b, delta=delta, qn=qn, gtg=gtg, bt_g=bt_g)


def _finalize(omega, gamma, u, d, g_omega, res, solver, fallback=False,
              hint=None) -> DirectionResult:
    """``d`` is -W (G omega + gamma) and ``g_omega`` is G omega, both
    already formed by the caller."""
    model = g_omega + gamma
    model_norm_sq = float(-(d @ model))
    inf_norms = (float(np.max(np.abs(d), initial=0.0)),
                 float(np.max(np.abs(g_omega), initial=0.0)),
                 float(np.max(np.abs(model), initial=0.0)))
    return DirectionResult(d, np.asarray(omega, dtype=float), gamma, u, res,
                           solver, model_norm_sq, inf_norms, fallback, hint)


def compute_direction(point_set: PointSet, qn: QuasiNewtonState, delta: float,
                      options) -> DirectionResult:
    strategy = options.strategy
    n = qn.n

    if strategy == "gradient" and options.try_gradient_step:
        g = point_set.current.g
        wg, hint = qn.model(g)
        if np.max(np.abs(wg), initial=0.0) <= delta:
            # makes the single-point KKT system exact
            u = float(g @ wg) - point_set.current.f
            return _finalize(np.ones(1), np.zeros(n), u, -wg, g, 0.0,
                             "gradient", hint=hint)

    data = build_subproblem(point_set, qn, delta, strategy)
    failures = []
    for solver, solve in (("das", solve_das), ("ipm", solve_ipm)):
        try:
            sol = solve(data, tol=options.qp_tolerance)
        except _QP_FAILURES as exc:
            failures.append(f"{solver}: {type(exc).__name__}: {exc}")
            continue
        return _finalize(sol.omega, sol.gamma, sol.u, sol.d, sol.g_omega,
                         sol.kkt_residual, solver, bool(failures), sol.hint)
    raise SubproblemFailure("; ".join(failures))
