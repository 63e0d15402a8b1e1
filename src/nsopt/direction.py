"""Search-direction computation from the bundle and quasi-Newton metric.

Builds the dual subproblem data for one of three strategies and returns the
active-set QP solver's solution, or the interior-point solver's when the
active-set solver fails, with its primal direction d = -W (G omega + gamma):

- "gradient": current gradient only (m = 1), whose direction is -W g with
  no QP solved when W g lies within the trust region;
- "gradient_combination": all bundle gradients with a common intercept f_k;
- "cutting_plane": linearization values b_j = f_j + g_j'(x_k - x_j),
  downshifted to stay below f_k, from the offsets the bundle holds for x_k.

A solver fails when it raises or when its solution's KKT residual is not
within ``qp_tolerance``; when both fail, ``SubproblemFailure`` is raised.
"""

from __future__ import annotations

import numpy as np

from .point_set import PointSet
from .qp_das import DasError, solve_das
from .qp_ipm import IpmError, solve_ipm
from .quasi_newton import QuasiNewtonState
from .subproblem import QpSolution, SubproblemData

__all__ = ["SubproblemData", "QpSolution", "SubproblemFailure",
           "build_subproblem", "compute_direction"]

_DOWNSHIFT = 1e-8
# What a QP solver raises when it cannot solve a subproblem.
_QP_FAILURES = (DasError, IpmError, np.linalg.LinAlgError)


class SubproblemFailure(RuntimeError):
    """Both QP solvers failed on one subproblem."""


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


def compute_direction(point_set: PointSet, qn: QuasiNewtonState, delta: float,
                      options) -> QpSolution:
    if options.strategy == "gradient":
        cur = point_set.current
        wg, hint = qn.model(cur.g)
        if np.max(np.abs(wg), initial=0.0) <= delta:
            # omega = 1 and u from g'Wg make the single-point KKT system exact
            zeros = np.zeros(qn.n)
            return QpSolution(omega=np.ones(1), gamma=zeros, sigma=zeros.copy(),
                              rho=zeros.copy(), u=float(cur.g @ wg) - cur.f,
                              d=-wg, g_omega=cur.g, kkt_residual=0.0,
                              iterations=0, hint=hint, solver="gradient")

    data = build_subproblem(point_set, qn, delta, options.strategy)
    failures = []
    for solver, solve in (("das", solve_das), ("ipm", solve_ipm)):
        try:
            sol = solve(data, tol=options.qp_tolerance)
        except _QP_FAILURES as exc:
            failures.append(f"{solver}: {type(exc).__name__}: {exc}")
            continue
        if not sol.kkt_residual <= options.qp_tolerance:  # NaN included
            failures.append(f"{solver}: KKT residual {sol.kkt_residual:.3g} "
                            f"above {options.qp_tolerance:.3g}")
            continue
        sol.fallback = bool(failures)
        return sol
    raise SubproblemFailure("; ".join(failures))
