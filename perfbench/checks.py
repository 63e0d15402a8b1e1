"""Checks of the program's outputs against values computed apart from it.

Each check returns a list of problems; an empty list means the output
passed.  The references are closed forms, properties the method must have,
or the QP generator's certificate; none is a stored copy of an earlier run.
"""

from __future__ import annotations

import math

import numpy as np

QP_KKT_TOLERANCE = 1e-8
QP_D_TOLERANCE = 1e-5
F_STAR_TOLERANCE = 1e-2  # relative to max(1, |f*|)
F_REEVALUATION_TOLERANCE = 1e-13  # relative to max(1, |f|)


def chained_lq_min(n: int) -> float:
    """min of ChainedLQ: each of its n - 1 terms max(-a - b, -a - b + a^2 + b^2 - 1),
    over neighbours a, b, is at least -sqrt(2), with equality at a = b = 1/sqrt(2)."""
    return -(n - 1) * math.sqrt(2.0)


def chained_cb3_min(n: int) -> float:
    """min of ChainedCB3_2, the largest of three sums over neighbour pairs;
    it is reached at x = 1, where all three sums equal 2(n - 1)."""
    return 2.0 * (n - 1)


def check_history(history, strict: bool) -> list[str]:
    steps = np.diff(np.asarray(history, dtype=float))
    bad = int(np.count_nonzero(steps >= 0.0 if strict else steps > 0.0))
    if bad:
        kind = "does not strictly decrease" if strict else "increases"
        return [f"f_history {kind} at {bad} step(s)"]
    return []


def check_problem_run(report, f_at_x: float, f_star: float | None = None,
                      f_max: float | None = None) -> list[str]:
    """A library-problem run: stationary end, non-increasing f, final f at
    its reference, and the objective at report.x equal to the final f."""
    problems = []
    if report.termination_reason != "stationary":
        problems.append(f"termination {report.termination_reason!r}")
    problems += check_history(report.f_history, strict=False)
    f = report.final_f_unscaled
    if f_star is not None and not abs(f - f_star) <= F_STAR_TOLERANCE * max(1.0, abs(f_star)):
        problems.append(f"final f {f!r} is off its reference {f_star!r}")
    if f_max is not None and not f <= f_max:
        problems.append(f"final f {f!r} is above {f_max!r}")
    if not abs(f_at_x - f) <= F_REEVALUATION_TOLERANCE * max(1.0, abs(f)):
        problems.append(f"f(report.x) = {f_at_x!r} differs from the final f {f!r}")
    return problems


def check_denoise_run(report, restored_mse: float, noisy_mse: float) -> list[str]:
    problems = []
    if report.termination_reason != "stationary":
        problems.append(f"termination {report.termination_reason!r}")
    problems += check_history(report.f_history, strict=True)
    if not restored_mse < noisy_mse:
        problems.append(f"restored MSE {restored_mse!r} is not below the noisy MSE {noisy_mse!r}")
    return problems


def kkt_residual_identity(G, b, delta, omega, sigma, rho, u) -> float:
    """Max-norm KKT violation of the simplex QP in (omega, sigma, rho) >= 0
    with W = I, the bound multipliers taken from stationarity:

        z = G omega + sigma - rho,  v_omega = G'z - b - u,
        v_sigma = z + delta,        v_rho = delta - z,

    and the residual is the largest of |1'omega - 1|, the negative parts of
    theta and v, and |theta * v|.
    """
    theta = np.concatenate([omega, sigma, rho])
    z = G @ omega + sigma - rho
    v = np.concatenate([G.T @ z - b - u, z + delta, delta - z])
    return max(abs(float(np.sum(omega)) - 1.0),
               float(max(0.0, -theta.min())),
               float(max(0.0, -v.min())),
               float(np.max(np.abs(theta * v))))


def check_qp_solution(qp, omega, gamma, sigma, rho, u) -> list[str]:
    """A QP solve against the generator's step d* and a KKT residual
    recomputed here."""
    problems = []
    d = -(qp.G @ omega + gamma)
    d_err = float(np.max(np.abs(d - qp.d_star)))
    if not d_err <= QP_D_TOLERANCE:
        problems.append(f"d error {d_err:.3e} above {QP_D_TOLERANCE:g}")
    kkt = kkt_residual_identity(qp.G, qp.b, qp.delta, omega, sigma, rho, u)
    if not kkt <= QP_KKT_TOLERANCE:
        problems.append(f"KKT residual {kkt:.3e} above {QP_KKT_TOLERANCE:g}")
    return problems
