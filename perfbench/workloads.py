"""The benchmark's workloads: their inputs and the operations each round
runs, with the check of every operation's output.

An operation is one ``run_solver`` call or one QP solve.  Every round of a
workload runs the same operations, so counts repeat from round to round.
The inputs are fixed and do not depend on the benchmark seed (see
README.md, "Why the inputs are fixed").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from nsopt import SolverOptions, generate_qp, make_problem, qp_das, qp_ipm, solver
from nsopt.denoise import (add_salt_pepper, make_denoising, mse, round_to_image,
                           synthetic_image)

import checks

SPEED = {"delta_f": 1e-5, "n_f": 10}  # the CLI's speed mode
GS_SOLVER_SEEDS = (0, 1)  # sampling seeds of the gs-n200 runs
# Criterion 9's noise seed and tuned (lambda, beta) for the 64x64 synthetic image.
DENOISE_NOISE_SEED = 0
DENOISE_PARAMETERS = {"abs": (2.0 ** 5, 2.0 ** 0),
                      "log": (2.0 ** 18, 2.0 ** -7),
                      "fraction": (2.0 ** 23, 2.0 ** -19)}
# (generator seed, d* case) of the qp-n200 instances.
QP_INSTANCES = ((0, "zero"), (0, "half"), (0, "full"), (7, "full"), (9, "full"))
# The instances on which DAS ends above its tolerance: the early exit noted
# in CHANGES.md.  Only these DAS solves may fail their check.
QP_DAS_EARLY_EXIT = ((7, "full"), (9, "full"))
QP_TOLERANCE = 1e-8


@dataclass
class Operation:
    name: str
    root: str  # layer of the span around the whole operation
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    counts: Callable[[object], dict] | None = None  # traced run only
    # A known fault: a failed check counts as a failed operation and leaves
    # the run correct.  An exception never does.
    may_fail: bool = False


def _report_counts(report) -> dict:
    return {"solver.iterations": report.iterations,
            "oracle.f_evals": report.function_evaluations,
            "oracle.g_evals": report.gradient_evaluations}


def _solver_op(name, problem, options, check) -> Operation:
    return Operation(name, "solver",
                     lambda: solver.run_solver(problem.oracle, problem.x0, options),
                     check, _report_counts)


def _problem_op(name: str, n: int, options: SolverOptions,
                f_star: float | None = None, f_max: float | None = None) -> Operation:
    problem = make_problem(name, n)

    def check(report):
        f_at_x = float(problem.oracle.evaluate_f(report.x))
        return checks.check_problem_run(report, f_at_x, f_star, f_max)

    return _solver_op(f"{name} n={n} seed={options.seed}", problem, options, check)


def cp_full_n1000() -> list[Operation]:
    n = 1000
    options = SolverOptions(strategy="cutting_plane", qn_storage="full", **SPEED)
    return [_problem_op("ChainedLQ", n, options, f_star=checks.chained_lq_min(n)),
            _problem_op("ChainedCB3_2", n, options, f_star=checks.chained_cb3_min(n))]


def gs_n200() -> list[Operation]:
    n = 200
    ops = []
    for solver_seed in GS_SOLVER_SEEDS:
        options = SolverOptions(strategy="gradient_combination", seed=solver_seed,
                                **SPEED)
        ops += [_problem_op("ChainedLQ", n, options, f_star=checks.chained_lq_min(n)),
                _problem_op("ChainedCB3_2", n, options, f_star=checks.chained_cb3_min(n)),
                _problem_op("MxHilb", n, options, f_star=0.0),
                _problem_op("ChainedCrescent_1", n, options, f_star=0.0),
                _problem_op("ActiveFaces", n, options, f_star=0.0),
                _problem_op("MaxQ", n, options, f_max=5e-2)]
    return ops


def denoise_lm_64() -> list[Operation]:
    clean = synthetic_image(64, 64)
    noisy = add_salt_pepper(clean, 0.05, DENOISE_NOISE_SEED)
    noisy_mse = mse(noisy, clean)
    options = SolverOptions(qn_storage="limited", **SPEED)

    def check(report):
        restored = round_to_image(report.x, noisy.n_r, noisy.n_c)
        return checks.check_denoise_run(report, mse(restored, clean), noisy_mse)

    return [_solver_op(f"denoise {reg}", make_denoising(noisy, reg, lam, beta),
                       options, check)
            for reg, (lam, beta) in DENOISE_PARAMETERS.items()]


def _qp_op(qp, name: str, may_fail: bool = False) -> Operation:
    # The solvers are looked up when called, so that a traced run calls its wrappers.
    solve = {"das": lambda: qp_das.solve_das(qp.subproblem(), tol=QP_TOLERANCE),
             "ipm": lambda: qp_ipm.solve_ipm(qp.subproblem(), tol=QP_TOLERANCE)}[name]

    def check(sol):
        return checks.check_qp_solution(qp, sol.omega, sol.gamma, sol.sigma,
                                        sol.rho, sol.u)

    return Operation(f"{name} n={qp.n} m={qp.m} {qp.dcase} seed={qp.seed}",
                     f"qp_{name}", solve, check, may_fail=may_fail)


def qp_n200() -> list[Operation]:
    ops = []
    for qp_seed, dcase in QP_INSTANCES:
        qp = generate_qp(200, 400, dcase, qp_seed)
        ops += [_qp_op(qp, "das", (qp_seed, dcase) in QP_DAS_EARLY_EXIT),
                _qp_op(qp, "ipm")]
    return ops


WORKLOADS = {"cp-full-n1000": cp_full_n1000, "gs-n200": gs_n200,
             "denoise-lm-64": denoise_lm_64, "qp-n200": qp_n200}
