"""Unconstrained minimization of locally Lipschitz (nonsmooth, nonconvex) objectives.

The solver combines a bundle/sampling outer loop with damped quasi-Newton
metric updates.  Each iteration solves a small convex QP over the simplex,
for which two interchangeable solvers are provided: an active-set method on
the dual subproblem in (omega, gamma) and a tailored predictor-corrector
interior-point method.
"""

from .oracle import ObjectiveOracle, check_derivatives, scale_objective
from .options import SolverOptions, load_options_file
from .solver import SolverReport, run_solver
from .quasi_newton import QuasiNewtonState, damp
from .problems import PROBLEM_NAMES, ProblemInstance, make_problem
from .qp_generator import GeneratedQp, generate_qp

__all__ = [
    "ObjectiveOracle",
    "SolverOptions",
    "SolverReport",
    "ProblemInstance",
    "GeneratedQp",
    "QuasiNewtonState",
    "PROBLEM_NAMES",
    "check_derivatives",
    "damp",
    "generate_qp",
    "load_options_file",
    "make_problem",
    "run_solver",
    "scale_objective",
]
