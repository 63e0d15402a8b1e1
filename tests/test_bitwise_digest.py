import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from nsopt.options import SolverOptions
from nsopt.problems import make_problem
from nsopt.qp_das import solve_das
from nsopt.qp_generator import generate_qp
from nsopt.solver import run_solver

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bitwise_digest.py"
_spec = importlib.util.spec_from_file_location("bitwise_digest", _PATH)
bitwise_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bitwise_digest)


def _report():
    prob = make_problem("ChainedLQ", 10)
    return run_solver(prob.oracle, prob.x0, SolverOptions(iteration_limit=20))


def _solution():
    return solve_das(generate_qp(6, 9, "full", 0).subproblem())


def _next_bit(a):
    """``a`` with its first entry moved to the next float up."""
    out = np.array(a, dtype=float)
    out[0] = np.nextafter(out[0], np.inf)
    return out


@pytest.mark.parametrize("make, array, counts", [
    (_report, "x", ("iterations", "function_evaluations",
                    "gradient_evaluations")),
    (_solution, "d", ("iterations",)),
], ids=["solver_report", "qp_solution"])
def test_digest_tells_one_count_or_one_bit_apart(make, array, counts):
    out = make()
    digest = bitwise_digest.digest(out)
    assert bitwise_digest.digest(make()) == digest
    assert bitwise_digest.digest(dataclasses.replace(out)) == digest
    variants = [dataclasses.replace(out, **{array: _next_bit(getattr(out, array))})]
    variants += [dataclasses.replace(out, **{name: getattr(out, name) + 1})
                 for name in counts]
    digests = {bitwise_digest.digest(v) for v in variants}
    assert digest not in digests and len(digests) == len(variants)
