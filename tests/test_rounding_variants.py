import importlib.util
from pathlib import Path

import numpy as np

from nsopt.options import SolverOptions
from nsopt.problems import make_problem
from nsopt.solver import run_solver

_PATH = Path(__file__).resolve().parent.parent / "tools" / "rounding_variants.py"
_spec = importlib.util.spec_from_file_location("rounding_variants", _PATH)
rounding_variants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rounding_variants)


def test_variants_move_x0_by_at_most_one_unit_in_the_last_place():
    x0 = make_problem("ChainedCB3_2", 10).x0
    assert np.array_equal(rounding_variants.variant_x0(x0, 0), x0)
    moved = rounding_variants.variant_x0(x0, 1)
    assert not np.array_equal(moved, x0)
    assert np.all(np.abs(moved - x0) <= np.spacing(np.abs(x0)))


def test_two_variants_of_one_small_problem():
    result = rounding_variants.run(["ChainedCB3_2"], 10, 2, large=False)
    assert list(result["solves"]) == ["ChainedCB3_2 n=10 speed",
                                      "ChainedCB3_2 n=10 accuracy"]
    assert all(len(runs) == 2 for runs in result["solves"].values())
    prob = make_problem("ChainedCB3_2", 10)
    own = run_solver(prob.oracle, prob.x0, SolverOptions(delta_f=1e-5, n_f=10))
    first = result["solves"]["ChainedCB3_2 n=10 speed"][0]
    assert (first["f"], first["iterations"], first["termination"]) == \
        (own.final_f_unscaled, own.iterations, own.termination_reason)
    lines = rounding_variants.report(result)
    assert sum("spread of f" in line for line in lines) == 2
    assert [line.rsplit(": ", 1)[1] for line in lines[-2:]] == \
        ["PASS" if ok else "FAIL" for ok in result["passes"]]
