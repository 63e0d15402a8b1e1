import importlib.util
from pathlib import Path

import numpy as np

import nsopt.solver
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


def test_null_steps_count_toward_the_stall_counter(monkeypatch):
    # ChainedCB3_2 at n = 1000 with the cp-full-n1000 benchmark's options
    # (cutting plane, full storage, speed mode) from variant 1, whose line
    # searches fail 44 times.  Null steps left out of the stall counter, up
    # to 19 of them in a row along one direction, the run took 125
    # iterations, against 81 from the problem's own x0.  Counted, the stall
    # shrinks the radii among them.  No failed search evaluates f at a
    # trial that rounds to the current iterate: 1099 of that run's 2903
    # evaluations did.
    search, at_x, failed = nsopt.solver.weak_wolfe, [], []

    class Watched:
        def __init__(self, ev, x):
            self.ev, self.x = ev, x

        def f(self, y):
            at_x.append(np.array_equal(y, self.x))
            return self.ev.f(y)

        def g(self, y):
            return self.ev.g(y)

    def watched(ev, x, f, d, model_norm_sq, opts):
        try:
            return search(Watched(ev, x), x, f, d, model_norm_sq, opts)
        except nsopt.solver.LineSearchError:
            failed.append(1)
            raise

    monkeypatch.setattr(nsopt.solver, "weak_wolfe", watched)
    prob = make_problem("ChainedCB3_2", 1000)
    options = SolverOptions(strategy="cutting_plane", qn_storage="full",
                            **rounding_variants.SPEED)
    report = run_solver(prob.oracle, rounding_variants.variant_x0(prob.x0, 1),
                        options)
    assert report.termination_reason == "stationary"
    assert report.iterations <= 90
    assert failed and not any(at_x)
