import numpy as np
import pytest

from nsopt.line_search import (LineSearchError, backtracking_armijo,
                               weak_wolfe)
from nsopt.options import SolverOptions
from nsopt.oracle import CountingOracle, ObjectiveOracle


def _ev(f, g):
    return CountingOracle(ObjectiveOracle(dimension=1, evaluate_f=f,
                                          evaluate_g=g))


def _quadratic():
    return _ev(lambda x: 0.5 * float(x[0] ** 2), lambda x: x.copy())


def _absolute():
    return _ev(lambda x: float(abs(x[0])),
               lambda x: np.array([np.sign(x[0])]))


def test_backtracking_accepts_unit_step_on_quadratic():
    ev = _quadratic()
    opts = SolverOptions(line_search="backtracking")
    res = backtracking_armijo(ev, np.array([1.0]), 0.5, np.array([-1.0]),
                              1.0, opts)
    assert res.alpha == 1.0
    assert res.f_next == pytest.approx(0.0)


def test_backtracking_halves_past_overshoot():
    # |x| from x=1 along d=-3: alpha=1 overshoots to f=2, alpha=1/2 lands at 1/2
    ev = _absolute()
    opts = SolverOptions(line_search="backtracking")
    res = backtracking_armijo(ev, np.array([1.0]), 1.0, np.array([-3.0]),
                              1.0, opts)
    assert res.alpha == pytest.approx(0.5)
    assert res.f_next == pytest.approx(0.5)


def test_backtracking_rejects_zero_model_norm():
    ev = _quadratic()
    opts = SolverOptions()
    with pytest.raises(ValueError):
        backtracking_armijo(ev, np.array([1.0]), 0.5, np.array([-1.0]), 0.0, opts)


def test_weak_wolfe_accepts_unit_step_on_quadratic():
    ev = _quadratic()
    opts = SolverOptions()
    res = weak_wolfe(ev, np.array([1.0]), 0.5, np.array([-1.0]), 1.0, opts)
    assert res.alpha == 1.0
    assert res.f_next == pytest.approx(0.0)


def test_weak_wolfe_bisects_past_kink():
    # |x| from x=1 along d=-2: curvature needs the gradient past the kink at 1/2
    ev = _absolute()
    opts = SolverOptions()
    res = weak_wolfe(ev, np.array([1.0]), 1.0, np.array([-2.0]), 1.0, opts)
    assert 0.5 <= res.alpha < 1.0
    assert res.f_next < 1.0


def test_weak_wolfe_expands_on_linear_descent():
    ev = _ev(lambda x: float(-x[0]), lambda x: np.array([-1.0]))
    opts = SolverOptions()
    res = weak_wolfe(ev, np.array([0.0]), 0.0, np.array([1.0]), 1.0, opts)
    assert res.alpha >= 1.0  # expansion ran; best Armijo step returned
    assert res.f_next < 0.0


def test_weak_wolfe_failure_when_no_decrease():
    ev = _quadratic()
    opts = SolverOptions()
    with pytest.raises(LineSearchError):
        weak_wolfe(ev, np.array([0.0]), 0.0, np.array([1.0]), 1.0, opts)


def test_evaluation_counters_reported():
    ev = _absolute()
    opts = SolverOptions(line_search="backtracking")
    backtracking_armijo(ev, np.array([1.0]), 1.0, np.array([-3.0]), 1.0, opts)
    assert ev.function_evaluations == 2
    assert ev.gradient_evaluations == 1


def test_weak_wolfe_failure_ends_where_the_trial_rounds_to_x():
    # An ascent direction, so every trial fails sufficient decrease and
    # alpha halves: trial j is x + 2^-j d, which rounds to x itself from
    # j = 44 on (|d| = 1e-3 at x = 1).  The search evaluates f at the trials
    # before that, none of them x, and raises as the search over all 60
    # trials did.
    seen = []
    ev = _ev(lambda x: seen.append(x.copy()) or float(x[0]),
             lambda x: np.ones(1))
    x, d = np.array([1.0]), np.array([1e-3])
    with pytest.raises(LineSearchError):
        weak_wolfe(ev, x, 1.0, d, 1.0, SolverOptions())
    trials = [x + 0.5 ** j * d for j in range(60)]
    moved = [t for t in trials if t[0] != x[0]]
    assert len(moved) == 44 and all(t[0] == x[0] for t in trials[44:])
    assert ev.function_evaluations == len(seen) == 44
    assert np.array_equal(np.concatenate(seen), np.concatenate(moved))


def test_weak_wolfe_keeps_bisecting_once_a_step_decreases():
    # Only a search that has found no decrease ends at x: with a decreasing
    # step at hand (here the first, whose curvature fails), the search goes
    # on to its cap and returns that step.
    ev = _ev(lambda x: -float(x[0]) if x[0] <= 1.0 else 5.0,
             lambda x: -np.ones(1))
    res = weak_wolfe(ev, np.array([0.0]), 0.0, np.array([1.0]), 1.0,
                     SolverOptions())
    assert res.alpha == 1.0 and res.f_next == -1.0
    assert ev.function_evaluations == 60
