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
