import numpy as np
import pytest

from nsopt import qp_das
from nsopt.qp_das import solve_das
from nsopt.qp_generator import generate_qp
from nsopt.quasi_newton import QuasiNewtonState
from nsopt.subproblem import SubproblemData, dual_objective


def _data(G, b, delta=1.0):
    G = np.atleast_2d(np.asarray(G, dtype=float))
    return SubproblemData(G=G, b=np.asarray(b, dtype=float), delta=delta,
                          qn=QuasiNewtonState(G.shape[0]))


def test_single_column_within_box():
    data = _data([[0.5], [-0.25]], [1.0], delta=1.0)
    sol = solve_das(data)
    assert np.allclose(sol.omega, [1.0])
    assert np.allclose(sol.gamma, 0.0)
    assert sol.kkt_residual <= 1e-8


def test_single_column_clips_against_box():
    # W g = (3, -0.2); delta = 1 clips the first coordinate to the box
    data = _data([[3.0], [-0.2]], [0.0], delta=1.0)
    sol = solve_das(data)
    assert np.allclose(sol.omega, [1.0])
    model = data.G[:, 0] + sol.gamma
    assert np.max(np.abs(model)) <= 1.0 + 1e-8
    assert sol.kkt_residual <= 1e-8


def test_two_opposed_columns_split_evenly():
    data = _data([[1.0, -1.0]], [0.0, 0.0], delta=1.0)
    sol = solve_das(data)
    assert np.allclose(sol.omega, [0.5, 0.5], atol=1e-9)
    assert np.allclose(sol.gamma, 0.0, atol=1e-9)


def test_generated_qp_zero_case():
    qp = generate_qp(8, 12, "zero", 0)
    sol = solve_das(qp.subproblem())
    d = -(qp.G @ sol.omega + sol.gamma)
    assert np.max(np.abs(d)) <= 1e-5
    assert sol.kkt_residual <= 1e-8


def _watch_objective(monkeypatch) -> list[float]:
    """The primal objective -dual after each pivot of ``solve_das``, in
    order, recorded where it evaluates the dual objective."""
    values = []
    dual = qp_das.dual_objective_from_state

    def watched(st, r_w):
        out = dual(st, r_w)
        values.append(-out)
        return out

    monkeypatch.setattr(qp_das, "dual_objective_from_state", watched)
    return values


def test_objective_history_monotone_nonincreasing(monkeypatch):
    values = _watch_objective(monkeypatch)
    for seed in range(5):
        values.clear()
        qp = generate_qp(10, 20, "half", seed)
        sol = solve_das(qp.subproblem())
        hist = np.array(values)
        assert hist.size == sol.iterations
        assert np.all(np.diff(hist) <= 1e-9 * np.maximum(1.0, np.abs(hist[:-1])))


def test_solution_matches_dual_objective(monkeypatch):
    values = _watch_objective(monkeypatch)
    qp = generate_qp(7, 10, "full", 5)
    data = qp.subproblem()
    sol = solve_das(data)
    assert values[-1] == pytest.approx(
        -dual_objective(data, sol.omega, sol.gamma), rel=1e-9, abs=1e-9)
