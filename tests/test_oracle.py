import numpy as np
import pytest

from nsopt.oracle import (CountingOracle, ObjectiveOracle, check_derivatives,
                          scale_objective)


def test_scale_below_threshold_is_one():
    assert scale_objective(np.array([50.0, -10.0])) == 1.0


def test_scale_large_gradient():
    assert scale_objective(np.array([1e4, 0.0])) == pytest.approx(1e-2)


def test_scale_zero_gradient_is_one():
    assert scale_objective(np.zeros(3)) == 1.0


def test_counting_oracle_counts_and_scales():
    oracle = ObjectiveOracle(dimension=2,
                             evaluate_f=lambda x: float(x @ x),
                             evaluate_g=lambda x: 2.0 * x)
    ev = CountingOracle(oracle, scale=0.5)
    x = np.array([1.0, 2.0])
    assert ev.f(x) == pytest.approx(2.5)
    assert np.allclose(ev.g(x), [1.0, 2.0])
    assert ev.function_evaluations == 1
    assert ev.gradient_evaluations == 1


def test_counting_oracle_rejects_nan():
    oracle = ObjectiveOracle(dimension=1,
                             evaluate_f=lambda x: float("nan"),
                             evaluate_g=lambda x: x)
    ev = CountingOracle(oracle)
    with pytest.raises(ValueError):
        ev.f(np.zeros(1))


def _quadratic(blocks, f=None):
    """f = x'x, or the given per-point f; a block oracle sums over axis 0."""
    return ObjectiveOracle(dimension=2,
                           evaluate_f=f or (lambda x: np.sum(x * x, axis=0)),
                           evaluate_g=lambda x: 2.0 * x, blocks=blocks)


@pytest.mark.parametrize("blocks", [False, True])
def test_counting_oracle_evaluates_blocks_per_column(blocks):
    ev = CountingOracle(_quadratic(blocks), scale=0.5)
    X = np.asfortranarray([[1.0, 0.0, -3.0], [2.0, 0.5, 4.0]])
    F, G = ev.f(X), ev.g(X)
    assert F.shape == (3,) and G.shape == (2, 3)
    for j in range(3):
        assert F[j] == ev.f(X[:, j]) and np.array_equal(G[:, j], ev.g(X[:, j]))
    assert ev.function_evaluations == ev.gradient_evaluations == 6
    assert ev.f(X[:, :0]).shape == (0,) and ev.g(X[:, :0]).shape == (2, 0)
    assert ev.function_evaluations == ev.gradient_evaluations == 6


def test_counting_oracle_hands_one_call_a_whole_fortran_block():
    calls = []

    def f(X):
        calls.append(X.flags.f_contiguous)
        return np.sum(X, axis=0)

    ev = CountingOracle(_quadratic(True, f))
    ev.f(np.ones((2, 4)))  # C-ordered: made Fortran-ordered for the oracle
    assert calls == [True] and ev.function_evaluations == 4
    ev = CountingOracle(_quadratic(False, lambda x: calls.append(x.shape) or 1.0))
    ev.f(np.ones((2, 3), order="F"))
    assert calls[1:] == [(2,)] * 3 and ev.function_evaluations == 3


@pytest.mark.parametrize("blocks", [False, True])
def test_counting_oracle_rejects_nan_and_non_finite_blocks(blocks):
    nan_at_1 = (lambda x: np.where(x[0] == 1.0, np.nan, x[0])) if blocks else \
        (lambda x: np.nan if x[0] == 1.0 else float(x[0]))
    ev = CountingOracle(_quadratic(blocks, nan_at_1))
    with pytest.raises(ValueError, match="NaN"):
        ev.f(np.asfortranarray([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0]]))
    assert ev.function_evaluations == 3
    # inf is a value (out of the domain), not an error
    inf_f = (lambda x: np.full(x.shape[1], np.inf)) if blocks else (lambda x: np.inf)
    ev = CountingOracle(_quadratic(blocks, inf_f))
    assert ev.f(np.zeros((2, 2), order="F")).tolist() == [np.inf, np.inf]
    assert ev.function_evaluations == 2
    with pytest.raises(ValueError, match="non-finite"):
        ev.g(np.asfortranarray([[0.0, np.inf], [1.0, 2.0]]))
    assert ev.gradient_evaluations == 2


def test_derivative_check_quadratic():
    oracle = ObjectiveOracle(dimension=1,
                             evaluate_f=lambda x: float(x[0] ** 2),
                             evaluate_g=lambda x: 2.0 * x)
    entries = check_derivatives(oracle, np.array([1.0]), increment=1e-8)
    assert entries[0].passed
    assert entries[0].finite_difference == pytest.approx(2.0, abs=1e-6)


def test_derivative_check_linear_exact():
    a = np.array([3.0, -1.0, 0.25])
    oracle = ObjectiveOracle(dimension=3,
                             evaluate_f=lambda x: float(a @ x),
                             evaluate_g=lambda x: a.copy())
    entries = check_derivatives(oracle, np.zeros(3))
    assert all(e.passed for e in entries)


def test_derivative_check_flags_kink():
    # |x| at 0: forward difference sees slope +1 but the oracle may return -1
    oracle = ObjectiveOracle(dimension=1,
                             evaluate_f=lambda x: float(abs(x[0])),
                             evaluate_g=lambda x: np.array([-1.0]))
    entries = check_derivatives(oracle, np.zeros(1))
    assert not entries[0].passed


def test_derivative_check_marks_infinite_probe_untestable():
    def f(x):
        return float("inf") if x[0] > 0.5 else float(x[0])

    oracle = ObjectiveOracle(dimension=1, evaluate_f=f,
                             evaluate_g=lambda x: np.ones(1))
    entries = check_derivatives(oracle, np.full(1, 0.5), increment=1.0)
    assert not entries[0].testable
