import warnings

import numpy as np
import pytest

from nsopt.oracle import check_derivatives
from nsopt.problems import PROBLEM_NAMES, make_problem


def test_maxq_hand_values():
    prob = make_problem("MaxQ", 4)
    x = np.array([1.0, 2.0, -3.0, -4.0])
    assert prob.oracle.evaluate_f(x) == pytest.approx(16.0)
    assert np.allclose(prob.oracle.evaluate_g(x), [0.0, 0.0, 0.0, -8.0])


def test_maxq_tie_breaks_to_lowest_index():
    prob = make_problem("MaxQ", 3)
    g = prob.oracle.evaluate_g(np.array([2.0, -2.0, 1.0]))
    assert np.allclose(g, [4.0, 0.0, 0.0])


def test_chained_lq_f_star():
    prob = make_problem("ChainedLQ", 1000)
    assert prob.f_star == pytest.approx(-np.sqrt(2.0) * 999)


def test_chained_cb3_f_star():
    assert make_problem("ChainedCB3_1", 1000).f_star == pytest.approx(1998.0)
    assert make_problem("ChainedCB3_2", 1000).f_star == pytest.approx(1998.0)


def test_standard_starting_points():
    assert np.allclose(make_problem("MaxQ", 4).x0, [1.0, 2.0, -3.0, -4.0])
    assert np.allclose(make_problem("MxHilb", 3).x0, 1.0)
    assert np.allclose(make_problem("ChainedLQ", 3).x0, -0.5)
    assert np.allclose(make_problem("BrownFunction_2", 4).x0, [-1.0, 1.0, -1.0, 1.0])
    assert np.allclose(make_problem("ChainedCrescent_1", 4).x0,
                       [-1.5, 2.0, -1.5, 2.0])


def test_mifflin_f_star_only_at_n_1000():
    assert make_problem("ChainedMifflin_2", 1000).f_star == pytest.approx(-706.55)
    assert make_problem("ChainedMifflin_2", 100).f_star is None


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        make_problem("NoSuchProblem", 10)


def test_small_dimension_rejected():
    with pytest.raises(ValueError):
        make_problem("MaxQ", 1)


def _kink_coordinates(oracle, x, increment):
    """Coordinates where forward and backward differences disagree markedly."""
    f0 = oracle.evaluate_f(x)
    kinks = set()
    for i in range(x.size):
        xp = x.copy()
        xp[i] += increment
        xm = x.copy()
        xm[i] -= increment
        fwd = (oracle.evaluate_f(xp) - f0) / increment
        bwd = (f0 - oracle.evaluate_f(xm)) / increment
        if abs(fwd - bwd) > 1e-4 * max(1.0, abs(fwd), abs(bwd)):
            kinks.add(i)
    return kinks


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_derivatives_match_finite_differences(name):
    n = 12
    prob = make_problem(name, n)
    rng = np.random.default_rng(PROBLEM_NAMES.index(name))
    inc = 1e-7
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, n)
        kinks = _kink_coordinates(prob.oracle, x, inc)
        entries = check_derivatives(prob.oracle, x, increment=inc)
        for e in entries:
            if e.coordinate in kinks or not e.testable:
                continue
            assert abs(e.finite_difference - e.analytic) <= \
                1e-4 * max(1.0, abs(e.analytic)), (name, e.coordinate)


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_objective_bounded_below_by_f_star(name):
    prob = make_problem(name, 10)
    if prob.f_star is None:
        pytest.skip("no exact minimal value at this dimension")
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = rng.uniform(-3.0, 3.0, 10)
        assert prob.oracle.evaluate_f(x) >= prob.f_star - 1e-9


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_gradient_is_finite_everywhere_sampled(name):
    prob = make_problem(name, 8)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(-5.0, 5.0, 8)
        g = prob.oracle.evaluate_g(x)
        assert np.all(np.isfinite(g))
        assert g.shape == (8,)


@pytest.mark.parametrize("name", ["ChainedCB3_1", "ChainedCB3_2"])
def test_cb3_overflow_gives_inf_without_a_warning(name):
    # exp(b - a) overflows at line-search trial points far from the start:
    # f is inf there, silently, and finite values are the formula's own.
    prob = make_problem(name, 6)
    far = np.array([-400.0, 400.0, 0.0, 1.0, 2.0, 3.0])
    rng = np.random.default_rng(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert prob.oracle.evaluate_f(far) == np.inf
        assert not np.all(np.isfinite(prob.oracle.evaluate_g(far)))
        for x in rng.uniform(-3.0, 3.0, (20, 6)):
            a, b = x[:-1], x[1:]
            terms = np.vstack([a ** 4 + b ** 2, (2.0 - a) ** 2 + (2.0 - b) ** 2,
                               2.0 * np.exp(b - a)])
            sums = np.sum(terms, axis=1)
            if name == "ChainedCB3_1":
                assert prob.oracle.evaluate_f(x) == np.sum(np.max(terms, axis=0))
                continue
            assert prob.oracle.evaluate_f(x) == np.max(sums)
            e = 2.0 * np.exp(b - a)
            gi, gj = [(4.0 * a ** 3, 2.0 * b), (-2.0 * (2.0 - a), -2.0 * (2.0 - b)),
                      (-e, e)][int(np.argmax(sums))]
            g = np.zeros(6)
            g[:-1] += gi
            g[1:] += gj
            assert np.array_equal(prob.oracle.evaluate_g(x), g)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _block(name, n, k, rng):
    """k F-ordered columns: random points, then ties and kinks (zeros, equal
    entries, integers), and for ChainedCB3 a point at which exp overflows."""
    X = np.asfortranarray(rng.uniform(-3.0, 3.0, (n, k)))
    special = [np.zeros(n), np.where(np.arange(n) % 2 == 0, 2.0, -2.0),
               np.round(X[:, 0]), np.full(n, 1.0)]
    if name.startswith("ChainedCB3"):
        special.insert(0, np.concatenate([[-400.0, 400.0], X[2:, 0]]))
    for j, column in zip(range(1, k), special):
        X[:, j] = column
    return X


@pytest.mark.parametrize("k", [1, 2, 9])
@pytest.mark.parametrize("n", [2, 3, 10, 200])
@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_block_evaluation_is_bitwise_per_column(name, n, k):
    # One call on a block gives, column for column, the bits of one call per
    # point, inf values and non-finite gradients included.
    prob = make_problem(name, n)
    assert prob.oracle.blocks
    X = _block(name, n, k, np.random.default_rng([n, k, PROBLEM_NAMES.index(name)]))
    F, G = prob.oracle.evaluate_f(X), prob.oracle.evaluate_g(X)
    assert F.shape == (k,) and G.shape == (n, k)
    for j in range(k):
        x = X[:, j].copy()
        assert _bits(prob.oracle.evaluate_f(x)) == _bits(F[j])
        assert np.array_equal(_bits(prob.oracle.evaluate_g(x)), _bits(G[:, j]))
    if name.startswith("ChainedCB3") and k > 1:
        assert F[1] == np.inf and np.isfinite(F[0])
