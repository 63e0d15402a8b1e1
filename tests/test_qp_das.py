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


def _solve_watching_objective(data):
    """``solve_das`` on ``data``, and the primal objective -dual after each
    pivot, in order.  Each working-set solve records the iterate that the
    previous pivot left, and the solver's iterate after it returns gives the
    last."""
    values, seen = [], []
    solve = qp_das._solve_eqp

    def watched(st, S, F, pivot):
        if pivot > 1:
            values.append(-dual_objective(data, st.omega, st.gamma))
        seen[:] = [st]
        return solve(st, S, F, pivot)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qp_das, "_solve_eqp", watched)
        sol = solve_das(data)
    values.append(-dual_objective(data, seen[0].omega, seen[0].gamma))
    return sol, np.array(values)


def test_objective_history_monotone_nonincreasing():
    for seed in range(5):
        sol, hist = _solve_watching_objective(
            generate_qp(10, 20, "half", seed).subproblem())
        assert hist.size == sol.iterations
        assert np.all(np.diff(hist) <= 1e-9 * np.maximum(1.0, np.abs(hist[:-1])))


def test_solution_matches_dual_objective():
    qp = generate_qp(7, 10, "full", 5)
    data = qp.subproblem()
    sol, hist = _solve_watching_objective(data)
    assert hist[-1] == pytest.approx(
        -dual_objective(data, sol.omega, sol.gamma), rel=1e-9, abs=1e-9)


def test_each_pivot_factors_once(monkeypatch):
    calls = []
    getrf = qp_das._getrf

    def counted(*args, **kwargs):
        calls.append(1)
        return getrf(*args, **kwargs)

    monkeypatch.setattr(qp_das, "_getrf", counted)
    for seed in range(3):
        calls.clear()
        sol = solve_das(generate_qp(40, 80, "full", seed).subproblem())
        assert len(calls) == sol.iterations


def _reference_eqp(st, S, F):
    """The bordered solve for the step from the iterate, with
    ``np.linalg.solve`` and three refinements."""
    s, f = len(S), F.size
    W = st.dense_W()
    M = np.zeros((s + f + 1, s + f + 1))
    M[:s, :s] = st.K[np.ix_(S, S)]
    M[s:s + f, :s] = st.WG[np.ix_(F, S)]
    M[:s, s:s + f] = M[s:s + f, :s].T
    M[s:s + f, s:s + f] = W[np.ix_(F, F)]
    M[:s, -1] = M[-1, :s] = 1.0
    x0 = np.concatenate([st.omega[S], st.gamma[F], [0.0]])
    rhs = np.concatenate([st.b[S], -st.delta * st.gamma_sign[F], [1.0]])
    rhs = rhs - M @ x0
    reg = 1e-11 * max(1.0, float(np.trace(M[:-1, :-1])) / max(1, s + f))
    M_reg = M + reg * np.diag(np.r_[np.ones(s + f), 0.0])
    step = np.linalg.solve(M_reg, rhs)
    for _ in range(3):
        step = step + np.linalg.solve(M_reg, rhs - M @ step)
    return x0 + step


def test_solve_eqp_matches_reference_on_random_working_sets():
    # With n = 10, the Gram block of a working set is singular when
    # s + f > 10.  At s + f = 11 its null space is one vector that the
    # simplex row does not annihilate, so the bordered matrix is still
    # nonsingular and the two solves agree to 1e-10.  Beyond that the
    # bordered matrix is singular too: the step is set by the proximal
    # term, its size is about 1/reg, and two LAPACK builds agree only to
    # about eps / 1e-11 relative.  Each state has a random iterate on its
    # working set, drawn from a stream of its own so that the working sets
    # do not depend on it.
    rng, rng_z = np.random.default_rng(11), np.random.default_rng(12)
    qp = generate_qp(10, 30, "full", 2)
    st = qp_das._init_state(qp.subproblem())
    sizes = []
    for _ in range(60):
        total = int(rng.integers(1, 15))
        f = int(rng.integers(0, min(total, 8)))
        s = total - f
        sizes.append(total)
        S = sorted(rng.choice(30, size=s, replace=False).tolist())
        F = np.sort(rng.choice(10, size=f, replace=False))
        st.gamma_sign[:] = 0
        st.gamma_sign[F] = rng.choice([-1, 1], size=f)
        st.z[:] = 0.0
        st.omega[S] = rng_z.dirichlet(np.ones(s))
        st.gamma[F] = st.gamma_sign[F] * rng_z.random(f)
        t_omega, t_gamma, mult = qp_das._solve_eqp(st, S, F, 1)
        got = np.concatenate([t_omega, t_gamma, [mult]])
        ref = _reference_eqp(st, S, F)
        tol = 1e-10 if total <= 11 else 1e-4
        assert np.linalg.norm(got - ref) <= tol * np.linalg.norm(ref)
    assert sizes.count(11) >= 3 and sum(t > 11 for t in sizes) >= 10


def test_singular_working_set_targets_the_minimizer_nearest_the_iterate():
    # Columns 0 and 1 are equal with equal b, so every split of the simplex
    # weight between them minimizes on S = {0, 1}.  The proximal term is
    # centred on the iterate, so the target is the iterate's own split; one
    # centred on the origin would give (0.5, 0.5).
    data = _data([[1.0, 1.0, -1.0], [0.5, 0.5, 2.0]], [0.3, 0.3, 0.0])
    st = qp_das._init_state(data)
    st.z[:] = 0.0
    st.z[:2] = 0.7, 0.3
    t_omega, _, _ = qp_das._solve_eqp(st, [0, 1], np.array([], int), 1)
    assert np.allclose(t_omega, [0.7, 0.3], rtol=0.0, atol=1e-9)


def test_nan_in_gtwg_raises_das_error(capfd):
    data = generate_qp(8, 12, "half", 0).subproblem()
    data.gtwg[3, 3] = np.nan  # the cached G'WG the solver reads
    with pytest.raises(qp_das.DasError, match="pivot 1: .* 1 omega and 0 gamma"):
        solve_das(data)
    assert capfd.readouterr().err == ""


def _count_zero_length_steps(monkeypatch) -> list[int]:
    """Count the zero-length blocking steps of ``solve_das`` from outside:
    a working-set solve that finds ``st.z`` unchanged while the working set
    has shrunk since the previous solve."""
    count, last = [0], []
    solve = qp_das._solve_eqp

    def watched(st, S, F, pivot):
        size = len(S) + F.size
        if last and size < last[0] and np.array_equal(st.z, last[1]):
            count[0] += 1
        last[:] = [size, st.z.copy()]
        return solve(st, S, F, pivot)

    monkeypatch.setattr(qp_das, "_solve_eqp", watched)
    return count


@pytest.mark.parametrize("dcase, pivots", [("half", 457), ("full", 631)])
def test_path_through_degenerate_steps(monkeypatch, dcase, pivots):
    # Seed 0 at n = 200, m = 400 meets working sets whose minimizer is not
    # unique.  The proximal term centred on the iterate keeps the path free
    # of zero-length blocking steps.
    zero_steps = _count_zero_length_steps(monkeypatch)
    sol = solve_das(generate_qp(200, 400, dcase, 0).subproblem())
    assert sol.iterations == pivots
    assert zero_steps[0] == 0
    assert sol.kkt_residual <= 1e-8


@pytest.mark.parametrize("seed, dcase", [
    (1, "full"), (2, "half"), (3, "full"), (4, "full"), (5, "half"),
    (5, "full"), (7, "full"), (8, "full"), (9, "full")])
def test_full_case_reaches_tolerance(seed, dcase):
    # Instances on which an optimality test that skipped any index would
    # stop above tol.
    sol = solve_das(generate_qp(200, 400, dcase, seed).subproblem())
    assert sol.kkt_residual <= 1e-8


def test_near_stationary_direction_under_an_ill_conditioned_metric():
    # W has eigenvalues 1e-6 to 1 along the columns of Q.  g1 = q1 lies on
    # the smallest, so |W g1| = 1e-6, and g2 = g1 + e q2 is a close
    # gradient whose b is 2e-9 higher.  At omega = e1, omega_2 violates its
    # optimality condition by 2e-9: less than half the tolerance 1e-8, and
    # yet the minimizer puts t = 2e-9 / e^2 on g2 and moves d by as much as
    # its length.  g3 stays out of the support.
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    lam = np.array([1e-6, 1.0, 1e-2, 1.0])
    qn = QuasiNewtonState(4)
    qn.W = (Q * lam) @ Q.T
    e = 2e-3
    G = Q @ np.array([[1.0, 0.0, 0.0, 0.0], [1.0, e, 0.0, 0.0],
                      [-1.0, 0.0, 1.0, 0.5]]).T
    b = np.array([0.0, 2e-9, -3.0])
    t = 2e-9 / e ** 2
    d_star = -Q @ (lam * np.array([1.0, t * e, 0.0, 0.0]))
    sol = solve_das(SubproblemData(G=G, b=b, delta=1e6, qn=qn), tol=1e-8)
    assert 1e-6 < np.linalg.norm(d_star) < 2e-6
    assert np.linalg.norm(sol.d - d_star) <= 1e-6 * np.linalg.norm(d_star)
    assert np.allclose(sol.omega, [1.0 - t, t, 0.0], rtol=0.0, atol=1e-10)


def test_degenerate_bundle_under_an_ill_conditioned_metric_does_not_cycle():
    # Gradients c + r_k and c - r_k with each r_k W-orthogonal to c: the
    # minimizer has G omega = c, and there every index meets its optimality
    # condition with equality.  W's eigenvalues run from 5e-9 to 1e8, so
    # G'(W (G omega)) carries rounding of about 1e-7, while G'WG omega has
    # only the rounding of G'WG.  Priced from the former, the solver added an
    # index whose working-set target was negative, dropped it at once and
    # cycled to its pivot cap.
    rng = np.random.default_rng(0)
    n = 12
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.r_[5e-9, np.ones(n - 2), 1e8]
    c = np.zeros(n)
    c[0], c[-1] = 60.0, 2e-3
    R = np.zeros((n, 4))
    R[1:-1] = rng.standard_normal((n - 2, 4))
    qn = QuasiNewtonState(n)
    qn.W = (Q * lam) @ Q.T
    G = Q @ np.column_stack([c[:, None] + R, c[:, None] - R])
    sol = solve_das(SubproblemData(G=G, b=np.full(8, 198.0), delta=1e6, qn=qn))
    d_star = -Q @ (lam * c)
    assert sol.iterations <= 10
    assert np.linalg.norm(sol.d - d_star) <= 1e-10 * np.linalg.norm(d_star)
