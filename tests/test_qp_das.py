import warnings
from pathlib import Path

import numpy as np
import pytest

from nsopt import qp_das
from nsopt.qp_das import solve_das
from nsopt.qp_generator import generate_qp
from nsopt.qp_ipm import solve_ipm
from nsopt.quasi_newton import QuasiNewtonState, damp
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
    pivot, in order.  Each working-set solve (one per pivot) records the
    iterate that the previous pivot left, and the solver's iterate after it
    returns gives the last."""
    values, seen = [], []
    solve = qp_das._solve_eqp

    def watched(st):
        if seen:
            values.append(-dual_objective(data, st.omega, st.gamma))
        seen[:] = [st]
        return solve(st)

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


def test_no_pivot_factors_more_than_its_trailing_block(monkeypatch):
    # Between two working-set solves the working set gains or loses one
    # index.  An add factors nothing.  A drop at position p of k indices
    # refactors only the t = k - 1 - p rows behind it: one factorization of
    # size t, none when it drops the last index.  Full refactorizations
    # happen only on a breakdown, and these instances have none.
    sizes, orders, seen, drops = [], [], [], []
    potrf, solve = qp_das._potrf, qp_das._solve_eqp

    def counted_potrf(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return potrf(a, *args, **kwargs)

    def watched(st):
        order = st.order[:st.k].copy()
        if orders:
            before = orders[-1]
            assert abs(order.size - before.size) == 1
            if order.size > before.size:
                assert sizes == []
            else:
                p = int(np.flatnonzero(~np.isin(before, order))[0])
                t = before.size - 1 - p
                assert sizes == ([t] if t else [])
                drops.append(t)
        sizes.clear()
        orders.append(order)
        seen[:] = [st]
        return solve(st)

    monkeypatch.setattr(qp_das, "_potrf", counted_potrf)
    monkeypatch.setattr(qp_das, "_solve_eqp", watched)
    for seed in range(3):
        orders.clear()
        sol = solve_das(generate_qp(40, 80, "full", seed).subproblem())
        assert len(orders) == sol.iterations
        assert seen[0].full_factorizations == 0
        assert sol.kkt_residual <= 1e-8
    assert drops and max(drops) > 0


def _gathered_block(st):
    """The Hessian block over the working set, in entry order, gathered
    from G'WG, W G and W."""
    data, order = st.data, st.order[:st.k]
    top = np.concatenate([data.gtwg, data.wg.T], axis=1)
    bottom = np.concatenate([data.wg, data.dense_w], axis=1)
    return np.concatenate([top, bottom])[np.ix_(order, order)]


def _reference_eqp(st):
    """The bordered solve for the step from the iterate, with
    ``np.linalg.solve`` and three refinements, in entry order."""
    m, k = st.data.m, st.k
    order = st.order[:k]
    omega = order < m
    M = np.zeros((k + 1, k + 1))
    M[:k, :k] = _gathered_block(st)
    M[:k, -1] = M[-1, :k] = omega
    x0 = np.concatenate([st.z[order], [0.0]])
    rhs = np.concatenate([np.where(omega, st.data.b[np.minimum(order, m - 1)],
                                   -st.data.delta * st.sign[order]), [1.0]])
    rhs = rhs - M @ x0
    M_reg = M + st.reg * np.diag(np.r_[np.ones(k), 0.0])
    step = np.linalg.solve(M_reg, rhs)
    for _ in range(3):
        step = step + np.linalg.solve(M_reg, rhs - M @ step)
    return x0 + step


def _metric(n, seed, spread):
    """A full-storage metric with eigenvalues from 1/spread to spread."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    qn = QuasiNewtonState(n)
    qn.W = (Q * np.geomspace(1.0 / spread, spread, n)) @ Q.T
    return qn


def test_solve_eqp_matches_reference_on_random_working_sets():
    # With n = 10, the Gram block of a working set is singular when
    # k > 10.  At k = 11 its null space is one vector that the simplex row
    # does not annihilate, so the bordered matrix is still nonsingular and
    # the two solves agree to 1e-10.  Beyond that the bordered matrix is
    # singular too: the step is set by the proximal term, its size is about
    # 1/reg, and two LAPACK builds agree only to about eps / 1e-11 relative.
    # Each working set is entered in a random order, omega and gamma
    # indices mixed, and gets a random iterate from a stream of its own so
    # that the working sets do not depend on it.
    rng, rng_z = np.random.default_rng(11), np.random.default_rng(12)
    qp = generate_qp(10, 30, "full", 2)
    data = SubproblemData(G=qp.G, b=qp.b, delta=qp.delta,
                          qn=_metric(10, 3, 2.0))
    sizes = []
    for _ in range(60):
        st = qp_das._init_state(data)
        total = int(rng.integers(1, 15))
        f = int(rng.integers(0, min(total, 8)))
        others = np.setdiff1d(np.arange(30), st.order[:1])
        entering = np.concatenate([
            rng.choice(others, size=total - f - 1, replace=False),
            30 + rng.choice(10, size=f, replace=False)])
        for idx in rng.permutation(entering):
            st.sign[idx] = 1 if idx < 30 else rng.choice([-1, 1])
            st.add(int(idx))
        sizes.append(st.k)
        order = st.order[:st.k]
        st.z[:] = 0.0
        st.z[order[order < 30]] = rng_z.dirichlet(np.ones(total - f))
        st.z[order[order >= 30]] = st.sign[order[order >= 30]] * rng_z.random(f)
        target, mult = qp_das._solve_eqp(st)
        got = np.concatenate([target, [mult]])
        ref = _reference_eqp(st)
        tol = 1e-10 if total <= 11 else 1e-4
        assert np.linalg.norm(got - ref) <= tol * np.linalg.norm(ref)
    assert sizes.count(11) >= 3 and sum(t > 11 for t in sizes) >= 10


def _eqp_with_every_refinement(st):
    """``_solve_eqp``'s arithmetic on the factor it left in ``st``, with all
    three unregularized refinements, and whether one left every bit of the
    step unchanged."""
    k, data = st.k, st.data
    order = st.order[:k]
    is_omega = order < data.m
    rhs = np.empty(k + 1)
    rhs[:k] = np.where(is_omega, data.b[np.minimum(order, data.m - 1)],
                       -data.delta * st.sign[order])
    rhs[k] = 1.0
    L, M = st.L[:, :k + 1], st.H[:k + 1, :k + 1]
    c = np.ascontiguousarray(L[k, :k])
    schur = float(c @ c)
    x0 = np.zeros(k + 1)
    x0[:k] = st.z[order]
    rhs -= M @ x0

    def solve(r):
        y = qp_das._trtrs(L, r, lower=1)[0]
        y[k] /= -schur
        return qp_das._trtrs(L, y, lower=1, trans=1)[0]

    step = solve(rhs)
    residual = rhs - M @ step
    residual[:k] -= st.reg * step[:k]
    step += solve(residual)
    fixed = False
    for _ in range(3):
        refined = step + solve(rhs - M @ step)
        fixed |= refined.tobytes() == step.tobytes()
        step = refined
    sol = x0 + step
    return sol[:k], float(sol[k]), fixed


def test_refinement_stops_only_at_a_fixed_point(monkeypatch):
    # Every pivot's solve is bitwise the one with all three refinements, and
    # on these instances some pivots reach a fixed point before the third.
    solve_eqp, fixed = qp_das._solve_eqp, []

    def checked(st):
        target, u = solve_eqp(st)
        want, want_u, at_fixed_point = _eqp_with_every_refinement(st)
        assert target.tobytes() == want.tobytes() and u == want_u
        fixed.append(at_fixed_point)
        return target, u

    monkeypatch.setattr(qp_das, "_solve_eqp", checked)
    for seed, dcase in [(0, "zero"), (0, "half"), (0, "full"), (2, "full")]:
        qp = generate_qp(10, 30, dcase, seed)
        assert solve_das(qp.subproblem(), tol=1e-8).kkt_residual <= 1e-8
    assert len(fixed) > 20 and 0 < sum(fixed) < len(fixed)


def test_singular_working_set_targets_the_minimizer_nearest_the_iterate():
    # Columns 0 and 1 are equal with equal b, so every split of the simplex
    # weight between them minimizes on S = {0, 1}.  The proximal term is
    # centred on the iterate, so the target is the iterate's own split; one
    # centred on the origin would give (0.5, 0.5).
    data = _data([[1.0, 1.0, -1.0], [0.5, 0.5, 2.0]], [0.3, 0.3, 0.0])
    st = qp_das._init_state(data)
    st.sign[1] = 1
    st.add(1)
    assert list(st.order[:st.k]) == [0, 1]
    st.z[:] = 0.0
    st.z[:2] = 0.7, 0.3
    target, _ = qp_das._solve_eqp(st)
    assert np.allclose(target, [0.7, 0.3], rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_held_factor_follows_random_add_drop_walks(seed):
    # Adds and drops in random order, omega and gamma indices mixed, up to
    # 36 of the 40 indices, so that the buffers grow and the Gram block is
    # singular for most of the walk.  After every step the held block is
    # the gathered one bit for bit and L L' is H + reg I to 1e-12.
    rng = np.random.default_rng(seed)
    qp = generate_qp(10, 30, "full", seed)
    data = SubproblemData(G=qp.G, b=qp.b, delta=qp.delta,
                          qn=_metric(10, seed, 100.0))
    st = qp_das._init_state(data)
    drops = 0
    for _ in range(150):
        inside = st.order[:st.k]
        if st.k > 1 and (st.k >= 36 or rng.random() < 0.3):
            st.drop(int(rng.choice(inside)))
            drops += 1
        else:
            idx = int(rng.choice(np.setdiff1d(np.arange(40), inside)))
            st.sign[idx] = 1 if idx < 30 else rng.choice([-1, 1])
            st.add(idx)
        k, order = st.k, st.order[:st.k]
        assert np.array_equal(st.pos[order], np.arange(k))
        assert np.count_nonzero(st.pos >= 0) == k
        assert st.free == np.count_nonzero(order >= 30)
        H = st.H[:k, :k]
        assert np.array_equal(H, _gathered_block(st))
        L = np.tril(st.L[:k, :k])
        target = H + st.reg * np.eye(k)
        assert np.linalg.norm(L @ L.T - target) <= 1e-12 * np.linalg.norm(target)
    assert drops > 30 and st.order.size > 32


def test_breakdown_refactors_the_whole_block_with_a_larger_reg():
    # G'WG made indefinite by 1e-8 of its scale, far beyond reg: the
    # appends break down, and the whole block is refactored with reg from
    # the working set, grown by 100 until the factor exists.
    qp = generate_qp(6, 12, "full", 0)
    data = qp.subproblem()
    K = data.gtwg
    scale = float(np.trace(K)) / 12
    u = np.random.default_rng(0).standard_normal(12)
    data._gtwg = K - 1e-8 * scale * np.outer(u, u) / (u @ u)
    st = qp_das._init_state(data)
    for idx in range(12):
        if st.pos[idx] < 0:
            st.sign[idx] = 1
            st.add(idx)
    assert st.full_factorizations >= 1
    L = np.tril(st.L[:12, :12])
    target = st.H[:12, :12] + st.reg * np.eye(12)
    assert np.linalg.norm(L @ L.T - target) <= 1e-12 * np.linalg.norm(target)
    # refactored again here: reg is the working set's, times the least power
    # of 100 that makes the factor exist
    st._factor_all()
    base = 1e-11 * max(1.0, float(np.trace(st.H[:12, :12])) / 12)
    power = np.log(st.reg / base) / np.log(100.0)
    assert 1 <= round(power) <= 4 and abs(power - round(power)) < 1e-9
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(st.H[:12, :12] + st.reg / 100.0 * np.eye(12))


def test_breakdown_beyond_the_largest_reg_raises_das_error():
    # G'WG with an eigenvalue of -0.2 at a unit diagonal: the largest reg,
    # 1e-11 x 100^4 = 1e-3 of the mean diagonal, does not make it definite
    # when column 1 enters
    data = _data([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.5], delta=1e6)
    data._gtwg = np.array([[1.0, 1.2], [1.2, 1.0]])
    with pytest.raises(qp_das.DasError, match="pivot 1: .* not positive "
                       "definite"):
        solve_das(data)


def test_working_set_without_omega_raises_linalg_error():
    # A working set of one gamma index and no omega index: the simplex row
    # e'(H + reg I)^-1 e has e = 0, so its Schur complement is 0.  The solve
    # raises LinAlgError, which the solver turns into DasError, instead of
    # dividing by zero.
    data = generate_qp(20, 40, "half", 0).subproblem()
    m = data.m
    st = qp_das.DasState(data, 0)
    st.sign[m] = 1
    st.add(m)
    st.z[0], st.sign[0] = 0.0, 0
    st.drop(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError,
                           match="0 omega and 1 gamma .* no omega index"):
            qp_das._solve_eqp(st)


def test_captured_breakdown_subproblem_ends_at_its_attainable_residual(
        monkeypatch):
    # A cutting-plane subproblem of ChainedCB3_2 at n = 10 under full
    # storage, captured where an append broke down.  Its W is itself
    # indefinite (eigenvalues from -5e-8 to 4e9); the W setter projects it
    # onto the positive semidefinite matrices, and G'WG = K'K, K = J'G, is
    # then a Gram matrix whose smallest eigenvalue is rounding, about -2e-16
    # of the largest.  The solver ends within tolerance with no full
    # refactorization; with the metric held as W, G'WG had an eigenvalue of
    # -3.9e-7 at a diagonal of 1.2e4 and the solve ended at 5.9e-7.
    case = np.load(Path(__file__).parent / "data" /
                   "das_breakdown_chained_cb3_2_n10.npz")
    qn = QuasiNewtonState(case["G"].shape[0])
    qn.W = case["W"]
    data = SubproblemData(G=case["G"], b=case["b"], delta=float(case["delta"]),
                          qn=qn)
    seen, solve = [], qp_das._solve_eqp

    def watched(st):
        seen[:] = [st]
        return solve(st)

    monkeypatch.setattr(qp_das, "_solve_eqp", watched)
    sol = solve_das(data, tol=1e-8)
    assert seen[0].full_factorizations == 0
    assert sol.kkt_residual <= 1e-8
    eigenvalues = np.linalg.eigvalsh(data.gtwg)
    assert eigenvalues[0] >= -1e-14 * eigenvalues[-1]


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

    def watched(st):
        if last and st.k < last[0] and np.array_equal(st.z, last[1]):
            count[0] += 1
        last[:] = [st.k, st.z.copy()]
        return solve(st)

    monkeypatch.setattr(qp_das, "_solve_eqp", watched)
    return count


@pytest.mark.parametrize("dcase, pivots", [("half", 461), ("full", None)])
def test_path_through_degenerate_steps(monkeypatch, dcase, pivots):
    # Seed 0 at n = 200, m = 400 meets working sets whose minimizer is not
    # unique.  The proximal term centred on the iterate keeps the path free
    # of zero-length blocking steps.  The full case's pivot count can depend
    # on the BLAS thread count: its drops refactor trailing blocks large
    # enough for OpenBLAS to thread.
    zero_steps = _count_zero_length_steps(monkeypatch)
    sol = solve_das(generate_qp(200, 400, dcase, 0).subproblem())
    if pivots is not None:
        assert sol.iterations == pivots
    assert zero_steps[0] == 0
    assert sol.kkt_residual <= 1e-8


@pytest.mark.parametrize("storage", ["full", "limited"])
@pytest.mark.parametrize("mode", ["BFGS", "DFP"])
@pytest.mark.parametrize("seed", range(10))
def test_agrees_with_the_ipm_under_a_metric(storage, mode, seed):
    # W != I after 8 damped updates, with the box binding at the two small
    # deltas and not at the large one.  The two solvers reach the minimizer
    # by different paths, so their d agreeing checks each one's gamma path.
    rng = np.random.default_rng(seed)
    n, m = 30, 45
    qn = QuasiNewtonState(n, mode=mode, storage=storage, history_limit=5)
    for _ in range(8):
        s = rng.standard_normal(n)
        qn.update(s, damp(s, rng.standard_normal(n), 0.5, 2.0)[1])
    G = 2.0 + rng.standard_normal((n, m))
    b = rng.standard_normal(m)
    for delta in (1e6, 0.5, 0.05):
        das = solve_das(SubproblemData(G=G, b=b, delta=delta, qn=qn))
        ipm = solve_ipm(SubproblemData(G=G, b=b, delta=delta, qn=qn))
        assert np.any(das.gamma != 0.0) == (delta < 1.0)
        assert das.kkt_residual <= 1e-8 and ipm.kkt_residual <= 1e-8
        assert (np.max(np.abs(das.d - ipm.d))
                <= 1e-5 * np.max(np.abs(ipm.d)))


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


def _degenerate_bundle(seed):
    """Gradients c + r_k and c - r_k with each r_k W-orthogonal to c, under
    a metric with eigenvalues from 5e-9 to 1e8: the subproblem, and d* =
    -W c at its minimizer G omega = c."""
    rng = np.random.default_rng(seed)
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
    return (SubproblemData(G=G, b=np.full(8, 198.0), delta=1e6, qn=qn),
            -Q @ (lam * c))


def test_degenerate_bundle_under_an_ill_conditioned_metric_does_not_cycle():
    # At the minimizer G omega = c every index meets its optimality
    # condition with equality.  W's eigenvalues run from 5e-9 to 1e8, so
    # G'(W (G omega)) carries rounding of about 1e-7, while G'WG omega has
    # only the rounding of G'WG.  Priced from the former, the solver added an
    # index whose working-set target was negative, dropped it at once and
    # cycled to its pivot cap.
    data, d_star = _degenerate_bundle(0)
    sol = solve_das(data)
    assert sol.iterations <= 10
    assert np.linalg.norm(sol.d - d_star) <= 1e-10 * np.linalg.norm(d_star)


def test_kkt_residual_of_a_degenerate_bundle_reads_what_pricing_leaves():
    # The residual takes omega's conditions from G'WG, as pricing does, so
    # for a d within 1e-10 of the minimizer it reads no more than the
    # violation that pricing lets an index keep, 0.05 tol.  Taken as
    # G'(W (G omega)) it read 5.8e-8 to 1.7e-6 on these bundles.
    for seed in range(20):
        data, d_star = _degenerate_bundle(seed)
        sol = solve_das(data, tol=1e-8)
        assert np.linalg.norm(sol.d - d_star) <= 1e-10 * np.linalg.norm(d_star)
        assert sol.kkt_residual <= qp_das._PRICING * 1e-8
