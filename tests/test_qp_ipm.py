import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nsopt import qp_ipm
from nsopt.qp_generator import generate_qp
from nsopt.qp_ipm import (CholeskySchurFactor, IpmDiagnostics, IpmError,
                          QpData, _box_free_qp, _factorize,
                          _fraction_to_boundary, _initial_sigma_rho,
                          _newton_step, _plugback_residual, merit,
                          residuals, solve_ipm, solve_ipm_core, step_sizes)
from nsopt.quasi_newton import QuasiNewtonState, damp
from nsopt.subproblem import SubproblemData


def _toy(ell=1):
    return QpData(Q=np.zeros((ell, ell)), c=np.zeros(ell), A=np.ones(ell))


# -- initial point and residuals -----------------------------------------


def test_initial_omega_uniform_duals():
    m = 4
    omega0 = np.full(m, 1.0 / m)
    v0 = np.full(m, 0.5 * m)
    assert np.allclose(omega0, 0.25)
    assert np.allclose(v0, 2.0)


def test_initial_sigma_rho_middle_case():
    sigma, rho = _initial_sigma_rho(np.zeros(3), 1.0)
    assert np.allclose(sigma, 0.1)
    assert np.allclose(rho, 0.1)
    # v = mu0 / sigma = 5 per the driver's construction
    assert np.allclose(0.5 / sigma, 5.0)


def test_initial_sigma_rho_one_sided():
    sigma, rho = _initial_sigma_rho(np.array([-3.0, 3.0]), 1.0)
    assert sigma[0] == pytest.approx(4.0)  # max(0.1, delta - w)
    assert rho[0] == pytest.approx(0.1)
    assert sigma[1] == pytest.approx(0.1)
    assert rho[1] == pytest.approx(0.1)  # max(0.1, -delta - w) floors at 0.1


def test_initial_point_strictly_interior():
    rng = np.random.default_rng(0)
    sigma, rho = _initial_sigma_rho(rng.standard_normal(50) * 10, 1.0)
    assert np.all(sigma > 0) and np.all(rho > 0)


def test_residuals_at_kkt_point_zero():
    qp = _toy()
    r_d, r_p, r_c = residuals(qp, np.ones(1), 0.0, np.zeros(1))
    assert np.allclose(r_d, 0.0) and r_p == 0.0 and np.allclose(r_c, 0.0)


def test_residuals_toy_values():
    qp = _toy()
    r_d, r_p, r_c = residuals(qp, np.ones(1), 0.0, np.ones(1))
    assert r_d[0] == pytest.approx(-1.0)
    assert r_p == pytest.approx(0.0)
    assert r_c[0] == pytest.approx(-1.0)


def test_merit_zero_exactly_at_kkt():
    qp = _toy()
    assert merit(qp, np.ones(1), 0.0, np.zeros(1)) == 0.0
    assert merit(qp, np.ones(1), 0.0, np.ones(1)) > 0.0


# -- linear algebra -------------------------------------------------------


def test_newton_step_zero_at_kkt_point():
    qp = _toy()
    theta, v = np.ones(1), np.full(1, 1e-8)
    diag = IpmDiagnostics()
    factor = _factorize(qp, theta, v, diag)
    dtheta, du, dv = _newton_step(factor, theta, v,
                                  np.zeros(1), 0.0, np.zeros(1))
    assert abs(du) <= 1e-12 and np.max(np.abs(dtheta)) <= 1e-12
    assert np.max(np.abs(dv)) <= 1e-12


def test_newton_step_plugback_random_instances():
    # In the last 20 instances Q has curvature -30 along a unit vector e,
    # and v/theta <= 20 leaves e'(Q + V/Theta)e <= -10: neither the Cholesky
    # factor nor its shifted retry exists, so the factorization raises.
    rng = np.random.default_rng(3)
    for indefinite in [False] * 20 + [True] * 20:
        ell = 5
        M = rng.standard_normal((ell, ell))
        Q = M @ M.T
        if indefinite:
            e = rng.standard_normal(ell)
            e /= np.linalg.norm(e)
            Q = Q - (float(e @ Q @ e) + 30.0) * np.outer(e, e)
        qp = QpData(Q=Q, c=rng.standard_normal(ell), A=np.ones(ell))
        theta = rng.uniform(0.1, 2.0, ell)
        v = rng.uniform(0.1, 2.0, ell)
        r_d, r_p, r_c = residuals(qp, theta, 0.3, v)
        diag = IpmDiagnostics()
        if indefinite:
            with pytest.raises(IpmError):
                _factorize(qp, theta, v, diag)
            assert diag.factorizations == 1
            continue
        factor = _factorize(qp, theta, v, diag)
        assert diag.factorizations == 1
        step = _newton_step(factor, theta, v, r_d, r_p, r_c)
        assert _plugback_residual(qp, theta, v, *step, r_d, r_p, r_c) <= 1e-10


def test_factorize_shifted_retry_on_singular_block():
    # The (sigma, rho) block of the full path is [[W, -W], [-W, W]], singular
    # by construction; with v/theta = 1e-17 the diagonal of Q + D rounds to
    # 1, so Cholesky fails and the retry with d + 1e-12 has to give the step.
    Q = np.array([[1.0, -1.0], [-1.0, 1.0]])
    qp = QpData(Q=Q, c=np.array([0.5, -0.5]), A=np.ones(2))
    theta, v = np.ones(2), np.full(2, 1e-17)
    assert np.all(np.diag(Q) + v / theta == 1.0)
    r_d, r_p, r_c = residuals(qp, theta, 0.0, v)
    diag = IpmDiagnostics()
    factor = _factorize(qp, theta, v, diag)
    assert isinstance(factor, CholeskySchurFactor)
    assert np.allclose(factor.d, 1e-17 + 1e-12, rtol=1e-12, atol=0.0)
    assert diag.factorizations == 1
    step = _newton_step(factor, theta, v, r_d, r_p, r_c)
    assert all(np.all(np.isfinite(part)) for part in step)


def _full_path_q(data):
    """The (omega, sigma, rho) matrix of the full path."""
    wg, wd, K = data.wg, data.qn.dense_W(), data.gtwg
    return np.block([[K, wg.T, -wg.T], [wg, wd, -wd], [-wg, -wd, wd]])


def _full_path_block(data):
    """The (omega, gamma) block of the full path's matrix, all that the
    split instance holds."""
    wg = data.wg
    return np.block([[data.gtwg, wg.T], [wg, data.qn.dense_W()]])


def _exact_solve(rows, rhs):
    """Gauss-Jordan elimination in exact rational arithmetic, rounded to
    floats at the end."""
    rows = [row + [Fraction(r)] for row, r in zip(rows, rhs)]
    size = len(rows)
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return np.array([float(rows[r][-1] / rows[r][r]) for r in range(size)])


def _exact_q_plus_d(Q, d):
    """Q + diag(d) formed exactly from the float entries."""
    return [[Fraction(Q[i, j]) + (Fraction(d[i]) if i == j else 0)
             for j in range(d.size)] for i in range(d.size)]


@pytest.mark.parametrize("sigma_at_bound, rho_at_bound", [
    (True, True), (True, False), (False, True), (False, False)])
def test_split_solve_matches_an_exact_solve(sigma_at_bound, rho_at_bound):
    # The split solve against an exact one of the whole (m + 2n) system.
    # d spans 1e-8 to 1e8 over (sigma, rho): a variable at its bound has
    # theta -> 0 and d = v / theta large.  d_omega stays within 1e-2 to
    # 1e2: omega is not eliminated, and a tiny d on G'WG's null space caps
    # the accuracy of any solve, split or not.  Q + D is formed exactly in
    # the reference, since rounding d_sigma + d_rho into Q's diagonal alone
    # moves the solution by 1e-9 when both are small.
    rng = np.random.default_rng(int(sigma_at_bound) + 2 * int(rho_at_bound))
    m, n = 5, 3
    for seed in range(4):
        data = generate_qp(n, m, "full", seed).subproblem()
        Q = _full_path_q(data)
        side = [10.0 ** rng.uniform(*((4, 8) if at else (-8, -4)), n)
                for at in (sigma_at_bound, rho_at_bound)]
        d = np.concatenate([10.0 ** rng.uniform(-2, 2, m), *side])
        A = np.r_[np.ones(m), np.zeros(2 * n)]
        factor = CholeskySchurFactor(QpData(Q=_full_path_block(data),
                                            c=np.zeros(m + 2 * n), A=A,
                                            split=n), d)
        P = _exact_q_plus_d(Q, d)
        rhs = rng.standard_normal(m + 2 * n + 1)
        kkt = [[-a for a in row] + [Fraction(A[i])] for i, row in enumerate(P)]
        kkt.append([Fraction(a) for a in A] + [Fraction(0)])
        # (Q + D)^-1 r and the bordered solve, each block on its own, so
        # that a small x_rho next to a large x_sigma counts
        for got, ref in ((factor._cho_solve(rhs[:-1]), _exact_solve(P, rhs[:-1])),
                         (factor.solve(rhs), _exact_solve(kkt, rhs))):
            for block in (slice(0, m), slice(m, m + n), slice(m + n, None)):
                err = np.linalg.norm(got[block] - ref[block])
                assert err <= 1e-12 * np.linalg.norm(ref[block])


@pytest.mark.parametrize("dcase", ["half", "full"])
def test_split_product_matches_the_whole_q(dcase):
    # With a split, Q x goes through the (omega, gamma) block: the same
    # product as the whole (m + 2n) Q to rounding, sigma and rho rows
    # exactly opposite.
    m, n = 40, 20
    rng = np.random.default_rng(3)
    for seed in range(3):
        data = generate_qp(n, m, dcase, seed).subproblem()
        Q = _full_path_q(data)
        A = np.r_[np.ones(m), np.zeros(2 * n)]
        qp = QpData(Q=_full_path_block(data), c=np.zeros(m + 2 * n), A=A,
                    split=n)
        for _ in range(3):
            x = rng.standard_normal(m + 2 * n)
            got = qp.times(x)
            assert np.linalg.norm(got - Q @ x) <= \
                1e-13 * np.linalg.norm(Q) * np.linalg.norm(x)
            assert np.array_equal(got[m + n:], -got[m:m + n])


def test_factorize_shifted_retry_on_the_reduced_matrix():
    # One omega and one (sigma, rho) pair with G'WG = W G^2: the reduced
    # matrix [[1 + d_omega, 1], [1, 1 + d_s d_r / (d_s + d_r)]] rounds to
    # the singular [[1, 1], [1, 1]] at d = 1e-17, so the factorization of
    # the reduced matrix fails and the retry with d + 1e-12 gives the step.
    qp = QpData(Q=np.ones((2, 2)), c=np.array([-1.0, 0.5, 0.5]),
                A=np.array([1.0, 0, 0]), split=1)
    theta, v = np.ones(3), np.full(3, 1e-17)
    with pytest.raises(np.linalg.LinAlgError):
        CholeskySchurFactor(qp, v / theta)
    diag = IpmDiagnostics()
    factor = _factorize(qp, theta, v, diag)
    assert factor.split == 1 and factor.chol.shape == (2, 2)
    assert np.allclose(factor.d, 1e-17 + 1e-12, rtol=1e-12, atol=0.0)
    assert diag.factorizations == 1
    r_d, r_p, r_c = residuals(qp, theta, 0.0, v)
    step = _newton_step(factor, theta, v, r_d, r_p, r_c)
    assert all(np.all(np.isfinite(part)) for part in step)


def test_newton_step_toy_hand_case():
    qp = _toy()
    theta, v = np.ones(1), np.ones(1)
    r_d, r_p, r_c = residuals(qp, theta, 0.0, v)  # (-1, 0, -1)
    diag = IpmDiagnostics()
    factor = _factorize(qp, theta, v, diag)
    dtheta, du, dv = _newton_step(factor, theta, v, r_d, r_p, r_c)
    assert np.all(np.isfinite([dtheta[0], du, dv[0]]))
    # reduced system: (-Q - V/Theta) dtheta + A du = r_d - r_c/theta = 0
    assert -dtheta[0] + du == pytest.approx(0.0, abs=1e-12)
    assert dtheta[0] == pytest.approx(0.0, abs=1e-12)  # A dtheta = r_p = 0


# -- centering and step sizes ---------------------------------------------


def test_zeta_cubing_rule():
    mu = 0.5
    post = 0.05
    zeta = (post / mu) ** 3
    assert zeta == pytest.approx(1e-3)
    assert zeta * mu == pytest.approx(5e-4)  # safeguard floor 1e-12 inactive
    assert max(0.0, min(1.0, 1e-12 / mu)) == pytest.approx(2e-12)  # floor
    assert max(0.0, min(1.0, 1e-12 / 1e-14)) == 1.0  # capped at mu


def test_fraction_to_boundary_blocking():
    alpha = _fraction_to_boundary(np.ones(2), np.array([-2.0, 1.0]))
    assert alpha == pytest.approx(0.995 / 2.0)


def test_fraction_to_boundary_nonblocking():
    assert _fraction_to_boundary(np.ones(3), np.ones(3)) == 1.0


def test_box_free_qp_interior_minimum():
    P = np.array([[2.0, 0.0], [0.0, 2.0]])
    q = np.array([-1.0, -4.0])
    x1, x2 = _box_free_qp(P, q, 0.0, 1.0)
    assert x1 == pytest.approx(0.5)
    assert x2 == pytest.approx(2.0)


def test_box_free_qp_respects_bounds():
    P = np.array([[2.0, 0.0], [0.0, 2.0]])
    q = np.array([-10.0, 0.0])
    x1, _ = _box_free_qp(P, q, 0.0, 1.0)
    assert x1 == pytest.approx(1.0)


def test_step_sizes_keep_interiority_and_merit():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ell = 6
        M = rng.standard_normal((ell, ell))
        qp = QpData(Q=M @ M.T, c=rng.standard_normal(ell), A=np.ones(ell))
        theta = rng.uniform(0.1, 1.0, ell)
        u = float(rng.standard_normal())
        v = rng.uniform(0.1, 1.0, ell)
        r_d, r_p, r_c = residuals(qp, theta, u, v)
        diag = IpmDiagnostics()
        factor = _factorize(qp, theta, v, diag)
        dtheta, du, dv = _newton_step(factor, theta, v, r_d, r_p, r_c)
        at, au, av = step_sizes(qp, theta, u, v, r_p, r_d, dtheta, du, dv)
        assert np.all(theta + at * dtheta > 0)
        assert np.all(v + av * dv > 0)
        after = merit(qp, theta + at * dtheta, u + au * du, v + av * dv)
        assert after <= merit(qp, theta, u, v) * (1 + 1e-12)


def test_step_sizes_zero_step_at_kkt():
    qp = _toy()
    theta, v = np.ones(1), np.full(1, 1e-10)
    r_d, r_p, _ = residuals(qp, theta, 0.0, v)
    at, au, av = step_sizes(qp, theta, 0.0, v, r_p, r_d,
                            np.zeros(1), 0.0, np.zeros(1))
    assert 0.0 <= at <= 1.0 and 0.0 <= av <= 1.0
    after = merit(qp, theta + at * np.zeros(1), au * 0.0, v)
    assert after == pytest.approx(merit(qp, theta, 0.0, v))


# -- core and driver -------------------------------------------------------


def test_core_rejects_non_interior_start():
    qp = _toy()
    with pytest.raises(ValueError):
        solve_ipm_core(qp, np.zeros(1), 0.0, np.ones(1))


@pytest.mark.parametrize("dcase", ["zero", "half", "full"])
@pytest.mark.parametrize("seed", range(4))
def test_core_converges_below_the_centring_floor(dcase, seed):
    # At qp_tolerance=1e-11 the core runs to 1e-12, the centring floor.  A
    # target held at the floor once mu fell below it raised theta'v at each
    # corrector, and the core raised IpmError at its cap on all 12 of these
    # instances; capped at mu it converges on each.
    data = generate_qp(40, 80, dcase, seed).subproblem()
    m = data.m
    qp = QpData(Q=data.gtwg, c=-data.b, A=np.ones(m))
    core = solve_ipm_core(qp, np.full(m, 1.0 / m), 0.0, np.full(m, 0.5 * m),
                          tol=1e-12)
    assert core.residual <= 1e-12


def test_driver_shortcut_on_symmetric_instance():
    data = SubproblemData(G=np.array([[1.0, -1.0]]), b=np.zeros(2),
                          delta=1.0, qn=QuasiNewtonState(1))
    sol = solve_ipm(data)
    assert sol.omega_only
    assert np.allclose(sol.omega, [0.5, 0.5], atol=1e-8)
    assert np.allclose(sol.sigma, 0.0) and np.allclose(sol.rho, 0.0)
    assert sol.kkt_residual <= 1e-8


def test_driver_single_column_forced_omega():
    data = SubproblemData(G=np.array([[2.0], [1.0]]), b=np.array([1.0]),
                          delta=10.0, qn=QuasiNewtonState(2))
    sol = solve_ipm(data)
    assert sol.omega[0] == pytest.approx(1.0, abs=1e-8)


def test_driver_full_path_recovers_certificate():
    qp = generate_qp(6, 9, "full", 0)
    sol = solve_ipm(qp.subproblem())
    assert not sol.omega_only
    d = -(qp.G @ sol.omega + sol.gamma)
    assert np.max(np.abs(d - qp.d_star)) <= 1e-5
    assert sol.kkt_residual <= 1e-8


def test_driver_zero_case_takes_shortcut():
    qp = generate_qp(6, 9, "zero", 1)
    sol = solve_ipm(qp.subproblem())
    assert sol.omega_only


def test_diagnostics_monotone_merit_and_interiority(ipm_probe):
    qp = generate_qp(10, 20, "half", 2)
    probe = ipm_probe()
    solve_ipm(qp.subproblem())
    assert len(probe.cores) == 2  # omega-only core, then the full path
    assert probe.problems() == []


def test_probe_rejects_a_perturbed_newton_step(monkeypatch, ipm_probe):
    newton = qp_ipm._newton_step

    def perturbed(*args):
        dtheta, du, dv = newton(*args)
        return dtheta + 1e-6, du, dv

    monkeypatch.setattr(qp_ipm, "_newton_step", perturbed)
    probe = ipm_probe()
    try:
        solve_ipm(generate_qp(10, 20, "half", 2).subproblem())
    except IpmError:
        pass
    assert probe.cores and any("plug-back" in p for p in probe.problems())


def test_probe_rejects_having_nothing_to_check(ipm_probe):
    probe = ipm_probe()
    assert "no core solve recorded" in probe.problems()
    # a start that already meets the tolerance takes no Newton step
    core = qp_ipm.solve_ipm_core(_toy(), np.ones(1), 0.0, np.full(1, 1e-10))
    assert core.iterations == 0 and len(probe.cores) == 1
    assert probe.problems() == ["no Newton step recorded"]


def _core_qps(monkeypatch, data) -> list[QpData]:
    """The QP of every core solve that ``solve_ipm`` makes on ``data``."""
    seen, core = [], qp_ipm.solve_ipm_core

    def watched(qp, *args, **kwargs):
        seen.append(qp)
        return core(qp, *args, **kwargs)

    monkeypatch.setattr(qp_ipm, "solve_ipm_core", watched)
    solve_ipm(data)
    return seen


def test_q_times_matches_matmul_on_both_paths(monkeypatch):
    # G'WG on the omega-only path and the (omega, gamma) block of the full
    # path.
    qp = generate_qp(30, 60, "full", 1)
    qps = _core_qps(monkeypatch, qp.subproblem())
    assert [(q.size, q.Q.shape[0]) for q in qps] == [(60, 60), (120, 90)]
    rng = np.random.default_rng(2)
    for q in qps:
        for _ in range(3):
            x = rng.standard_normal(q.Q.shape[0])
            err = np.linalg.norm(qp_ipm._q_times(q.Q, x) - q.Q @ x)
            assert err <= 1e-13 * np.linalg.norm(q.Q) * np.linalg.norm(x)


def test_q_times_copies_no_matrix(monkeypatch):
    # f2py would silently copy a C-ordered Q into Fortran order: 2.9 MB for
    # the full path's (omega, gamma) block here.
    qps = _core_qps(monkeypatch, generate_qp(200, 400, "full", 0).subproblem())
    Q = qps[-1].Q
    assert Q.shape == (600, 600)
    x = np.ones(600)
    qp_ipm._q_times(Q, x)  # load the wrapper before measuring
    tracemalloc.start()
    try:
        qp_ipm._q_times(Q, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < Q.nbytes / 4


@pytest.mark.parametrize("dcase", ["half", "full", "zero"])
def test_abandoned_omega_only_attempt_changes_no_result(monkeypatch, dcase):
    # The full path does not depend on the omega-only attempt, so when the
    # attempt is abandoned at its look at the box, the solution is the one
    # of running it to the end and failing its test: bit for bit.  On the
    # zero case the box never binds and nothing is abandoned.
    cores = []
    core = qp_ipm.solve_ipm_core

    def watched(qp, *args, **kwargs):
        out = core(qp, *args, **kwargs)
        cores.append(out)
        return out

    monkeypatch.setattr(qp_ipm, "solve_ipm_core", watched)
    for seed in range(3):
        qp = generate_qp(30, 60, dcase, seed)
        cores.clear()
        peeked = solve_ipm(qp.subproblem())
        abandoned = cores[0] is None
        assert abandoned == (dcase != "zero")
        with monkeypatch.context() as mp:
            mp.setattr(qp_ipm, "_PEEK_RESIDUAL", -1.0)  # never looks
            cores.clear()
            plain = solve_ipm(qp.subproblem())
            assert cores[0] is not None
        for name in ("omega", "gamma", "sigma", "rho", "d"):
            assert np.array_equal(getattr(peeked, name), getattr(plain, name))
        assert (peeked.u, peeked.iterations, peeked.omega_only) == \
            (plain.u, plain.iterations, plain.omega_only)
        assert peeked.diagnostics.factorizations == \
            plain.diagnostics.factorizations


def _updated_subproblem(qp, storage, delta):
    """``qp`` under a metric of three damped updates instead of W = I."""
    rng = np.random.default_rng(3)
    qn = QuasiNewtonState(qp.n, storage=storage, history_limit=4)
    for _ in range(3):
        s = rng.standard_normal(qp.n)
        qn.update(s, damp(s, rng.standard_normal(qp.n), 0.5, 2.0)[1])
    return SubproblemData(G=qp.G, b=qp.b, delta=delta, qn=qn)


def test_omega_only_look_forms_no_w_g_under_full_storage():
    # The omega-only attempt looks at the box through one W-vector product,
    # so a solve that ends on the omega-only path leaves W G unformed.
    data = _updated_subproblem(generate_qp(30, 60, "zero", 0), "full", 1e6)
    sol = solve_ipm(data)
    assert sol.omega_only and not data.has_wg
    assert sol.kkt_residual <= 1e-8
    assert np.allclose(sol.d, -data.qn.apply_W(data.G @ sol.omega),
                       rtol=1e-12, atol=1e-14)


def test_limited_storage_abandons_the_omega_only_attempt_at_its_look(
        monkeypatch):
    # Under limited storage too the omega-only attempt looks at the box, and
    # with the box binding it is abandoned there; the full path solves.
    cores, core = [], qp_ipm.solve_ipm_core

    def watched(qp, *args, **kwargs):
        cores.append(core(qp, *args, **kwargs))
        return cores[-1]

    monkeypatch.setattr(qp_ipm, "solve_ipm_core", watched)
    qp = generate_qp(30, 60, "half", 0)
    data = _updated_subproblem(qp, "limited", qp.delta)
    sol = solve_ipm(data)
    assert len(cores) == 2 and cores[0] is None
    assert not sol.omega_only and np.any(sol.gamma)
    assert sol.kkt_residual <= 1e-8
