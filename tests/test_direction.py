import tracemalloc

import numpy as np
import pytest

from nsopt import direction
from nsopt.direction import (QpSolution, SubproblemData, SubproblemFailure,
                             build_subproblem, compute_direction)
from nsopt.options import SolverOptions
from nsopt.point_set import BundleElement, PointSet
from nsopt.qp_das import DasError, solve_das
from nsopt.qp_ipm import solve_ipm
from nsopt.quasi_newton import QuasiNewtonState, damp
from nsopt.subproblem import compute_kkt_residual


def _bundle(entries):
    elems = [BundleElement(x=np.asarray(x, dtype=float), f=float(f),
                           g=np.asarray(g, dtype=float), birth=i)
             for i, (x, f, g) in enumerate(entries)]
    ps = PointSet(elems[0])
    for e in elems[1:]:
        ps.add(e)
    return ps


def test_build_cutting_plane_zero_displacement():
    ps = _bundle([([0.0], 2.0, [1.0])])
    data = build_subproblem(ps, QuasiNewtonState(1), 1.0, "cutting_plane")
    assert data.b[0] == pytest.approx(2.0)  # raw b_j = f_j at x_j = x_k


def test_build_cutting_plane_downshift():
    # |x|: current (0, 0), element (1, 1, 1): raw b = 0, downshifted to -1e-8
    ps = _bundle([([0.0], 0.0, [-1.0]), ([1.0], 1.0, [1.0])])
    data = build_subproblem(ps, QuasiNewtonState(1), 1.0, "cutting_plane")
    assert data.b[1] == pytest.approx(-1e-8)


def test_build_gradient_strategy_single_element():
    ps = _bundle([([1.0, 2.0], 3.0, [0.5, -0.5]), ([0.0, 0.0], 9.0, [1.0, 1.0])])
    data = build_subproblem(ps, QuasiNewtonState(2), 1.0, "gradient")
    assert data.m == 1
    assert np.allclose(data.G[:, 0], [0.5, -0.5])
    assert data.b[0] == pytest.approx(3.0)


def test_build_gradient_combination_common_intercept():
    ps = _bundle([([0.0], 4.0, [1.0]), ([1.0], 7.0, [2.0])])
    data = build_subproblem(ps, QuasiNewtonState(1), 1.0, "gradient_combination")
    assert np.allclose(data.b, [4.0, 4.0])


def test_direction_single_gradient_steepest_descent():
    g = np.array([0.3, -0.4])
    ps = _bundle([([0.0, 0.0], 1.0, g)])
    opts = SolverOptions(strategy="gradient")
    res = compute_direction(ps, QuasiNewtonState(2), 1e6, opts)
    assert res.solver == "gradient"
    assert np.allclose(res.d, -g)
    assert res.kkt_residual == 0.0


def test_direction_two_opposed_gradients_cancel():
    # G = [1, -1], b = 0: symmetric optimum omega = (1/2, 1/2), d = 0
    ps = _bundle([([0.0], 0.0, [1.0]), ([0.0], 0.0, [-1.0])])
    opts = SolverOptions(strategy="gradient_combination", p=0)
    res = compute_direction(ps, QuasiNewtonState(1), 1.0, opts)
    assert np.allclose(res.omega, [0.5, 0.5], atol=1e-8)
    assert np.max(np.abs(res.d)) <= 1e-8
    assert np.max(np.abs(res.gamma)) <= 1e-8


def test_direction_routing_by_bundle_size():
    # every subproblem goes to the DAS, whatever its bundle size
    rng = np.random.default_rng(0)
    n = 4
    opts = SolverOptions(strategy="gradient_combination")
    for m in (256, 257, 400):
        entries = [([0.0] * n, 1.0, rng.standard_normal(n)) for _ in range(m)]
        ps = _bundle(entries)
        res = compute_direction(ps, QuasiNewtonState(n), 1e6, opts)
        assert res.solver == "das" and not res.fallback


def _failing_solve(error):
    def solve(data, tol):
        raise error(f"{error.__name__} injected")
    return solve


@pytest.mark.parametrize("m", [10, 30], ids=lambda m: f"{m}-das-ipm")
def test_failed_solver_hands_the_subproblem_to_the_other(monkeypatch, m):
    rng = np.random.default_rng(3)
    n = 5
    ps = _bundle([(rng.standard_normal(n), 1.0, 2.0 + rng.standard_normal(n))
                  for _ in range(m)])
    opts = SolverOptions(strategy="cutting_plane")
    clean = compute_direction(ps, QuasiNewtonState(n), 1e6, opts)
    assert clean.solver == "das" and not clean.fallback
    monkeypatch.setattr(direction, "solve_das", _failing_solve(DasError))
    res = compute_direction(ps, QuasiNewtonState(n), 1e6, opts)
    assert res.solver == "ipm" and res.fallback
    assert np.allclose(res.d, clean.d, atol=1e-6)
    monkeypatch.setattr(direction, "solve_ipm",
                        _failing_solve(np.linalg.LinAlgError))
    with pytest.raises(SubproblemFailure, match="das: .*injected; ipm: "
                       "LinAlgError: LinAlgError injected"):
        compute_direction(ps, QuasiNewtonState(n), 1e6, opts)


def test_finalize_metric_application():
    # d = -W(G omega + gamma) through a non-identity metric, from the
    # gradient shortcut and from a DAS solve of the same subproblem
    qn = QuasiNewtonState(2)
    qn.W = np.array([[2.0, -1.0], [-1.0, 1.0]])
    ps = _bundle([([0.0, 0.0], 0.5, [1.0, 0.0])])
    opts = SolverOptions(strategy="gradient")
    res = compute_direction(ps, qn, 1e6, opts)
    assert res.solver == "gradient" and isinstance(res, QpSolution)
    sol = solve_das(build_subproblem(ps, qn, 1e6, "gradient"))
    for got in (res, sol):
        assert np.allclose(got.d, [-2.0, 1.0], atol=1e-7)
        assert got.model_norm_sq == pytest.approx(2.0, rel=1e-6)


def test_direction_inf_norms_consistent():
    rng = np.random.default_rng(1)
    entries = [([0.0] * 3, 1.0, rng.standard_normal(3)) for _ in range(5)]
    ps = _bundle(entries)
    opts = SolverOptions(strategy="cutting_plane")
    res = compute_direction(ps, QuasiNewtonState(3), 1e6, opts)
    g_omega = ps.gradients() @ res.omega
    assert res.inf_norms[0] == pytest.approx(np.max(np.abs(res.d)))
    assert res.inf_norms[1] == pytest.approx(np.max(np.abs(g_omega)))
    assert res.inf_norms[2] == pytest.approx(np.max(np.abs(g_omega + res.gamma)))


@pytest.mark.parametrize("mode", ["BFGS", "DFP"])
def test_subproblem_gtwg_matches_columnwise_metric_limited(mode, full_from_base):
    # G'WG under limited storage comes from the compact form and the bundle's
    # cached G'G and Psi'G; the references apply W one column at a time,
    # through the limited state and through a full-storage state started
    # from the limited state's base and fed the pairs it holds.
    # A second limited state on the same bundle must not reuse the first
    # state's cached products.
    rng = np.random.default_rng(6)
    n = 12

    def update(qn, count):
        for _ in range(count):
            s = rng.standard_normal(n)
            _, v = damp(s, rng.standard_normal(n), 0.5, 2.0)
            qn.update(s, v)

    lim = QuasiNewtonState(n, mode=mode, storage="limited", history_limit=8)
    update(lim, 8)
    ps = _bundle([(rng.standard_normal(n), 1.0, rng.standard_normal(n))
                  for _ in range(5)])
    build_subproblem(ps, lim, 1.0, "cutting_plane").gtwg  # fills the caches
    update(lim, 1)  # evicts the oldest limited-memory pair
    full = full_from_base(n, mode, list(lim.pairs))
    other = QuasiNewtonState(n, mode=mode, storage="limited", history_limit=8)
    update(other, 9)
    for _ in range(4):
        ps.add(BundleElement(x=rng.standard_normal(n), f=1.0,
                             g=rng.standard_normal(n), birth=9))
    for state, refs in ((lim, (lim, full)), (other, (other,))):
        data = build_subproblem(ps, state, 1.0, "cutting_plane")
        G = data.G
        for qn in refs:
            ref = G.T @ np.column_stack([qn.apply_W(G[:, j])
                                         for j in range(data.m)])
            assert np.max(np.abs(data.gtwg - ref)) <= 1e-9 * np.max(np.abs(ref))


@pytest.mark.parametrize("mode", ["BFGS", "DFP"])
def test_limited_wg_reads_the_bundle_psi_g(mode):
    # Under limited storage W G = tau G + Psi M P takes P = Psi'G from the
    # bundle.  A copy of the subproblem whose P is zeroed gets only the base
    # term, so W G reads the held product instead of forming it again.
    rng = np.random.default_rng(12)
    n = 12
    qn = QuasiNewtonState(n, mode=mode, storage="limited", history_limit=4)
    for _ in range(6):
        s = rng.standard_normal(n)
        qn.update(s, damp(s, rng.standard_normal(n), 0.5, 2.0)[1])
    ps = _bundle([(rng.standard_normal(n), 1.0, rng.standard_normal(n))
                  for _ in range(7)])
    data = build_subproblem(ps, qn, 1.0, "cutting_plane")
    ref = qn.apply_W_matrix(data.G)
    assert np.max(np.abs(data.wg - ref)) <= 1e-12 * np.max(np.abs(ref))
    s, v = qn.pairs[-1]
    tau = float(s @ v) / float(v @ v) if mode == "BFGS" else \
        float(s @ s) / float(s @ v)
    blind = SubproblemData(G=data.G, b=data.b, delta=1.0, qn=qn, gtg=data.gtg,
                           bt_g=np.zeros_like(data.bt_g))
    assert np.allclose(blind.wg, tau * data.G, rtol=1e-13, atol=0.0)


def test_limited_build_subproblem_copies_no_gradient_block():
    # One iteration's subproblem under limited storage: a column and a pair
    # are new since the previous build.  The bundle's gradient block is read
    # in place, so the peak stays below half of one n x m copy.
    rng = np.random.default_rng(8)
    n, m = 4096, 50
    qn = QuasiNewtonState(n, storage="limited", history_limit=4)

    def update():
        s = rng.standard_normal(n)
        qn.update(s, damp(s, rng.standard_normal(n), 0.5, 2.0)[1])

    for _ in range(4):
        update()
    ps = _bundle([(rng.standard_normal(n), 1.0, rng.standard_normal(n))
                  for _ in range(m - 1)])
    build_subproblem(ps, qn, 1.0, "cutting_plane")
    ps.add(BundleElement(x=rng.standard_normal(n), f=1.0,
                         g=rng.standard_normal(n), birth=m))
    update()
    tracemalloc.start()
    try:
        data = build_subproblem(ps, qn, 1.0, "cutting_plane")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.m == m
    assert peak < n * m * 8 / 2


def _count_w_products(monkeypatch):
    """Counts W applied to a vector: in either storage every such product,
    a step W m or ``apply_W``, is one call of ``QuasiNewtonState.model``."""
    calls = []
    model = QuasiNewtonState.model

    def counted(self, r, bt_r=None):
        calls.append(1)
        return model(self, r, bt_r)

    monkeypatch.setattr(QuasiNewtonState, "model", counted)
    return calls


@pytest.mark.parametrize("case, m, delta, solver, products, storage", [
    ("gradient", 1, 1e6, "gradient", 1, "full"),
    ("gradient", 1, 1e6, "gradient", 1, "limited"),
    ("das", 10, 1e6, "das", 1, "full"),
    ("das", 10, 1e6, "das", 1, "limited"),
    ("das, trust region binding", 10, 0.05, "das", 1, "full"),
    ("das, trust region binding", 10, 0.05, "das", 1, "limited"),
    ("ipm omega-only", 30, 1e6, "ipm", 2, "full"),
    ("ipm omega-only", 30, 1e6, "ipm", 2, "limited"),
    ("ipm full", 30, 0.05, "ipm", 2, "full"),
    ("ipm full", 30, 0.05, "ipm", 2, "limited"),
])
def test_one_w_product_per_direction(monkeypatch, case, m, delta, solver,
                                     products, storage):
    # W-vector products per direction, the same under either storage.  The
    # IPM makes one for its look at the box, where it abandons the
    # omega-only attempt when the trust region binds, and one for its
    # solution's step.  The DAS prices the omega indices from G'WG alone
    # while the metric's row-norm bound shows that no gamma can violate,
    # and makes one product, W (G omega), at the pivot where none of them
    # violates.  Once a gamma may violate it prices from W G, making none,
    # and forms d with one product at its exit.  Either solver's d is its
    # last W (G omega + gamma), only read after that.  The IPM cases reach
    # the IPM through a DAS that fails at once, making no product.
    rng = np.random.default_rng(7)
    n = 6
    qn = QuasiNewtonState(n, storage=storage, history_limit=4)
    for _ in range(3):
        s = rng.standard_normal(n)
        _, v = damp(s, rng.standard_normal(n), 0.5, 2.0)
        qn.update(s, v)
    # gradients around a common one, so that the hull stays off zero
    ps = _bundle([(rng.standard_normal(n), 1.0, 2.0 + rng.standard_normal(n))
                  for _ in range(m)])
    strategy = "gradient" if m == 1 else "cutting_plane"
    opts = SolverOptions(strategy=strategy)
    if solver == "ipm":
        monkeypatch.setattr(direction, "solve_das", _failing_solve(DasError))
    calls = _count_w_products(monkeypatch)
    res = compute_direction(ps, qn, delta, opts)
    assert res.solver == solver
    assert np.any(res.gamma != 0.0) == (delta < 1.0)  # the trust region binds
    assert len(calls) == products
    model = ps.gradients() @ res.omega + res.gamma
    assert np.allclose(res.d, -qn.apply_W(model), rtol=1e-12, atol=1e-14)


def test_limited_das_without_gamma_forms_no_w_g(monkeypatch):
    # An omega-only DAS solve under limited storage takes G'WG from the
    # compact form and W (G omega) one vector at a time: it applies W to no
    # matrix and leaves the subproblem's W G unformed.
    rng = np.random.default_rng(9)
    n, m = 40, 12
    qn = QuasiNewtonState(n, storage="limited", history_limit=4)
    for _ in range(6):
        s = rng.standard_normal(n)
        qn.update(s, damp(s, rng.standard_normal(n), 0.5, 2.0)[1])
    ps = _bundle([(rng.standard_normal(n), 1.0, 2.0 + rng.standard_normal(n))
                  for _ in range(m)])
    data = build_subproblem(ps, qn, 1e6, "cutting_plane")
    matrices = []

    def watch(name):
        apply = getattr(QuasiNewtonState, name)

        def counted(self, A):
            if np.ndim(A) == 2:
                matrices.append((name, np.shape(A)))
            return apply(self, A)

        monkeypatch.setattr(QuasiNewtonState, name, counted)

    watch("apply_W_matrix")
    watch("apply_B")  # W G = c G + B M P
    sol = solve_das(data)
    assert matrices == []
    assert data._wg is None
    assert not np.any(sol.gamma)
    assert sol.iterations > 1 and np.count_nonzero(sol.omega) > 1
    assert np.allclose(sol.d, -qn.apply_W(data.G @ sol.omega),
                       rtol=1e-12, atol=1e-14)


def _concatenated_kkt_residual(data, omega, sigma, rho, u, d):
    """The residual over theta = (omega, sigma, rho) and v concatenated,
    omega's conditions taken from G'WG and (W G)'gamma."""
    wm = -d
    theta = np.concatenate([omega, sigma, rho])
    v_omega = data.gtwg @ omega - data.b - u
    if np.any(sigma - rho):
        v_omega += data.wg.T @ (sigma - rho)
    v = np.concatenate([v_omega, wm + data.delta, -wm + data.delta])
    return max(abs(float(np.sum(omega)) - 1.0),
               float(max(0.0, -np.min(theta, initial=0.0))),
               float(max(0.0, -np.min(v, initial=0.0))),
               float(np.max(np.abs(theta * v), initial=0.0)))


def _random_subproblem(rng, n, m, storage, delta):
    qn = QuasiNewtonState(n, storage=storage, history_limit=3)
    for _ in range(4):
        s = rng.standard_normal(n)
        qn.update(s, damp(s, rng.standard_normal(n), 0.5, 2.0)[1])
    return SubproblemData(G=rng.standard_normal((n, m)), b=rng.standard_normal(m),
                          delta=delta, qn=qn)


@pytest.mark.parametrize("seed", range(6))
def test_kkt_residual_matches_the_concatenated_form(seed):
    # Random pieces at random scales, so that each piece of theta and v
    # decides the residual in some trials; d is drawn freely.
    rng = np.random.default_rng(seed)
    n, m = 8, 5
    data = _random_subproblem(rng, n, m, ("full", "limited")[seed % 2], 0.3)
    for trial in range(60):
        scale = 10.0 ** rng.integers(-6, 4, size=5)
        omega, sigma, rho = (s * rng.standard_normal(k)
                             for s, k in zip(scale, (m, n, n)))
        if trial % 4 == 0:  # a solver's output: nonnegative, zeros in gamma
            omega, sigma, rho = np.abs(omega), np.zeros(n), np.zeros(n)
        u = scale[3] * float(rng.standard_normal())
        d = scale[4] * rng.standard_normal(n)
        got = compute_kkt_residual(data, omega, sigma, rho, u, d)
        assert got == _concatenated_kkt_residual(data, omega, sigma, rho, u, d)
        d = -data.qn.apply_W(data.G @ omega + (sigma - rho))
        assert compute_kkt_residual(data, omega, sigma, rho, u) == \
            compute_kkt_residual(data, omega, sigma, rho, u, d)


@pytest.mark.parametrize("storage", ["full", "limited"])
@pytest.mark.parametrize("delta", [1e6, 0.05])
def test_solutions_carry_g_omega_and_their_kkt_residual(storage, delta):
    # Both solvers, on the omega-only path and with the trust region
    # binding: G omega is returned bit for bit as the caller would form it,
    # and the residual equals the concatenated form.
    rng = np.random.default_rng(21)
    for _ in range(3):
        data = _random_subproblem(rng, 10, 6, storage, delta)
        for solve in (solve_das, solve_ipm):
            sol = solve(data, tol=1e-8)
            assert np.array_equal(sol.g_omega, data.G @ np.asarray(sol.omega))
            assert sol.kkt_residual == _concatenated_kkt_residual(
                data, sol.omega, sol.sigma, sol.rho, sol.u, sol.d)
            if solve is solve_ipm and delta < 1:
                assert not sol.omega_only
