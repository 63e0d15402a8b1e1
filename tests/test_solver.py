import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import nsopt
from nsopt import direction
from nsopt.denoise import add_salt_pepper, make_denoising, synthetic_image
from nsopt.options import (_OPTION_KEYS, STRATEGIES, SolverOptions,
                           load_options_file)
from nsopt.oracle import ObjectiveOracle
from nsopt.problems import make_problem
from nsopt.qp_das import DasError
from nsopt.qp_ipm import IpmError
from nsopt.solver import run_solver


def _quadratic(n):
    return ObjectiveOracle(dimension=n,
                           evaluate_f=lambda x: 0.5 * float(x @ x),
                           evaluate_g=lambda x: x.copy())


def test_smooth_quadratic_converges_fast():
    opts = SolverOptions(strategy="gradient")
    report = run_solver(_quadratic(2), np.array([1.0, 1.0]), opts)
    assert report.final_f_unscaled <= 1e-10
    assert report.iterations <= 10
    assert report.termination_reason == "stationary"


def test_maxq_small_instance():
    prob = make_problem("MaxQ", 2)
    report = run_solver(prob.oracle, np.array([1.0, -1.0]), SolverOptions())
    assert report.final_f_unscaled <= 1e-6


def test_infinite_starting_value_rejected():
    oracle = ObjectiveOracle(dimension=1,
                             evaluate_f=lambda x: float("inf"),
                             evaluate_g=lambda x: np.ones(1))
    with pytest.raises(ValueError):
        run_solver(oracle, np.zeros(1), SolverOptions())


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        run_solver(_quadratic(3), np.zeros(2), SolverOptions())


def test_report_counters_and_history():
    prob = make_problem("ChainedLQ", 10)
    report = run_solver(prob.oracle, prob.x0, SolverOptions())
    assert report.function_evaluations >= report.iterations
    assert report.gradient_evaluations >= 1
    assert report.cpu_seconds >= 0.0
    assert len(report.f_history) >= 2
    assert report.f_history[0] == pytest.approx(prob.oracle.evaluate_f(prob.x0))
    assert report.f_history[-1] == pytest.approx(report.final_f_unscaled)
    assert np.all(np.isfinite(report.x))


def test_objective_scaling_recorded():
    big = ObjectiveOracle(dimension=2,
                          evaluate_f=lambda x: 1e4 * float(x @ x),
                          evaluate_g=lambda x: 2e4 * x)
    report = run_solver(big, np.array([1.0, 0.0]), SolverOptions(strategy="gradient"))
    assert report.scale == pytest.approx(1e2 / 2e4)
    assert report.final_f_unscaled <= 1e-8


def test_unbounded_objective_detected():
    oracle = ObjectiveOracle(dimension=1,
                             evaluate_f=lambda x: float(x[0]),
                             evaluate_g=lambda x: np.ones(1))
    opts = SolverOptions(strategy="gradient")
    report = run_solver(oracle, np.zeros(1), opts)
    assert report.termination_reason == "objective_unbounded"
    assert report.final_f_unscaled <= -1e18


def test_seeded_runs_are_reproducible():
    prob = make_problem("ChainedCrescent_2", 8)
    opts = SolverOptions(strategy="gradient_combination", seed=42)
    a = run_solver(prob.oracle, prob.x0, opts)
    b = run_solver(prob.oracle, prob.x0, opts)
    assert a.final_f_unscaled == b.final_f_unscaled
    assert np.array_equal(a.x, b.x)
    assert a.iterations == b.iterations


def test_sampling_evaluates_only_the_samples_that_stay():
    # 20 samples per iteration against a bundle cap of 10: 9 points are
    # drawn, f and g are evaluated at those 9, and more are drawn only to
    # replace non-finite values, of which ChainedLQ has none.
    prob = make_problem("ChainedLQ", 200)
    opts = SolverOptions(strategy="gradient_combination", seed=0)
    report = run_solver(prob.oracle, prob.x0, opts)
    assert report.termination_reason == "stationary"
    assert report.iterations == 327
    assert report.function_evaluations == 5304
    assert report.gradient_evaluations == 3272


def test_sampling_refills_non_finite_values():
    # f is inf at about half of the points, by a digit of their first
    # coordinate.  Each iteration draws cap - 1 = 9 points, and refills the
    # places of non-finite values, up to p = 20 draws in all.  It keeps the
    # first finite draws, as many as min(9, finite values among the draws),
    # and evaluates g once, on those.
    base = make_problem("ChainedLQ", 10)
    calls = []

    def outside(X):
        return np.modf(np.abs(X[0]) * 1e6)[0] < 0.5

    def f(X):
        values = np.where(outside(X), np.inf, base.oracle.evaluate_f(X))
        if np.ndim(X) == 2:
            calls.append(("f", X.copy(), values))
        return values

    def g(X):
        if np.ndim(X) == 2:
            calls.append(("g", X.copy(), None))
        return base.oracle.evaluate_g(X)

    x0 = base.x0 + 3e-7
    assert not outside(x0)
    opts = SolverOptions(strategy="gradient_combination", p=20, seed=3,
                         iteration_limit=30)
    assert opts.bundle_limit(10) == 10
    run_solver(ObjectiveOracle(10, f, g, blocks=True), x0, opts)
    refilled = short = 0
    while calls:
        drawn = []
        while calls[0][0] == "f":
            drawn.append(calls.pop(0)[1:])
        kind, kept, _ = calls.pop(0)
        assert kind == "g" and drawn
        sizes = [X.shape[1] for X, _ in drawn]
        X = np.hstack([X for X, _ in drawn])
        finite = np.isfinite(np.concatenate([values for _, values in drawn]))
        assert sizes[0] == 9 and sum(sizes) <= 20
        assert kept.shape[1] == min(9, int(finite.sum()))
        assert np.array_equal(kept, X[:, np.flatnonzero(finite)[:9]])
        assert kept.shape[1] == 9 or sum(sizes) == 20
        refilled += len(sizes) > 1
        short += kept.shape[1] < 9
    assert refilled >= 10 and short >= 2


def _failing(error, calls):
    def solve(data, tol):
        calls.append(data.m)
        raise error("injected failure")
    return solve


@pytest.mark.parametrize("error", [DasError, np.linalg.LinAlgError],
                         ids=lambda error: f"solve_das-{error.__name__}")
def test_failed_qp_falls_back_to_the_other_solver(monkeypatch, error):
    prob = make_problem("ChainedLQ", 10)
    clean = run_solver(prob.oracle, prob.x0, SolverOptions())
    assert clean.qp_fallbacks == 0
    calls = []
    monkeypatch.setattr(direction, "solve_das", _failing(error, calls))
    report = run_solver(prob.oracle, prob.x0, SolverOptions())
    assert report.termination_reason == "stationary"
    assert report.qp_fallbacks == len(calls) > 0
    assert report.final_f_unscaled == pytest.approx(clean.final_f_unscaled, abs=1e-5)


def test_both_qp_solvers_failing_ends_the_run(monkeypatch):
    prob = make_problem("ChainedLQ", 10)
    calls = []
    monkeypatch.setattr(direction, "solve_das", _failing(DasError, calls))
    monkeypatch.setattr(direction, "solve_ipm", _failing(IpmError, calls))
    report = run_solver(prob.oracle, prob.x0, SolverOptions())
    assert report.termination_reason == "subproblem_failure"
    assert report.iterations == 1 and report.qp_fallbacks == 1
    assert len(calls) == 2
    assert np.array_equal(report.x, prob.x0)
    assert report.f_history == [report.final_f_unscaled]


def test_accuracy_mode_not_worse_than_speed_mode():
    prob = make_problem("MaxQ", 20)
    speed = run_solver(prob.oracle, prob.x0, SolverOptions(delta_f=1e-5, n_f=10))
    acc = run_solver(prob.oracle, prob.x0, SolverOptions(delta_f=1e-8, n_f=20))
    assert acc.final_f_unscaled <= speed.final_f_unscaled + 1e-12


# -- options file -----------------------------------------------------------


def test_options_file_roundtrip(tmp_path):
    path = tmp_path / "opts.txt"
    path.write_text(
        "# comment line\n"
        "BFGS_correction_threshold_1 = 1e-6\n"
        "PSP_size_factor = 0.1\n"
        "SMLM_history = 7\n"
        "TS_objective_similarity_tolerance = 0.5\n"
    )
    opts = load_options_file(str(path))
    assert opts.eta == pytest.approx(1e-6)
    assert opts.size_factor == pytest.approx(0.1)
    assert opts.history_limit == 7
    assert opts.delta_f == 0.5


def test_options_file_unknown_key_rejected(tmp_path):
    path = tmp_path / "opts.txt"
    for key in ("no_such_option", "DEFD_increment", "DCCP_try_gradient_step",
                "DCGC_try_gradient_step"):
        path.write_text(f"{key} = 1\n")
        with pytest.raises(ValueError, match="unknown option"):
            load_options_file(str(path))


def test_options_validation(tmp_path):
    # weak Wolfe ordering: 0 < ls_decrease < ls_curvature < 1
    for bad in ({"ls_decrease": 1.5}, {"ls_decrease": 0.0},
                {"ls_decrease": 0.95}, {"ls_curvature": 1.0},
                {"ls_decrease": 0.5, "ls_curvature": 0.5}):
        with pytest.raises(ValueError, match="ls_decrease < ls_curvature"):
            SolverOptions(**bad)
    path = tmp_path / "opts.txt"
    path.write_text("LSWW_stepsize_sufficient_decrease_threshold = 1.5\n")
    with pytest.raises(ValueError, match="ls_decrease < ls_curvature"):
        load_options_file(str(path))
    # a limited-memory window needs at least one pair
    for bad in (0, -1):
        with pytest.raises(ValueError, match="history_limit"):
            SolverOptions(history_limit=bad)
        path.write_text(f"SMLM_history = {bad}\n")
        with pytest.raises(ValueError, match="history_limit"):
            load_options_file(str(path))
    with pytest.raises(ValueError):
        SolverOptions(strategy="newton")
    with pytest.raises(ValueError):
        SolverOptions(eta=1.0, psi=0.5)


@pytest.mark.parametrize("field, bad, good", [
    ("p", -1, 0),
    ("eps_min", 0.0, 1e-12),
    ("qp_tolerance", 0.0, 1e-12),
    ("iteration_limit", 0, 1),
    ("ls_initial", 0.0, 1e-12),
    ("n_f", 0, 1),
    ("qp_tolerance", np.nan, 1e-12),
    ("eps_min", np.nan, 1e-12),
    ("delta_f", np.nan, 0.0),
    ("delta_f", -1.0, 0.0),
    ("size_factor", np.nan, 1e-12),
])
def test_options_bounds(tmp_path, field, bad, good):
    # NaN fails every bound, directly and from an options file
    with pytest.raises(ValueError, match=field):
        SolverOptions(**{field: bad})
    with pytest.raises(ValueError, match=field):
        SolverOptions(**{field: -abs(bad) - 1})
    assert getattr(SolverOptions(**{field: good}), field) == good
    keys = [key for key, (name, _) in _OPTION_KEYS.items() if name == field]
    if keys:
        path = tmp_path / "opts.txt"
        path.write_text(f"{keys[0]} = {bad}\n")
        with pytest.raises(ValueError, match=field):
            load_options_file(str(path))


def test_samples_per_iteration_defaults():
    assert SolverOptions(strategy="cutting_plane").samples_per_iteration(100) == 0
    assert SolverOptions(strategy="gradient_combination").samples_per_iteration(100) == 10
    assert SolverOptions(strategy="gradient_combination").samples_per_iteration(95) == 10


def test_every_option_has_a_reader():
    """Each SolverOptions field is read as ``opts.<field>`` or
    ``options.<field>`` outside options.py, directly or through a
    SolverOptions method that is called there."""
    src = Path(nsopt.__file__).parent
    read = set()
    for path in src.glob("*.py"):
        if path.name != "options.py":
            read |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name)
                     and node.value.id in ("opts", "options")}
    tree = ast.parse((src / "options.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "SolverOptions")
    for method in cls.body:
        if isinstance(method, ast.FunctionDef) and method.name in read:
            read |= {node.attr for node in ast.walk(method)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name)
                     and node.value.id == "self"}
    fields = [f.name for f in dataclasses.fields(SolverOptions)]
    assert [name for name in fields if name not in read] == []


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_zero_gradient_start_shrinks_radii_then_stops(strategy):
    # f = x'x at x = 0: every model is degenerate, so each iteration shrinks
    # eps and delta tenfold (1e-2, 1e-1 at the start) until eps reaches
    # eps_min, and the run stops there without a further shrink
    oracle = ObjectiveOracle(dimension=3, evaluate_f=lambda x: float(x @ x),
                             evaluate_g=lambda x: 2.0 * x)
    report = run_solver(oracle, np.zeros(3), SolverOptions(strategy=strategy))
    assert report.termination_reason == "stationary"
    assert report.iterations == 4
    assert report.eps_final == pytest.approx(1e-5)
    assert report.delta_final == pytest.approx(1e-4)
    assert report.final_f_unscaled == 0.0


def test_limited_metric_line_search_takes_few_trial_points():
    # A well-scaled limited-memory metric offers steps the line search
    # accepts at once or nearly so.  From W0 = I the same run took 4214 f
    # evaluations over 357 iterations.
    noisy = add_salt_pepper(synthetic_image(16, 16), 0.05, 0)
    prob = make_denoising(noisy, "abs", 2.0 ** 5, 1.0)
    report = run_solver(prob.oracle, prob.x0, SolverOptions(qn_storage="limited"))
    assert report.termination_reason == "stationary"
    assert report.function_evaluations <= 2 * report.iterations


def _per_column_build(point_set, qn, delta, strategy):
    """``build_subproblem`` with b from a loop over the bundle columns."""
    cur = point_set.current
    if strategy == "gradient":
        return direction.SubproblemData(G=cur.g.reshape(-1, 1), b=np.array([cur.f]),
                                        delta=delta, qn=qn)
    G, gtg, bt_g = point_set.gradient_products(qn)
    if strategy == "gradient_combination":
        b = np.full(len(point_set), cur.f)
    else:
        X, f = point_set.X, point_set.f
        b = np.empty(len(point_set))
        for j in range(b.size):
            dx = cur.x - X[:, j]
            raw = f[j] + float(G[:, j] @ dx)
            b[j] = min(raw, cur.f - 1e-8 * float(dx @ dx))
    return direction.SubproblemData(G=G, b=b, delta=delta, qn=qn, gtg=gtg,
                                    bt_g=bt_g)


def _per_column_prune(point_set, eps_next, envelope_factor):
    """``prune_by_distance`` with one norm per column.  The bundle's offsets
    pass also forms the products that the metric's entering rows and G'G
    read, so it runs as it would, and its q is not read."""
    point_set.offsets()
    limit = envelope_factor * eps_next
    X, cur, x = point_set.X, point_set._cur, point_set.current.x
    point_set._keep(np.array([j for j in range(X.shape[1]) if j == cur
                              or np.linalg.norm(X[:, j] - x) <= limit], dtype=int))
    return point_set


def _denoise_16():
    noisy = add_salt_pepper(synthetic_image(16, 16), 0.05, 0)
    prob = make_denoising(noisy, "abs", 2.0 ** 5, 1.0)
    return prob, SolverOptions(qn_storage="limited", delta_f=1e-5, n_f=10)


def _cb3_50():
    return (make_problem("ChainedCB3_2", 50),
            SolverOptions(strategy="cutting_plane", delta_f=1e-5, n_f=10))


def _sampled_20():
    return (make_problem("ChainedLQ", 20),
            SolverOptions(strategy="gradient_combination", delta_f=1e-5, n_f=10))


@pytest.mark.parametrize("case", [_denoise_16, _cb3_50, _sampled_20],
                         ids=["denoise-16x16", "cb3-n50", "sampling-n20"])
def test_held_offsets_and_solver_g_omega_keep_the_path(monkeypatch, case):
    # The offsets the bundle holds (distance pruning, cutting-plane b) and
    # the G omega the QP solvers return replace per-column loops and a
    # product in the direction; the run must be bitwise the same as with
    # those written out here.
    prob, opts = case()
    fast = run_solver(prob.oracle, prob.x0, opts)

    built = []

    def build(*args):
        built.append(_per_column_build(*args))
        return built[-1]

    def formed_g_omega(solve):
        def solve_and_form(data, tol):
            sol = solve(data, tol=tol)
            sol.g_omega = built[-1].G @ sol.omega
            return sol
        return solve_and_form

    monkeypatch.setattr(direction, "build_subproblem", build)
    for name in ("solve_das", "solve_ipm"):
        monkeypatch.setattr(direction, name,
                            formed_g_omega(getattr(direction, name)))
    monkeypatch.setattr(nsopt.solver, "prune_by_distance", _per_column_prune)
    slow = run_solver(prob.oracle, prob.x0, opts)
    assert built  # the written-out forms ran
    assert np.array_equal(fast.x, slow.x)
    assert np.array_equal(fast.f_history, slow.f_history)
    assert ((fast.iterations, fast.function_evaluations, fast.gradient_evaluations)
            == (slow.iterations, slow.function_evaluations, slow.gradient_evaluations))
