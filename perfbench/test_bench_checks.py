"""Tests of the benchmark's own checks, span accounting and comparison."""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from nsopt import SolverOptions, generate_qp, make_problem, run_solver  # noqa: E402
from nsopt.denoise import (add_salt_pepper, make_denoising, mse,  # noqa: E402
                           round_to_image, synthetic_image)
from nsopt.qp_ipm import solve_ipm  # noqa: E402
from nsopt.subproblem import compute_kkt_residual  # noqa: E402
from spans import SpanRecorder  # noqa: E402


@pytest.fixture(scope="module")
def qp_solution():
    qp = generate_qp(20, 40, "half", 0)
    return qp, solve_ipm(qp.subproblem())


def _qp_problems(qp, sol, gamma=None, u=None):
    gamma = sol.gamma if gamma is None else gamma
    return checks.check_qp_solution(qp, sol.omega, gamma, sol.sigma, sol.rho,
                                    sol.u if u is None else u)


def test_qp_check_accepts_the_solution(qp_solution):
    qp, sol = qp_solution
    assert _qp_problems(qp, sol) == []
    own = checks.kkt_residual_identity(qp.G, qp.b, qp.delta, sol.omega,
                                       sol.sigma, sol.rho, sol.u)
    program = compute_kkt_residual(qp.subproblem(), sol.omega, sol.sigma,
                                   sol.rho, sol.u)
    assert abs(own - program) <= 1e-12


def test_qp_check_rejects_a_shifted_d(qp_solution):
    qp, sol = qp_solution
    gamma = sol.gamma.copy()
    gamma[3] += 1e-4
    problems = _qp_problems(qp, sol, gamma=gamma)
    assert len(problems) == 1 and problems[0].startswith("d error")


def test_qp_check_rejects_a_kkt_residual_above_tolerance(qp_solution):
    qp, sol = qp_solution
    problems = _qp_problems(qp, sol, u=sol.u + 1e-6)
    assert len(problems) == 1 and problems[0].startswith("KKT residual")


@pytest.fixture(scope="module")
def lq_run():
    n = 10
    problem = make_problem("ChainedLQ", n)
    report = run_solver(problem.oracle, problem.x0, SolverOptions())
    return problem, report, checks.chained_lq_min(n)


def test_problem_check_accepts_the_run(lq_run):
    problem, report, f_star = lq_run
    f_at_x = problem.oracle.evaluate_f(report.x)
    assert checks.check_problem_run(report, f_at_x, f_star) == []


def test_problem_check_rejects_one_increase(lq_run):
    problem, report, f_star = lq_run
    history = list(report.f_history)
    history[2] = history[1] + 1e-9
    tampered = replace(report, f_history=history)
    f_at_x = problem.oracle.evaluate_f(report.x)
    assert checks.check_problem_run(tampered, f_at_x, f_star) == [
        "f_history increases at 1 step(s)"]


def test_problem_check_rejects_a_final_f_off_its_reference(lq_run):
    problem, report, f_star = lq_run
    f_at_x = problem.oracle.evaluate_f(report.x)
    off = f_star + 2 * checks.F_STAR_TOLERANCE * abs(f_star)
    problems = checks.check_problem_run(report, f_at_x, off)
    assert len(problems) == 1 and "off its reference" in problems[0]
    problems = checks.check_problem_run(report, f_at_x, None, f_max=f_star - 1)
    assert len(problems) == 1 and "above" in problems[0]


def test_problem_check_rejects_a_final_f_unlike_f_at_x(lq_run):
    problem, report, f_star = lq_run
    f_at_x = problem.oracle.evaluate_f(report.x)
    tampered = replace(report, final_f_unscaled=f_at_x + 1e-9)
    problems = checks.check_problem_run(tampered, f_at_x, f_star)
    assert len(problems) == 1 and "differs" in problems[0]


def test_denoise_check():
    clean = synthetic_image(8, 8)
    noisy = add_salt_pepper(clean, 0.2, 1)
    problem = make_denoising(noisy, "abs", 2.0 ** 5, 1.0)
    report = run_solver(problem.oracle, problem.x0, SolverOptions(qn_storage="limited"))
    restored = mse(round_to_image(report.x, 8, 8), clean)
    noisy_mse = mse(noisy, clean)
    assert checks.check_denoise_run(report, restored, noisy_mse) == []
    flat = replace(report, f_history=report.f_history + report.f_history[-1:])
    assert checks.check_denoise_run(flat, restored, noisy_mse) == [
        "f_history does not strictly decrease at 1 step(s)"]
    problems = checks.check_denoise_run(report, noisy_mse, noisy_mse)
    assert len(problems) == 1 and "MSE" in problems[0]


def _traced_run(strategy, n=20, storage="full", min_rounds=1):
    problem = make_problem("ChainedLQ", n)
    options = SolverOptions(strategy=strategy, qn_storage=storage)
    op = workloads._solver_op("lq", problem, options, lambda report: [])
    recorder = SpanRecorder()
    with recorder.patched(worker.trace_targets()):
        rounds, counts = worker.run_rounds([op], 0.0, recorder, min_rounds)
    return recorder, rounds, counts


@pytest.mark.parametrize("strategy", ["cutting_plane", "gradient_combination"])
def test_self_times_add_up_to_the_span_totals(strategy):
    recorder, rounds, counts = _traced_run(strategy)
    self_times = recorder.self_times()
    total = recorder.root_time()
    assert abs(sum(self_times.values()) - total) <= 1e-9 * total
    assert total == rounds[0][0]["wall_s"]
    assert all(t >= -1e-12 for t in self_times.values())
    expected = {"solver", "direction", "subproblem", "point_set", "oracle",
                "line_search", "quasi_newton", "qp_das"}
    assert expected <= set(self_times)
    # every span lies inside its parent, and a parent's self time is its
    # duration less its children's
    for index, parent in enumerate(recorder.parent):
        if parent >= 0:
            assert recorder.start[parent] <= recorder.start[index]
            assert recorder.end[index] <= recorder.end[parent]
    assert counts[0]["solver.iterations"] == counts[0]["qp_das.calls"]


def test_patched_names_are_restored():
    from nsopt import solver
    from nsopt.subproblem import SubproblemData
    before = (solver.compute_direction, vars(SubproblemData)["gtwg"])
    recorder = SpanRecorder()
    with recorder.patched(worker.trace_targets()):
        assert solver.compute_direction is not before[0]
    assert (solver.compute_direction, vars(SubproblemData)["gtwg"]) == before


def test_counts_repeat_and_a_changed_count_is_flagged():
    recorder, rounds, counts = _traced_run("cutting_plane", n=10, min_rounds=2)
    assert len(rounds) == len(counts) == 2
    _, _, again = _traced_run("cutting_plane", n=10)
    assert again == counts[:1] == counts[1:]
    metrics, problems = worker.per_layer(recorder.self_times(), counts, 2)
    assert problems == []
    assert metrics["solver.iterations"][0] == counts[0]["solver.iterations"]
    changed = dict(counts[0], **{"qp_das.pivots": counts[0]["qp_das.pivots"] + 1})
    _, problems = worker.per_layer(recorder.self_times(), counts[:1] + [changed], 2)
    assert len(problems) == 1 and "qp_das.pivots" in problems[0]


def test_only_the_das_early_exit_may_fail():
    ops = workloads.qp_n200()
    assert sorted(op.name for op in ops if op.may_fail) == [
        "das n=200 m=400 full seed=7", "das n=200 m=400 full seed=9"]
    # A known fault excuses a failed check, but not an exception.
    check = lambda out: ["KKT residual above tolerance"]  # noqa: E731
    for run, correct in ((lambda: None, True), (lambda: 1 / 0, False)):
        op = replace(ops[0], may_fail=True, run=run, check=check)
        summary = worker.summarize([[worker.run_operation(op, None)]])
        assert (summary["failed"], summary["correct"]) == (1, correct)


def test_workload_names_agree():
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == list(worker.PER_LAYER)


def _result(tmp, name, workload, wall, failed=0):
    record = {"workload": workload, "trace": 0, "attempted": 10, "failed": failed,
              "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
    (tmp / f"{name}.json").write_text(json.dumps(record))


def test_compare_reports_agreement_and_regression(tmp_path):
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    for i, wall in enumerate([1.0, 1.02, 0.98]):
        _result(a, i, "w", wall)
        _result(b, i, "w", wall * 1.05)
        _result(c, i, "w", wall * 1.2, failed=1)
    rows, agree = compare.compare(compare.load(str(a)), compare.load(str(b)), metrics)
    assert agree and rows[0][-1] == "agree"
    rows, agree = compare.compare(compare.load(str(a)), compare.load(str(c)), metrics)
    assert not agree and rows[0][-1] == "worse" and rows[1][-1] == "differ"
    assert compare.spread([1.0, 2.0, 3.0, 4.0])[0] == 2.5
