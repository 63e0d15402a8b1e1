"""One benchmark process: set up a workload, run it for a while, check it.

Started by run.py with the BLAS thread count already in its environment,
so that numpy and scipy load their OpenBLAS with it.  Set-up time is the
process's CPU time from its start until the workload's inputs are ready:
interpreter start, imports and building the inputs.  CPU time, unlike wall
time, does not stretch when the host takes the vCPU away.  Prints one JSON
object as its last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

PER_LAYER = ("solver.self_s", "solver.iterations",
             "direction.self_s", "direction.columns",
             "subproblem.gtwg_s", "point_set.self_s",
             "oracle.self_s", "oracle.f_evals", "oracle.g_evals",
             "line_search.self_s", "line_search.calls",
             "quasi_newton.self_s", "quasi_newton.updates",
             "qp_das.self_s", "qp_das.calls", "qp_das.pivots",
             "qp_ipm.self_s", "qp_ipm.calls", "qp_ipm.iterations",
             "qp_ipm.factorizations", "qp_ipm.full_path_calls")
SELF_TIME_METRIC = {"subproblem": "subproblem.gtwg_s"}  # else "<layer>.self_s"


def trace_targets():
    """(owner, attribute, layer, calls counter, result counts) for every
    name the traced run wraps.  Each is wrapped where the caller looks it
    up, so the program itself is unchanged."""
    from nsopt import direction, qp_das, qp_ipm, solver
    from nsopt.oracle import CountingOracle
    from nsopt.point_set import PointSet
    from nsopt.quasi_newton import QuasiNewtonState
    from nsopt.subproblem import SubproblemData

    def das(sol):
        return {"qp_das.pivots": sol.iterations}

    def ipm(sol):
        return {"qp_ipm.iterations": sol.iterations,
                "qp_ipm.factorizations": sol.diagnostics.factorizations,
                "qp_ipm.full_path_calls": int(not sol.omega_only)}

    return [
        (solver, "compute_direction", "direction", None, None),
        (direction, "build_subproblem", "direction", None,
         lambda data: {"direction.columns": data.m}),
        (SubproblemData, "gtwg", "subproblem", None, None),
        (SubproblemData, "wg", "subproblem", None, None),
        (direction, "solve_das", "qp_das", "qp_das.calls", das),
        (qp_das, "solve_das", "qp_das", "qp_das.calls", das),
        (direction, "solve_ipm", "qp_ipm", "qp_ipm.calls", ipm),
        (qp_ipm, "solve_ipm", "qp_ipm", "qp_ipm.calls", ipm),
        (solver, "weak_wolfe", "line_search", "line_search.calls", None),
        (solver, "backtracking_armijo", "line_search", "line_search.calls", None),
        (solver, "damp", "quasi_newton", None, None),
        (QuasiNewtonState, "update", "quasi_newton", "quasi_newton.updates", None),
        (solver, "sample_ball", "point_set", None, None),
        (solver, "prune_by_age", "point_set", None, None),
        (solver, "prune_by_distance", "point_set", None, None),
        (PointSet, "add", "point_set", None, None),
        (PointSet, "set_current", "point_set", None, None),
        (PointSet, "gradients", "point_set", None, None),
        (PointSet, "gradient_products", "point_set", None, None),
        (CountingOracle, "f", "oracle", None, None),
        (CountingOracle, "g", "oracle", None, None),
    ]


def run_operation(op, recorder) -> dict:
    """Time one operation, then check its output outside the timing."""
    error = None
    cpu = time.process_time()
    if recorder is None:
        start = time.perf_counter()
    else:
        recorder.operation += 1
        root = recorder.open(recorder.layer_id(op.root))
    try:
        out = op.run()
    except Exception as exc:  # a failed operation; the run goes on
        out, error = None, f"{type(exc).__name__}: {exc}"
    if recorder is None:
        wall = time.perf_counter() - start
    else:
        recorder.close(root)
        wall = recorder.end[root] - recorder.start[root]
    cpu = time.process_time() - cpu
    problems = [error] if error else op.check(out)
    if recorder is not None and error is None and op.counts is not None:
        recorder.counts.update(op.counts(out))
    return {"name": op.name, "wall_s": wall, "cpu_s": cpu,
            "problems": problems, "may_fail": op.may_fail and error is None}


def run_rounds(ops, seconds: float, recorder=None, min_rounds: int = 1):
    """Whole rounds of ``ops``: ``min_rounds``, then more while another
    round of the mean length so far still ends within ``seconds``.  Returns
    the rounds, and the counts each round added when traced."""
    rounds, round_counts = [], []
    started = time.perf_counter()
    while len(rounds) < min_rounds or ((time.perf_counter() - started) * (len(rounds) + 1)
                                       <= seconds * len(rounds)):
        before = Counter(recorder.counts) if recorder is not None else None
        rounds.append([run_operation(op, recorder) for op in ops])
        if recorder is not None:
            counts = Counter(recorder.counts)
            counts.subtract(before)
            round_counts.append(dict(counts))
    return rounds, round_counts


def summarize(rounds) -> dict:
    ops = [r for one in rounds for r in one]
    unexpected = [f"{r['name']}: {p}" for r in ops if not r["may_fail"]
                  for p in r["problems"]]
    return {"correct": not unexpected,
            "attempted": len(ops),
            "failed": sum(1 for r in ops if r["problems"]),
            "problems": unexpected + sorted({f"{r['name']}: {p}" for r in ops
                                             if r["may_fail"] for p in r["problems"]}),
            "round_wall_s": [sum(r["wall_s"] for r in one) for one in rounds],
            "round_cpu_s": [sum(r["cpu_s"] for r in one) for one in rounds]}


def end_to_end(rounds, summary) -> dict:
    return {"wall_s": (statistics.median(summary["round_wall_s"]), "s"),
            "cpu_s": (statistics.median(summary["round_cpu_s"]), "s"),
            "solve_p50_s": (statistics.median(r["cpu_s"] for one in rounds
                                              for r in one), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB")}


def per_layer(self_times: dict, round_counts: list[dict],
              n_rounds: int) -> tuple[dict, list[str]]:
    """Self times and counts per round; a count that differs between
    rounds of the same operations is reported as a problem."""
    metrics = {name: (0.0 if name.endswith("_s") else 0,
                      "s" if name.endswith("_s") else "count")
               for name in PER_LAYER}
    for layer, seconds in self_times.items():
        name = SELF_TIME_METRIC.get(layer, f"{layer}.self_s")
        metrics[name] = (seconds / n_rounds, "s")
    problems = []
    for name in sorted({k for c in round_counts for k in c}):
        values = [c.get(name, 0) for c in round_counts]
        if len(set(values)) > 1:
            problems.append(f"count {name} differs between rounds: {values}")
        metrics[name] = (values[0], "count")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import nsopt
    if not Path(nsopt.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"nsopt was imported from {nsopt.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    ops = WORKLOADS[args.workload]()
    setup_s = time.process_time()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    recorder = None
    if args.trace:
        from spans import SpanRecorder
        recorder = SpanRecorder()
        # Two rounds at least, so that the counts are compared between rounds.
        with recorder.patched(trace_targets()):
            rounds, round_counts = run_rounds(ops, args.seconds, recorder, min_rounds=2)
    else:
        rounds, round_counts = run_rounds(ops, args.seconds)

    summary = summarize(rounds)
    out = {"setup_s": setup_s, **summary,
           "operations": [[{k: r[k] for k in ("name", "wall_s", "cpu_s")} for r in one]
                          for one in rounds],
           "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                        "scipy": scipy.__version__,
                        "numpy_blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
                        "scipy_blas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]}}
    if recorder is None:
        out["metrics"] = end_to_end(rounds, summary)
    else:
        metrics, problems = per_layer(recorder.self_times(), round_counts, len(rounds))
        out["metrics"] = metrics
        out["problems"] += problems
        out["correct"] = out["correct"] and not problems
        out["traced_wall_s"] = sum(summary["round_wall_s"]) / len(rounds)
        if args.trace_file:
            recorder.write(args.trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
