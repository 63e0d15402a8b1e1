"""Command-line harness: `solve` (library problems), `qp-bench` (dual
active-set vs interior-point subproblem solver comparison), and `denoise`.

Results are CSV rows to stdout or --out; --table renders the same rows as a
fixed-width table.  The NONOPT_OPTIONS environment variable names a default
options file applied before any --options flag.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
import time

import numpy as np

from .denoise import (DEFAULT_PARAMETERS, REGULARIZERS, GrayImage,
                      add_salt_pepper, make_denoising, mse, round_to_image,
                      synthetic_image)
from .options import SolverOptions, load_options_file
from .pgm import read_pgm, write_pgm
from .problems import PROBLEM_NAMES, make_problem
from .qp_das import solve_das
from .qp_generator import D_CASES, generate_qp
from .qp_ipm import solve_ipm
from .solver import run_solver

_STRATEGY_TOKENS = {"CP": "cutting_plane", "GC": "gradient_combination",
                    "G": "gradient"}
_M_FACTORS = {
    "n+1": lambda n: n + 1,
    "1.5n": lambda n: int(round(1.5 * n)),
    "2n": lambda n: 2 * n,
}


def _base_options() -> SolverOptions:
    opts = SolverOptions()
    env = os.environ.get("NONOPT_OPTIONS")
    if env:
        opts = load_options_file(env, opts)
    return opts


def _mode_options(opts: SolverOptions, mode: str) -> SolverOptions:
    from dataclasses import replace
    if mode == "speed":
        return replace(opts, delta_f=1e-5, n_f=10)
    if mode == "accuracy":
        return replace(opts, delta_f=1e-8, n_f=20)
    raise ValueError(f"unknown mode {mode!r}")


def _emit(rows: list[dict], header: list[str], out_path: str | None,
          table: bool) -> None:
    if table:
        widths = [max(len(h), *(len(str(r.get(h, ""))) for r in rows))
                  if rows else len(h) for h in header]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        for r in rows:
            lines.append("  ".join(str(r.get(h, "")).ljust(w)
                                   for h, w in zip(header, widths)))
        text = "\n".join(lines) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    names = args.names.split(",")
    for name in names:
        if name not in PROBLEM_NAMES:
            raise SystemExit(f"unknown problem name {name!r}")
    strategies = args.strategy.split(",")
    for token in strategies:
        if token not in _STRATEGY_TOKENS:
            raise SystemExit(f"unknown strategy token {token!r} (use CP, GC, G)")
    opts = _base_options()
    if args.options:
        opts = load_options_file(args.options, opts)
    opts = _mode_options(opts, args.mode)

    from dataclasses import replace
    rows = []
    for name in names:
        problem = make_problem(name, args.n)
        for token in strategies:
            run_opts = replace(opts, strategy=_STRATEGY_TOKENS[token],
                               seed=args.seed)
            try:
                report = run_solver(problem.oracle, problem.x0, run_opts)
                final_f = f"{report.final_f_unscaled:+.6e}"
                iters, funcs, grads = (report.iterations,
                                       report.function_evaluations,
                                       report.gradient_evaluations)
                cpu = report.cpu_seconds
            except Exception as exc:  # recorded in-row, harness keeps going
                final_f = f"error:{type(exc).__name__}: {exc}"
                iters = funcs = grads = 0
                cpu = 0.0
            rows.append({"name": name, "dir": token, "iters": iters,
                         "funcs": funcs, "grads": grads, "f": final_f,
                         "cpu": f"{cpu:.3f}"})
    _emit(rows, ["name", "dir", "iters", "funcs", "grads", "f", "cpu"],
          args.out, args.table)
    return 0


def cmd_qp_bench(args) -> int:
    sizes = [int(t) for t in args.n.split(",")]
    factors = args.m_factors.split(",")
    for token in factors:
        if token not in _M_FACTORS:
            raise SystemExit(f"unknown m factor {token!r} (use n+1, 1.5n, 2n)")
    dcases = args.dcases.split(",")
    for case in dcases:
        if case not in D_CASES:
            raise SystemExit(f"unknown d* case {case!r}")
    seeds = [int(t) for t in args.seeds.split(",")]
    solvers = args.solvers.split(",")
    for s in solvers:
        if s not in ("das", "ipm"):
            raise SystemExit(f"unknown solver {s!r} (use das, ipm)")

    rows = []
    for n in sizes:
        for token in factors:
            m = _M_FACTORS[token](n)
            for case in dcases:
                for seed in seeds:
                    qp = generate_qp(n, m, case, seed)
                    for solver in solvers:
                        # a fresh subproblem each, so that the lazily cached
                        # W G and G'WG are charged to every solver alike
                        data = qp.subproblem()
                        start = time.process_time()
                        if solver == "das":
                            sol = solve_das(data, tol=1e-8)
                            shortcut = False
                        else:
                            sol = solve_ipm(data, tol=1e-8)
                            shortcut = sol.omega_only
                        cpu = time.process_time() - start
                        d = -(qp.G @ sol.omega + sol.gamma)  # W = identity
                        d_err = float(np.max(np.abs(d - qp.d_star)))
                        rows.append({
                            "n": n, "m": m, "dcase": case, "seed": seed,
                            "solver": solver, "cpu": f"{cpu:.6f}",
                            "iterations": sol.iterations,
                            "kkt_residual": f"{sol.kkt_residual:.3e}",
                            "d_err": f"{d_err:.3e}",
                            "shortcut": str(shortcut).lower(),
                        })
    _emit(rows, ["n", "m", "dcase", "seed", "solver", "cpu", "iterations",
                 "kkt_residual", "d_err", "shortcut"], args.out, args.table)
    return 0


def _denoise_pairs(args) -> list[tuple[float, float]]:
    if args.sweep:
        lo_i, hi_i, lo_j, hi_j = (int(t) for t in args.sweep.split(","))
        return [(2.0 ** i, 2.0 ** j)
                for i in range(lo_i, hi_i + 1)
                for j in range(lo_j, hi_j + 1)]
    lam, beta = DEFAULT_PARAMETERS[args.regularizer]
    if args.lam is not None:
        lam = args.lam
    if args.beta is not None:
        beta = args.beta
    return [(lam, beta)]


def cmd_denoise(args) -> int:
    from dataclasses import replace
    if args.input:
        base = read_pgm(args.input)
    else:
        base = synthetic_image(args.rows, args.cols)
    if args.noisy_in:
        noisy = base
        clean = read_pgm(args.clean) if args.clean else None
    else:
        clean = base
        noisy = add_salt_pepper(clean, args.density, args.seed)

    regs = REGULARIZERS if args.regularizer == "all" else (args.regularizer,)
    opts = replace(_base_options(), qn_storage="limited", seed=args.seed)
    rows = []
    best = None
    for reg in regs:
        for lam, beta in _denoise_pairs(
                argparse.Namespace(**{**vars(args), "regularizer": reg})):
            problem = make_denoising(noisy, reg, lam, beta)
            start = time.process_time()
            report = run_solver(problem.oracle, problem.x0, opts)
            cpu = time.process_time() - start
            restored = round_to_image(report.x, noisy.n_r, noisy.n_c)
            err = mse(restored, clean) if clean is not None else float("nan")
            rows.append({"regularizer": reg, "lambda": f"{lam:g}",
                         "beta": f"{beta:g}", "mse": f"{err:g}",
                         "cpu": f"{cpu:.3f}"})
            if best is None or (err == err and err < best[0]):
                best = (err if err == err else float("inf"), restored)
    if args.out_image and best is not None:
        write_pgm(best[1], args.out_image)
    _emit(rows, ["regularizer", "lambda", "beta", "mse", "cpu"],
          args.out, args.table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nsopt",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run library problems")
    ps.add_argument("--names", required=True,
                    help="comma-separated problem names")
    ps.add_argument("--n", type=int, default=1000)
    ps.add_argument("--strategy", default="CP", help="comma list of CP,GC,G")
    ps.add_argument("--mode", choices=("speed", "accuracy"), default="speed")
    ps.add_argument("--options", help="options file (key = value lines)")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", help="write CSV here instead of stdout")
    ps.add_argument("--table", action="store_true",
                    help="fixed-width table instead of CSV")
    ps.set_defaults(func=cmd_solve)

    pq = sub.add_parser("qp-bench", help="compare the QP subproblem solvers")
    pq.add_argument("--n", default="20,40,80", help="comma list of sizes")
    pq.add_argument("--m-factors", default="n+1,2n",
                    help="comma list from n+1, 1.5n, 2n")
    pq.add_argument("--dcases", default="zero,half,full")
    pq.add_argument("--seeds", default=",".join(str(s) for s in range(10)))
    pq.add_argument("--solvers", default="das,ipm")
    pq.add_argument("--out")
    pq.add_argument("--table", action="store_true")
    pq.set_defaults(func=cmd_qp_bench)

    pd = sub.add_parser("denoise", help="salt-and-pepper denoising")
    pd.add_argument("--input", help="input PGM (default: synthetic image)")
    pd.add_argument("--rows", type=int, default=64)
    pd.add_argument("--cols", type=int, default=64)
    pd.add_argument("--regularizer", default="abs",
                    choices=REGULARIZERS + ("all",))
    pd.add_argument("--lam", type=float)
    pd.add_argument("--beta", type=float)
    pd.add_argument("--density", type=float, default=0.05)
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--noisy-in", action="store_true",
                    help="treat the input as already corrupted")
    pd.add_argument("--clean", help="clean reference PGM for MSE reporting")
    pd.add_argument("--sweep", help="lambda/beta exponent grid: i0,i1,j0,j1")
    pd.add_argument("--out-image", help="write the restored PGM here")
    pd.add_argument("--out")
    pd.add_argument("--table", action="store_true")
    pd.set_defaults(func=cmd_denoise)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
