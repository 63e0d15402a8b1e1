"""Criterion 5's solves under starting points that differ only in the last bit.

    python3 tools/rounding_variants.py [--src DIR] [--variants K] [--threads N]
                                       [--problem NAME ...] [--n N] [--no-large]

Variant 0 is the problem's own x0; variant k >= 1 scales each entry of x0 by
(1 + 2^-52 u_i), u uniform on [-1, 1] from ``numpy.random.default_rng(k)``,
which moves it by at most one unit in the last place.  For every variant the
tool runs criterion 5's solves with the ``nsopt`` package of the source tree
DIR (default: this one): each problem at n (default 100) in speed and in
accuracy mode, and MxHilb at n = 1000 in accuracy mode unless ``--no-large``.
It prints one line per solve and variant with the termination reason,
iterations and final f, one line per solve with the spread (max - min) of
final f over the variants, and criterion 5's comparison, f_accuracy <=
f_speed + 1e-12 (f <= 1e-4 for MxHilb at n = 1000), per variant.

The harness shows how much of a run's outcome rests on rounding.  It is not
for choosing a starting point or a seed on which a check happens to pass.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CONVEX = ("ChainedCB3_1", "ChainedCB3_2", "ChainedLQ", "ChainedCrescent_1",
          "MxHilb", "ActiveFaces")
SPEED = {"delta_f": 1e-5, "n_f": 10}
ACCURACY = {"delta_f": 1e-8, "n_f": 20}
LARGE = ("MxHilb", 1000, 1e-4)  # problem, n and f bound of the large solve


def variant_x0(x0, k: int):
    """x0 itself for k = 0, else x0 scaled by (1 + 2^-52 u), u ~ U[-1, 1]^n."""
    import numpy as np

    if k == 0:
        return x0.copy()
    u = np.random.default_rng(k).uniform(-1.0, 1.0, x0.size)
    return x0 * (1.0 + 2.0 ** -52 * u)


def solve(name: str, n: int, mode: dict, k: int) -> dict:
    from nsopt.options import SolverOptions
    from nsopt.problems import make_problem
    from nsopt.solver import run_solver

    prob = make_problem(name, n)
    rep = run_solver(prob.oracle, variant_x0(prob.x0, k), SolverOptions(**mode))
    return {"termination": rep.termination_reason, "iterations": rep.iterations,
            "f": rep.final_f_unscaled}


def run(problems, n: int, variants: int, large: bool = True) -> dict:
    """Every solve of every variant, and criterion 5's verdict per variant:
    {"solves": {label: [result per variant]}, "passes": [bool per variant]}."""
    solves, passes = {}, [True] * variants
    if large:
        name, n_large, bound = LARGE
        runs = [solve(name, n_large, ACCURACY, k) for k in range(variants)]
        solves[f"{name} n={n_large} accuracy"] = runs
        passes = [ok and r["f"] <= bound for ok, r in zip(passes, runs)]
    for name in problems:
        fast = [solve(name, n, SPEED, k) for k in range(variants)]
        accurate = [solve(name, n, ACCURACY, k) for k in range(variants)]
        solves[f"{name} n={n} speed"] = fast
        solves[f"{name} n={n} accuracy"] = accurate
        passes = [ok and a["f"] <= s["f"] + 1e-12
                  for ok, s, a in zip(passes, fast, accurate)]
    return {"solves": solves, "passes": passes}


def report(result: dict) -> list[str]:
    lines = []
    for label, runs in result["solves"].items():
        for k, r in enumerate(runs):
            lines.append(f"{label}  variant {k}: {r['termination']}, "
                         f"{r['iterations']} it, f = {r['f']:.10e}")
        fs = [r["f"] for r in runs]
        lines.append(f"{label}  spread of f: {max(fs) - min(fs):.3e}")
    lines += [f"criterion 5, variant {k}: {'PASS' if ok else 'FAIL'}"
              for k, ok in enumerate(result["passes"])]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(ROOT), help="root of a source tree")
    parser.add_argument("--variants", type=int, default=5)
    parser.add_argument("--threads", type=int)
    parser.add_argument("--problem", action="append", choices=CONVEX,
                        help="default: criterion 5's six problems")
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--no-large", action="store_true",
                        help="skip MxHilb at n = 1000")
    args = parser.parse_args(argv)
    if args.threads is not None:
        os.environ.update({name: str(args.threads) for name in THREAD_VARIABLES})
    sys.path.insert(0, str(Path(args.src).resolve() / "src"))
    result = run(args.problem or CONVEX, args.n, args.variants, not args.no_large)
    print("\n".join(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
