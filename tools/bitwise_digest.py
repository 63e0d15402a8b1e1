"""One sha256 per benchmark operation, to show that two source trees take
bitwise the same path.

    python3 tools/bitwise_digest.py --src DIR [--against OTHER] [--threads N]
                                    [--counts] [--workload NAME ...]

Runs every operation of the benchmark's workloads once with the ``nsopt``
package and ``perfbench/workloads.py`` of the source tree DIR, which are
imported and never written.  For a ``run_solver`` operation the digest is
over the bytes of x and of ``f_history`` and over the iteration, f and g
evaluation counts; for a QP solve, over omega, gamma, d and u and the
iteration count.  Prints one ``<digest>  <workload>: <operation>`` line per
operation.  ``--threads`` sets the BLAS thread count before numpy loads
(default: the environment's).

With ``--against OTHER`` both trees are run, each in a process of its own,
and only the operations whose digests differ are printed, as
``<workload>: <operation>  <digest of DIR>  <digest of OTHER>`` (``-`` for
an operation that one tree lacks); the exit status is 1 if any differ.

``--counts`` appends what each digest was taken of, in numbers a reader can
compare: for a ``run_solver`` operation the termination reason, the
iterations, the f and g evaluations and the final f; for a QP solve the
iterations and the KKT residual.  With ``--against`` each digest of a
differing line is followed by its counts, so that a re-baseline can be
stated operation by operation.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cp-full-n1000", "gs-n200", "denoise-lm-64", "qp-n200")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def digest(out) -> str:
    import numpy as np

    h = hashlib.sha256()
    if hasattr(out, "f_history"):
        arrays = (out.x, np.asarray(out.f_history, dtype=float))
        counts = (out.iterations, out.function_evaluations, out.gradient_evaluations)
    else:
        arrays = (out.omega, out.gamma, out.d, np.array([out.u]))
        counts = (out.iterations,)
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    h.update(repr(counts).encode())
    return h.hexdigest()


def counts(out) -> str:
    """The numbers a digest was taken of, as ``key=value`` fields."""
    if hasattr(out, "f_history"):
        fields = {"termination": out.termination_reason,
                  "iterations": out.iterations,
                  "f_evals": out.function_evaluations,
                  "g_evals": out.gradient_evaluations,
                  "final_f": repr(float(out.final_f_unscaled))}
    else:
        fields = {"iterations": out.iterations,
                  "kkt_residual": repr(float(out.kkt_residual))}
    return " ".join(f"{key}={value}" for key, value in fields.items())


def run_tree(src: str, threads: int | None, workloads: list[str] | None,
             with_counts: bool = False) -> dict:
    """{"<workload>: <operation>": digest} for the tree ``src``, in the order
    run, from a process of its own; with ``with_counts`` each digest is
    followed by two spaces and its counts."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--src", src]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    if with_counts:
        cmd.append("--counts")
    for name in workloads or ():
        cmd += ["--workload", name]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    runs = {}
    for line in out.splitlines():
        digest, name, *rest = line.split("  ")
        runs[name] = "  ".join([digest, *rest])
    return runs


def differing(ours: dict, theirs: dict) -> list[str]:
    """One line per operation whose digests differ or that one side lacks.
    Only the digests are compared; a value's counts, if any, follow its
    digest on the line."""
    names = list(ours) + [name for name in theirs if name not in ours]
    lines = []
    for name in names:
        a, b = ours.get(name, "-"), theirs.get(name, "-")
        if a.split("  ", 1)[0] != b.split("  ", 1)[0]:
            lines.append(f"{name}  {a}  {b}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", required=True, help="root of a source tree")
    parser.add_argument("--against", help="root of a second source tree")
    parser.add_argument("--threads", type=int)
    parser.add_argument("--counts", action="store_true",
                        help="print what each digest was taken of")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="default: all four")
    args = parser.parse_args(argv)
    if args.against is not None:
        lines = differing(
            run_tree(args.src, args.threads, args.workload, args.counts),
            run_tree(args.against, args.threads, args.workload, args.counts))
        for line in lines:
            print(line)
        return 1 if lines else 0
    if args.threads is not None:
        os.environ.update({name: str(args.threads) for name in THREAD_VARIABLES})
    root = Path(args.src).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    for name in args.workload or WORKLOADS:
        for op in workloads.WORKLOADS[name]():
            out = op.run()
            line = f"{digest(out)}  {name}: {op.name}"
            print(f"{line}  {counts(out)}" if args.counts else line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
