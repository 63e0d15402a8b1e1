"""One sha256 per benchmark operation, to show that two source trees take
bitwise the same path.

    python3 tools/bitwise_digest.py --src DIR [--against OTHER] [--threads N]
                                    [--workload NAME ...]

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


def run_tree(src: str, threads: int | None, workloads: list[str] | None) -> dict:
    """{"<workload>: <operation>": digest} for the tree ``src``, in the order
    run, from a process of its own."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--src", src]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    for name in workloads or ():
        cmd += ["--workload", name]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    return {name: digest for digest, name in
            (line.split("  ", 1) for line in out.splitlines())}


def differing(ours: dict, theirs: dict) -> list[str]:
    """One line per operation whose digests differ or that one side lacks."""
    names = list(ours) + [name for name in theirs if name not in ours]
    return [f"{name}  {ours.get(name, '-')}  {theirs.get(name, '-')}"
            for name in names if ours.get(name) != theirs.get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", required=True, help="root of a source tree")
    parser.add_argument("--against", help="root of a second source tree")
    parser.add_argument("--threads", type=int)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="default: all four")
    args = parser.parse_args(argv)
    if args.against is not None:
        lines = differing(run_tree(args.src, args.threads, args.workload),
                          run_tree(args.against, args.threads, args.workload))
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
            print(f"{digest(op.run())}  {name}: {op.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
