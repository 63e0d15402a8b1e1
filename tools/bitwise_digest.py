"""One sha256 per benchmark operation, to show that two source trees take
bitwise the same path.

    python3 tools/bitwise_digest.py --src DIR [--threads N] [--workload NAME ...]

Runs every operation of the benchmark's workloads once with the ``nsopt``
package and ``perfbench/workloads.py`` of the source tree DIR, which are
imported and never written.  For a ``run_solver`` operation the digest is
over the bytes of x and of ``f_history`` and over the iteration, f and g
evaluation counts; for a QP solve, over omega, gamma, d and u and the
iteration count.  Prints one ``<digest>  <workload>: <operation>`` line per
operation, so the outputs of two trees can be compared with ``diff``.
``--threads`` sets the BLAS thread count before numpy loads (default: the
environment's).
"""

from __future__ import annotations

import argparse
import hashlib
import os
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", required=True, help="root of a source tree")
    parser.add_argument("--threads", type=int)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="default: all four")
    args = parser.parse_args(argv)
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
