"""A/B of whole benchmark rounds from two source trees, run side by side.

    python3 tools/ab_rounds.py --parent DIR --change DIR --workload NAME
                               [--pairs N] [--rounds R]

Runs N pairs of processes.  The two processes of a pair, one per source
tree, run at the same time, each at one BLAS thread, so that both see the
same state of the host: drift in the speed of a shared machine moves both
sides of a pair alike, where runs taken one after the other can differ by
more than a change's effect.  Each process imports the ``nsopt`` package and
``perfbench/workloads.py`` of its tree (read, never written), runs R whole
rounds of the workload's operations and measures each round's process CPU
time.  The tree that starts first alternates between pairs.

Prints one line per pair with the median round CPU time of each side and
their ratio (change / parent), then the median of those ratios.  Two pairs
at a time need two free cores.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("cp-full-n1000", "gs-n200", "denoise-lm-64", "qp-n200")
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def rounds_cpu(src: str, workload: str, rounds: int) -> list[float]:
    """Process CPU seconds of each of ``rounds`` rounds of ``workload`` from
    the tree ``src``, run in this process."""
    root = Path(src).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    ops = workloads.WORKLOADS[workload]()
    times = []
    for _ in range(rounds):
        start = time.process_time()
        for op in ops:
            op.run()
        times.append(time.process_time() - start)
    return times


def run_pair(trees: list[str], workload: str, rounds: int) -> list[list[float]]:
    """Round CPU times of each tree, from processes running at the same time."""
    env = {**os.environ, **ONE_THREAD}
    procs = [subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                               "--run", tree, "--workload", workload,
                               "--rounds", str(rounds)],
                              stdout=subprocess.PIPE, text=True, env=env)
             for tree in trees]
    outs = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        raise SystemExit("a round process failed")
    return [json.loads(out.splitlines()[-1]) for out in outs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="root of the first source tree")
    parser.add_argument("--change", help="root of the second source tree")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--run", help=argparse.SUPPRESS)  # one side's process
    args = parser.parse_args(argv)
    if args.run is not None:
        print(json.dumps(rounds_cpu(args.run, args.workload, args.rounds)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    ratios = []
    for pair in range(args.pairs):
        order = -1 if pair % 2 else 1  # odd pairs start the change first
        trees = [args.parent, args.change][::order]
        times = run_pair(trees, args.workload, args.rounds)[::order]
        parent, change = (statistics.median(t) for t in times)
        ratios.append(change / parent)
        print(f"pair {pair + 1}: parent {parent:.3f} s  change {change:.3f} s  "
              f"ratio {ratios[-1]:.3f}", flush=True)
    print(f"median ratio {statistics.median(ratios):.3f} over {len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
