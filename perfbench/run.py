"""Benchmark of nsopt, end to end or layer by layer, on one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree.  The workload runs in a fresh process
at one BLAS thread for whole rounds of its operations within ``--seconds``
(default: ``run_seconds`` in BENCHMARK.json; at least one round, two when
traced), and every output is checked.  With ``--trace 0`` its set-up is
timed again in a few more fresh processes.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  The full result, with every operation's times, is also
written under perfbench/out/results (and the spans of a traced run under
perfbench/out/traces); see perfbench/README.md.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("cp-full-n1000", "gs-n200", "denoise-lm-64", "qp-n200")
DEFAULT_SEED = 0
SETUP_RUNS = 8  # set-up-only processes; the measuring process adds one more
TIME_LIMIT_S = 170.0  # for the whole command
# One BLAS thread for numpy's and scipy's OpenBLAS alike, set before either loads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON line."""
    env = {**os.environ, **THREAD_ENV}
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="recorded with the result; the inputs are fixed")
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(ROOT / "BENCHMARK.json") as fh:
            args.seconds = float(json.load(fh)["run_seconds"])
    deadline = time.monotonic() + TIME_LIMIT_S

    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    common = ["--workload", args.workload, "--seconds", str(args.seconds)]
    setups = []
    if not args.trace:
        setups = [_worker(common + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_RUNS)]
    extra = []
    if args.trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        extra = ["--trace-file", str(OUT / "traces" / f"{stamp}.json")]
    result = _worker(common + ["--trace", str(args.trace)] + extra, deadline)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = {**line, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "setup_runs_s": setups, "blas_threads": THREAD_ENV,
              "cpu_model": _cpu_model(),
              **{k: v for k, v in result.items() if k not in line}}
    with open(OUT / "results" / f"{stamp}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for row in fh:
                if row.startswith("model name"):
                    return row.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
