"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py SET_A SET_B

Each set is a directory of result files written by run.py.  For every
workload in both sets and every end-to-end metric in BENCHMARK.json it
prints both medians, both interquartile ranges as a share of their
median, the change from A to B and whether the two medians agree within
the metric's bound.  It also compares the share of failed operations.
Traced results are skipped.
Exits with 1 if anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict[str, list[dict]]:
    """Untraced results of a set, by workload."""
    by_workload = defaultdict(list)
    for file in sorted(Path(directory).glob("*.json")):
        with open(file) as fh:
            record = json.load(fh)
        if not record.get("trace"):
            by_workload[record["workload"]].append(record)
    return by_workload


def spread(values: list[float]) -> tuple[float, float]:
    """Median, and the interquartile range as a share of it."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def compare(a: dict, b: dict, metrics: list[dict]) -> tuple[list[list[str]], bool]:
    rows, agree_all = [], True
    for workload in sorted(set(a) & set(b)):
        for metric in metrics:
            name = metric["name"]
            med_a, iqr_a = spread([r["metrics"][name]["value"] for r in a[workload]])
            med_b, iqr_b = spread([r["metrics"][name]["value"] for r in b[workload]])
            change = (med_b - med_a) / med_a
            worse = change if metric["better"] == "lower" else -change
            verdict = ("agree" if abs(change) <= metric["bound"]
                       else "worse" if worse > 0 else "better")
            agree_all = agree_all and verdict == "agree"
            rows.append([workload, name, f"{med_a:.4g}", f"{med_b:.4g}",
                         f"{iqr_a:.1%}", f"{iqr_b:.1%}", f"{change:+.1%}",
                         f"{metric['bound']:.0%}", verdict])
        shares = []
        for runs in (a[workload], b[workload]):
            shares.append(sorted({(r["failed"], r["attempted"]) for r in runs}))
        failed = [{f / n for f, n in s} for s in shares]
        same = len(failed[0]) == 1 and failed[0] == failed[1]
        agree_all = agree_all and same
        rows.append([workload, "failed/attempted",
                     " ".join(f"{f}/{n}" for f, n in shares[0]),
                     " ".join(f"{f}/{n}" for f, n in shares[1]),
                     "", "", "", "exact", "agree" if same else "differ"])
    return rows, agree_all


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("set_a")
    parser.add_argument("set_b")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]
    a, b = load(args.set_a), load(args.set_b)
    header = ["workload", "metric", "median A", "median B", "IQR A", "IQR B",
              "change", "bound", "verdict"]
    rows, agree_all = compare(a, b, metrics)
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    for workload in sorted(set(a) ^ set(b)):
        print(f"{workload}: in one set only")
    return 0 if agree_all else 1


if __name__ == "__main__":
    sys.exit(main())
