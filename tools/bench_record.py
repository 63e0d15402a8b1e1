"""Summarize two sets of perfbench results into one BENCH_*.json record.

    python3 tools/bench_record.py --parent DIR COMMIT --change DIR COMMIT --out BENCH_N.json

Each DIR holds the result files that ``perfbench/run.py`` wrote under
``perfbench/out/results/`` for one side (a source tree's results directory
or a copy of it); COMMIT names the code that side ran.  For every workload
found on both sides the record gives, per side, the median and quartiles of
each end-to-end metric in BENCHMARK.json over the untraced runs, the failed
and attempted operations, the per-layer metrics of every traced run with
their medians, the BLAS thread settings and the library versions.  A traced
run's counts should repeat from run to run; ``counts_differ`` lists every
count that does not, with its value in each run.  Runs of the two sides with the
same ``--seed`` form a pair, and ``change_better`` counts the pairs in which
the change's value is better (ties count for neither side).

``verdict`` applies the rules for landing a change to each end-to-end
metric: ``claim_holds`` when the change wins at least 9 in 10 of at least
ten pairs and its median is better than the parent's by more than the
parent's interquartile range; ``within_bound`` when the change's median is
worse than the parent's by no more than the metric's bound in
BENCHMARK.json; ``unresolved`` when the parent's interquartile range is
wider than that bound and not every run of the change beats every run of
the parent.  ``failed_no_worse`` compares the shares of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
PAIR_SHARE = 0.9  # of the pairs the change must win to claim a gain


def load(directory: str) -> dict[str, dict[str, list[dict]]]:
    """Result records of a side, by workload and then "untraced"/"traced",
    in file-name (start time) order."""
    out = defaultdict(lambda: {"untraced": [], "traced": []})
    for file in sorted(Path(directory).glob("*.json")):
        with open(file) as fh:
            record = json.load(fh)
        out[record["workload"]]["traced" if record["trace"] else "untraced"].append(record)
    return out


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


def side_summary(runs: dict[str, list[dict]], commit: str, metrics: list[dict]) -> dict:
    untraced = runs["untraced"]
    summary = {
        "commit": commit,
        "runs": len(untraced),
        "seeds": [r["seed"] for r in untraced],
        "all_correct": all(r["correct"] for r in untraced),
        "failed": sum(r["failed"] for r in untraced),
        "attempted": sum(r["attempted"] for r in untraced),
        "end_to_end": {
            m["name"]: {"unit": m["unit"],
                        **quartiles([r["metrics"][m["name"]]["value"] for r in untraced])}
            for m in metrics},
        "blas_threads": untraced[0]["blas_threads"],
        "versions": untraced[0]["versions"],
        "cpu_model": untraced[0]["cpu_model"],
    }
    if runs["traced"]:
        summary["traced"] = traced_summary(runs["traced"])
    return summary


def traced_summary(traced: list[dict]) -> dict:
    """The traced runs of a side: per-layer medians, each run's values, and
    the counts that differ between runs."""
    values = defaultdict(list)
    for record in traced:
        for name, metric in record["metrics"].items():
            values[name].append(metric["value"])
    unit = {name: metric["unit"] for record in traced
            for name, metric in record["metrics"].items()}
    counts = {k: v for k, v in values.items() if unit[k] == "count"}
    times = {k: v for k, v in values.items() if unit[k] == "s"}
    return {
        "runs": len(traced),
        "correct": all(r["correct"] for r in traced),
        "failed": sum(r["failed"] for r in traced),
        "attempted": sum(r["attempted"] for r in traced),
        "rounds": [len(r["round_wall_s"]) for r in traced],
        "wall_s_per_round": statistics.median(r["traced_wall_s"] for r in traced),
        "wall_s_per_round_runs": [r["traced_wall_s"] for r in traced],
        "counts": {k: statistics.median(v) for k, v in counts.items()},
        "counts_differ": {k: v for k, v in counts.items() if len(set(v)) > 1},
        "self_s": {k: statistics.median(v) for k, v in times.items()},
        "self_s_runs": times,
    }


def pairs_won(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """Pairs (same seed on both sides) and, per metric, how many the change wins."""
    by_seed = {r["seed"]: r for r in parent}
    pairs = [(by_seed[r["seed"]], r) for r in change if r["seed"] in by_seed]
    won = {}
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "lower" else -1)
        won[name] = sum(1 for p, c in pairs
                        if sign * (c["metrics"][name]["value"] - p["metrics"][name]["value"]) < 0)
    return {"pairs": len(pairs), "change_better": won}


def verdict(parent: list[dict], change: list[dict], metrics: list[dict],
            won: dict) -> dict:
    """Per metric, the claim and the bound rules (see the module docstring);
    ``won`` is ``pairs_won``'s result for the same runs."""
    out = {}
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "lower" else -1)
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pq = quartiles(p)
        iqr = pq["q3"] - pq["q1"]
        gap = sign * (pq["median"] - statistics.median(c))  # > 0: change better
        worse = -gap / abs(pq["median"]) if pq["median"] else 0.0
        every_run_better = all(sign * (a - b) < 0 for a in c for b in p)
        out[name] = {
            "pairs_won": won["change_better"][name],
            "parent_iqr": iqr,
            "median_gap": gap,
            "change_worse_by": worse,
            "bound": m["bound"],
            "claim_holds": (won["pairs"] >= MIN_PAIRS
                            and won["change_better"][name] >= PAIR_SHARE * won["pairs"]
                            and gap > iqr),
            "within_bound": worse <= m["bound"],
            "unresolved": (iqr > m["bound"] * abs(pq["median"])
                           and not every_run_better),
        }
    share = [sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
             for runs in (parent, change)]
    return {"metrics": out, "failed_no_worse": share[1] <= share[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs=2, required=True, metavar=("DIR", "COMMIT"))
    parser.add_argument("--change", nargs=2, required=True, metavar=("DIR", "COMMIT"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]

    parent, change = load(args.parent[0]), load(args.change[0])
    workloads = {}
    for name in sorted(set(parent) & set(change)):
        p, c = parent[name]["untraced"], change[name]["untraced"]
        if not (p and c):
            continue
        won = pairs_won(p, c, metrics)
        workloads[name] = {
            "parent": side_summary(parent[name], args.parent[1], metrics),
            "change": side_summary(change[name], args.change[1], metrics),
            **won,
            "verdict": verdict(p, c, metrics, won),
        }
    if not workloads:
        raise SystemExit("no workload has untraced results on both sides")
    with open(args.out, "w") as fh:
        json.dump({"workloads": workloads}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
