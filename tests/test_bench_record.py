import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

_METRICS = ("wall_s", "cpu_s", "solve_p50_s", "peak_rss_mb", "setup_s")


def _write(directory: Path, seed: int, wall: float, trace: int = 0,
           failed: int = 2, pivots: int = 7, **values):
    """A result file whose end-to-end metrics all read ``wall`` except
    those given in ``values``; a traced one reads ``pivots`` pivots and
    ``wall`` as the DAS self time."""
    directory.mkdir(exist_ok=True)
    metrics = ({"qp_das.pivots": {"value": pivots, "unit": "count"},
                "qp_das.self_s": {"value": wall, "unit": "s"}} if trace else
               {m: {"value": values.get(m, wall), "unit": "s"} for m in _METRICS})
    record = {"correct": True, "attempted": 10, "failed": failed, "metrics": metrics,
              "workload": "qp-n200", "seed": seed, "trace": trace,
              "blas_threads": {"OPENBLAS_NUM_THREADS": "1"},
              "versions": {"numpy": "x"}, "cpu_model": "cpu",
              "round_wall_s": [wall, wall], "traced_wall_s": wall}
    with open(directory / f"qp-n200-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh)


def test_medians_quartiles_pairs_and_trace(tmp_path):
    for seed, (p, c) in enumerate([(4.0, 2.0), (5.0, 2.5), (6.0, 7.0), (8.0, 3.0)]):
        _write(tmp_path / "p", seed, p)
        _write(tmp_path / "c", seed, c)
    _write(tmp_path / "c", 0, 1.5, trace=1)
    out = tmp_path / "BENCH.json"
    bench_record.main(["--parent", str(tmp_path / "p"), "abc",
                       "--change", str(tmp_path / "c"), "def", "--out", str(out)])
    w = json.loads(out.read_text())["workloads"]["qp-n200"]
    assert w["pairs"] == 4 and w["change_better"]["wall_s"] == 3
    parent = w["parent"]
    assert parent["commit"] == "abc" and parent["runs"] == 4
    assert parent["failed"] == 8 and parent["attempted"] == 40
    assert parent["end_to_end"]["wall_s"]["median"] == pytest.approx(5.5)
    assert parent["end_to_end"]["wall_s"]["q1"] <= 5.5 <= parent["end_to_end"]["wall_s"]["q3"]
    assert "traced" not in parent
    traced = w["change"]["traced"]
    assert traced["counts"] == {"qp_das.pivots": 7}
    assert traced["self_s"] == {"qp_das.self_s": 1.5}
    assert traced["runs"] == 1 and traced["counts_differ"] == {}


def test_every_traced_run_is_kept_with_medians_and_differing_counts(tmp_path):
    for seed in range(2):
        _write(tmp_path / "p", seed, 4.0)
        _write(tmp_path / "c", seed, 2.0)
    for seed, (wall, pivots) in enumerate([(1.0, 7), (3.0, 7), (2.5, 7)]):
        _write(tmp_path / "p", seed, wall, trace=1, pivots=pivots)
    for seed, (wall, pivots) in enumerate([(1.0, 7), (2.0, 9)]):
        _write(tmp_path / "c", seed, wall, trace=1, pivots=pivots)
    out = tmp_path / "BENCH.json"
    bench_record.main(["--parent", str(tmp_path / "p"), "abc",
                       "--change", str(tmp_path / "c"), "def", "--out", str(out)])
    w = json.loads(out.read_text())["workloads"]["qp-n200"]
    parent, change = w["parent"]["traced"], w["change"]["traced"]
    assert parent["runs"] == 3 and change["runs"] == 2
    assert parent["self_s"] == {"qp_das.self_s": 2.5}
    assert parent["self_s_runs"] == {"qp_das.self_s": [1.0, 3.0, 2.5]}
    assert parent["wall_s_per_round"] == 2.5
    assert parent["counts"] == {"qp_das.pivots": 7}
    assert parent["counts_differ"] == {}
    assert change["self_s"] == {"qp_das.self_s": 1.5}
    assert change["counts"] == {"qp_das.pivots": 8}
    assert change["counts_differ"] == {"qp_das.pivots": [7, 9]}
    assert change["failed"] == 4 and change["attempted"] == 20


def test_verdict_claim_bound_and_spread(tmp_path):
    # Ten pairs.  wall_s: the change wins 9 and its median is 1.45 lower, more
    # than the parent's IQR.  cpu_s: the change is 10% worse, within the 25%
    # bound.  solve_p50_s: 40% worse.  peak_rss_mb: the parent spreads wider
    # than the 10% bound.  setup_s: equal, so no pair is won.
    parent_wall = [5.0, 5.2, 4.9, 5.1, 5.3, 5.0, 4.8, 5.2, 5.1, 5.0]
    for seed, wall in enumerate(parent_wall):
        change_wall = 5.5 if seed == 0 else wall - 1.5
        _write(tmp_path / "p", seed, 1.0, wall_s=wall, cpu_s=2.0, solve_p50_s=1.0,
               peak_rss_mb=50.0 + 10 * (seed % 2))
        _write(tmp_path / "c", seed, 1.0, wall_s=change_wall, cpu_s=2.2,
               solve_p50_s=1.4, peak_rss_mb=55.0, failed=3 if seed == 9 else 2)
    out = tmp_path / "BENCH.json"
    bench_record.main(["--parent", str(tmp_path / "p"), "abc",
                       "--change", str(tmp_path / "c"), "def", "--out", str(out)])
    v = json.loads(out.read_text())["workloads"]["qp-n200"]["verdict"]
    wall, cpu, p50 = v["metrics"]["wall_s"], v["metrics"]["cpu_s"], v["metrics"]["solve_p50_s"]
    assert wall["pairs_won"] == 9 and wall["claim_holds"] and wall["within_bound"]
    assert wall["median_gap"] == pytest.approx(5.05 - 3.6)
    assert 0 < wall["parent_iqr"] < 1.5 and not wall["unresolved"]
    assert cpu["pairs_won"] == 0 and not cpu["claim_holds"]
    assert cpu["change_worse_by"] == pytest.approx(0.1) and cpu["within_bound"]
    assert p50["change_worse_by"] == pytest.approx(0.4) and not p50["within_bound"]
    assert v["metrics"]["peak_rss_mb"]["unresolved"]
    assert v["metrics"]["setup_s"]["pairs_won"] == 0
    assert not v["metrics"]["setup_s"]["claim_holds"]
    assert v["metrics"]["setup_s"]["within_bound"]
    assert not v["failed_no_worse"]  # 21 of 100 failed against 20 of 100


def test_no_claim_from_fewer_than_ten_pairs(tmp_path):
    for seed in range(9):
        _write(tmp_path / "p", seed, 5.0 + 0.01 * seed)
        _write(tmp_path / "c", seed, 1.0)
    out = tmp_path / "BENCH.json"
    bench_record.main(["--parent", str(tmp_path / "p"), "a",
                       "--change", str(tmp_path / "c"), "b", "--out", str(out)])
    v = json.loads(out.read_text())["workloads"]["qp-n200"]["verdict"]
    assert v["metrics"]["wall_s"]["pairs_won"] == 9
    assert not v["metrics"]["wall_s"]["claim_holds"]
    assert v["failed_no_worse"]


def test_no_common_workload_is_an_error(tmp_path):
    _write(tmp_path / "p", 0, 1.0)
    (tmp_path / "c").mkdir()
    with pytest.raises(SystemExit):
        bench_record.main(["--parent", str(tmp_path / "p"), "a",
                           "--change", str(tmp_path / "c"), "b",
                           "--out", str(tmp_path / "o.json")])
