import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

_METRICS = ("wall_s", "cpu_s", "solve_p50_s", "peak_rss_mb", "setup_s")


def _write(directory: Path, seed: int, wall: float, trace: int = 0):
    directory.mkdir(exist_ok=True)
    metrics = ({"qp_das.pivots": {"value": 7, "unit": "count"},
                "qp_das.self_s": {"value": wall, "unit": "s"}} if trace else
               {m: {"value": wall, "unit": "s"} for m in _METRICS})
    record = {"correct": True, "attempted": 10, "failed": 2, "metrics": metrics,
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


def test_no_common_workload_is_an_error(tmp_path):
    _write(tmp_path / "p", 0, 1.0)
    (tmp_path / "c").mkdir()
    with pytest.raises(SystemExit):
        bench_record.main(["--parent", str(tmp_path / "p"), "a",
                           "--change", str(tmp_path / "c"), "b",
                           "--out", str(tmp_path / "o.json")])
