import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_rounds.py"
_spec = importlib.util.spec_from_file_location("ab_rounds", _PATH)
ab_rounds = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_rounds)

_FAKE_WORKLOADS = '''\
import os
from types import SimpleNamespace


def _op(work):
    def run():
        return sum(i * i for i in range(work))
    return SimpleNamespace(name=str(work), run=run)


def _gs():
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    return [_op({work}), _op({work})]


WORKLOADS = {{"cp-full-n1000": lambda: [], "gs-n200": _gs,
              "denoise-lm-64": lambda: [], "qp-n200": lambda: []}}
'''


def _fake_tree(root, work):
    """A source tree whose gs-n200 round burns ``work`` squares twice."""
    (root / "src" / "nsopt").mkdir(parents=True)
    (root / "perfbench").mkdir()
    (root / "perfbench" / "workloads.py").write_text(_FAKE_WORKLOADS.format(work=work))
    return str(root)


def test_pairs_print_medians_and_ratios(tmp_path, capsys):
    parent = _fake_tree(tmp_path / "parent", 200_000)
    change = _fake_tree(tmp_path / "change", 20_000)
    assert ab_rounds.main(["--parent", parent, "--change", change,
                           "--workload", "gs-n200", "--pairs", "2",
                           "--rounds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["pair 1", "pair 2"]
    ratios = [float(line.rsplit(" ", 1)[1]) for line in lines[:2]]
    # a tenth of the work reads well below the parent in either start order
    assert all(0.0 < r < 0.7 for r in ratios)
    assert lines[2].startswith("median ratio ") and lines[2].endswith("over 2 pairs")


def test_one_side_reports_each_round(tmp_path):
    tree = _fake_tree(tmp_path / "tree", 1000)
    out = ab_rounds.run_pair([tree, tree], "gs-n200", 3)
    assert len(out) == 2 and all(len(times) == 3 for times in out)
    assert all(t >= 0.0 for times in out for t in times)
    json.dumps(out)


def test_both_trees_are_required(tmp_path):
    with pytest.raises(SystemExit):
        ab_rounds.main(["--parent", str(tmp_path), "--workload", "gs-n200"])
