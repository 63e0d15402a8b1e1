import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from nsopt.options import SolverOptions
from nsopt.problems import make_problem
from nsopt.qp_das import solve_das
from nsopt.qp_generator import generate_qp
from nsopt.solver import run_solver

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bitwise_digest.py"
_spec = importlib.util.spec_from_file_location("bitwise_digest", _PATH)
bitwise_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bitwise_digest)


def _report():
    prob = make_problem("ChainedLQ", 10)
    return run_solver(prob.oracle, prob.x0, SolverOptions(iteration_limit=20))


def _solution():
    return solve_das(generate_qp(6, 9, "full", 0).subproblem())


def _next_bit(a):
    """``a`` with its first entry moved to the next float up."""
    out = np.array(a, dtype=float)
    out[0] = np.nextafter(out[0], np.inf)
    return out


@pytest.mark.parametrize("make, array, counts", [
    (_report, "x", ("iterations", "function_evaluations",
                    "gradient_evaluations")),
    (_solution, "d", ("iterations",)),
], ids=["solver_report", "qp_solution"])
def test_digest_tells_one_count_or_one_bit_apart(make, array, counts):
    out = make()
    digest = bitwise_digest.digest(out)
    assert bitwise_digest.digest(make()) == digest
    assert bitwise_digest.digest(dataclasses.replace(out)) == digest
    variants = [dataclasses.replace(out, **{array: _next_bit(getattr(out, array))})]
    variants += [dataclasses.replace(out, **{name: getattr(out, name) + 1})
                 for name in counts]
    digests = {bitwise_digest.digest(v) for v in variants}
    assert digest not in digests and len(digests) == len(variants)


_FAKE_WORKLOADS = '''\
from types import SimpleNamespace

import numpy as np


def _op(name, d):
    out = SimpleNamespace(omega=np.ones(2), gamma=np.zeros(2),
                          d=np.array([d, 0.0]), u=0.0, iterations=3,
                          kkt_residual=d / 8)
    return SimpleNamespace(name=name, run=lambda: out)


WORKLOADS = {{"cp-full-n1000": lambda: [_op("a", 1.0), _op("b", {b})],
              "gs-n200": lambda: [], "denoise-lm-64": lambda: [],
              "qp-n200": lambda: [_op("c", 2.0)]}}
'''


def _fake_tree(root, b=1.0):
    """A source tree whose workloads return fixed QP solutions."""
    (root / "src" / "nsopt").mkdir(parents=True)
    (root / "perfbench").mkdir()
    (root / "perfbench" / "workloads.py").write_text(
        _FAKE_WORKLOADS.format(b=b))
    return str(root)


def test_against_prints_only_differing_operations(tmp_path, capsys):
    one = _fake_tree(tmp_path / "one")
    same = _fake_tree(tmp_path / "same")
    moved = _fake_tree(tmp_path / "moved", b=np.nextafter(1.0, 2.0))
    assert bitwise_digest.main(["--src", one, "--against", same]) == 0
    assert capsys.readouterr().out == ""
    assert bitwise_digest.main(["--src", one, "--against", moved,
                                "--threads", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cp-full-n1000: b  ")
    name, ours, theirs = lines[0].split("  ")
    assert ours != theirs and len(ours) == len(theirs) == 64
    digests = bitwise_digest.run_tree(one, None, ["cp-full-n1000"])
    assert list(digests) == ["cp-full-n1000: a", "cp-full-n1000: b"]
    assert digests[name] == ours


def test_differing_names_operations_one_side_lacks():
    ours = {"w: a": "1", "w: b": "2"}
    theirs = {"w: b": "2", "w: c": "3"}
    assert bitwise_digest.differing(ours, theirs) == ["w: a  1  -", "w: c  -  3"]
    assert bitwise_digest.differing(ours, dict(ours)) == []


def test_counts_give_what_each_digest_was_taken_of():
    report = _report()
    assert bitwise_digest.counts(report) == (
        f"termination={report.termination_reason} "
        f"iterations={report.iterations} "
        f"f_evals={report.function_evaluations} "
        f"g_evals={report.gradient_evaluations} "
        f"final_f={report.final_f_unscaled!r}")
    sol = _solution()
    assert bitwise_digest.counts(sol) == (
        f"iterations={sol.iterations} kkt_residual={sol.kkt_residual!r}")


def test_counts_follow_each_digest(tmp_path, capsys):
    one = _fake_tree(tmp_path / "one")
    moved = _fake_tree(tmp_path / "moved", b=2.0)
    plain = bitwise_digest.run_tree(one, None, ["cp-full-n1000"])
    counted = bitwise_digest.run_tree(one, None, ["cp-full-n1000"],
                                      with_counts=True)
    assert counted == {name: f"{digest}  iterations=3 kkt_residual=0.125"
                       for name, digest in plain.items()}
    assert bitwise_digest.main(["--src", one, "--against", moved,
                                "--counts"]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    name, ours, our_counts, theirs, their_counts = line.split("  ")
    assert name == "cp-full-n1000: b" and ours != theirs
    assert (our_counts, their_counts) == ("iterations=3 kkt_residual=0.125",
                                          "iterations=3 kkt_residual=0.25")
