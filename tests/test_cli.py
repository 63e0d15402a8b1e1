import csv
import io
import os
from types import SimpleNamespace

import numpy as np
import pytest

from nsopt import cli
from nsopt.cli import main
from nsopt.denoise import synthetic_image
from nsopt.pgm import read_pgm, write_pgm
from nsopt.qp_ipm import IpmError


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_solve_single_row_maxq(capsys):
    code, out = _run(["solve", "--names", "MaxQ", "--n", "100",
                      "--strategy", "CP", "--mode", "speed"], capsys)
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 1
    assert rows[0]["name"] == "MaxQ"
    assert rows[0]["dir"] == "CP"
    assert float(rows[0]["f"]) <= 5e-2


def test_solve_accuracy_not_worse_than_speed(capsys):
    _, out_s = _run(["solve", "--names", "MxHilb", "--n", "100",
                     "--strategy", "CP", "--mode", "speed"], capsys)
    _, out_a = _run(["solve", "--names", "MxHilb", "--n", "100",
                     "--strategy", "CP", "--mode", "accuracy"], capsys)
    f_speed = float(_rows(out_s)[0]["f"])
    f_acc = float(_rows(out_a)[0]["f"])
    assert f_acc <= f_speed + 1e-12


def test_solve_unknown_name_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["solve", "--names", "NoSuchProblem"])


def test_solve_unknown_strategy_token_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["solve", "--names", "MaxQ", "--strategy", "XX"])


def test_solve_csv_deterministic_modulo_cpu(capsys):
    argv = ["solve", "--names", "ChainedLQ,MaxQ", "--n", "50",
            "--strategy", "CP,G", "--seed", "3"]
    _, out1 = _run(argv, capsys)
    _, out2 = _run(argv, capsys)
    rows1, rows2 = _rows(out1), _rows(out2)
    assert len(rows1) == len(rows2) == 4
    for r1, r2 in zip(rows1, rows2):
        r1.pop("cpu"), r2.pop("cpu")
        assert r1 == r2


def test_solve_error_row_carries_type_and_message(capsys, monkeypatch):
    real_run_solver = cli.run_solver
    calls = []

    def failing_once(oracle, x0, opts):
        calls.append(opts.strategy)
        if len(calls) == 1:
            raise IpmError("no convergence in 200 iterations")
        return real_run_solver(oracle, x0, opts)

    monkeypatch.setattr(cli, "run_solver", failing_once)
    code, out = _run(["solve", "--names", "MaxQ", "--n", "20",
                      "--strategy", "CP,G"], capsys)
    assert code == 0
    rows = _rows(out)
    assert rows[0]["f"] == "error:IpmError: no convergence in 200 iterations"
    assert rows[0]["iters"] == "0"
    assert rows[1]["dir"] == "G" and float(rows[1]["f"]) <= 5e-2
    assert calls == ["cutting_plane", "gradient"]


def test_solve_options_file_and_env(capsys, tmp_path, monkeypatch):
    path = tmp_path / "opts.txt"
    path.write_text("SMLM_history = 5\n")
    monkeypatch.setenv("NONOPT_OPTIONS", str(path))
    code, out = _run(["solve", "--names", "MaxQ", "--n", "20",
                      "--strategy", "G"], capsys)
    assert code == 0
    assert len(_rows(out)) == 1
    monkeypatch.delenv("NONOPT_OPTIONS")


def test_solve_table_output(capsys):
    code, out = _run(["solve", "--names", "MaxQ", "--n", "20",
                      "--strategy", "G", "--table"], capsys)
    assert code == 0
    assert "," not in out.splitlines()[0]
    assert out.splitlines()[0].startswith("name")


def test_qp_bench_rows_and_certificates(capsys):
    code, out = _run(["qp-bench", "--n", "10", "--m-factors", "n+1,2n",
                      "--dcases", "zero,full", "--seeds", "0,1"], capsys)
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 2 * 2 * 2 * 2  # m-factors x dcases x seeds x solvers
    for row in rows:
        assert float(row["d_err"]) <= 1e-5
        assert float(row["kkt_residual"]) <= 1e-8
        # DAS pivots or IPM iterations
        assert row["iterations"].isdigit() and int(row["iterations"]) > 0
    shortcut_by_case = {r["dcase"]: r["shortcut"] for r in rows
                        if r["solver"] == "ipm"}
    assert shortcut_by_case["zero"] == "true"


def test_qp_bench_out_file(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    code, _ = _run(["qp-bench", "--n", "8", "--m-factors", "n+1",
                    "--dcases", "zero", "--seeds", "0",
                    "--out", str(path)], capsys)
    assert code == 0
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 2


def test_qp_bench_gives_each_solver_its_own_subproblem(monkeypatch, capsys):
    # W G and G'WG are cached on the subproblem on first use, so a shared
    # one would charge their cost to whichever solver runs first.
    seen = []

    def fake_solver(data, tol):
        seen.append(data)
        return SimpleNamespace(omega=np.full(data.m, 1.0 / data.m),
                               gamma=np.zeros(data.n), kkt_residual=0.0,
                               iterations=1, omega_only=False)

    monkeypatch.setattr(cli, "solve_das", fake_solver)
    monkeypatch.setattr(cli, "solve_ipm", fake_solver)
    code, _ = _run(["qp-bench", "--n", "6", "--m-factors", "n+1",
                    "--dcases", "zero", "--seeds", "0"], capsys)
    assert code == 0
    assert len(seen) == 2
    assert seen[0] is not seen[1]


def test_qp_bench_rejects_bad_solver(capsys):
    with pytest.raises(SystemExit):
        main(["qp-bench", "--solvers", "simplex"])


def test_denoise_synthetic_small(tmp_path, capsys):
    out_img = tmp_path / "restored.pgm"
    code, out = _run(["denoise", "--rows", "16", "--cols", "16",
                      "--regularizer", "hard", "--density", "0.05",
                      "--out-image", str(out_img)], capsys)
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 1
    assert float(rows[0]["mse"]) >= 0.0
    assert read_pgm(str(out_img)).pixels.shape == (16, 16)


def test_denoise_noisy_input_with_clean_reference(tmp_path, capsys):
    clean = synthetic_image(12, 12)
    clean_path = tmp_path / "clean.pgm"
    write_pgm(clean, str(clean_path))
    code, out = _run(["denoise", "--input", str(clean_path), "--noisy-in",
                      "--clean", str(clean_path), "--regularizer", "hard"],
                     capsys)
    assert code == 0
    assert len(_rows(out)) == 1
