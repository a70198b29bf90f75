"""CLI tests: exit codes, trace schema, determinism, subcommand output."""
import numpy as np
import pytest

import stepopt.cli as cli
from stepopt.cli import BENCH_HEADER, TRACE_HEADER, main
from stepopt.problems import make_norm_opt, save_samples
from stepopt.solver import SolverAbort, SolverConfig, gamma_for, solve

SOLVE_FLAGS = ["--K", "10", "--M", "1", "--N", "100", "--alpha", "0.05",
               "--b", "14.0", "--seed", "17"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -------------------------------------------------------------------- solve

def test_solve_summary_line(capsys):
    code, out, _ = run(capsys, ["solve", *SOLVE_FLAGS])
    assert code == 0
    assert out.startswith("status=Converged ")
    for key in ("objective=", "violations=", "residual=", "time_s=", "iterations="):
        assert key in out
    assert "violations=5" in out


def test_solve_trace_schema_and_length(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    code, _, _ = run(capsys, ["solve", *SOLVE_FLAGS, "--trace", str(trace)])
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert 2 <= len(lines) <= 2002
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[6] in ("newton", "fallback")
    float(first[1]), float(first[4])  # numeric columns parse


def test_solve_traces_are_byte_identical(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, ["solve", *SOLVE_FLAGS, "--trace", str(p1)])[0] == 0
    assert run(capsys, ["solve", *SOLVE_FLAGS, "--trace", str(p2)])[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_solve_preset_two_variable_instance(capsys):
    code, out, _ = run(capsys, ["solve", "--preset", "sec4-3"])
    assert code == 0
    assert "status=Converged" in out
    assert "objective=0.0" in out


def test_solve_from_sample_file(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    save_samples(make_norm_opt(4, 1, 20, b=14.0, seed=3), path)
    code, out, _ = run(capsys, ["solve", "--samples", str(path), "--b", "14.0",
                                "--alpha", "0.05"])
    assert code == 0
    assert "status=" in out


def test_solve_rejects_bad_flag_values(capsys):
    code, _, err = run(capsys, ["solve", "--tau", "-1.0"])
    assert code == 1
    assert "tau" in err


def test_solver_abort_maps_to_exit_2(capsys, monkeypatch):
    def boom(problem, config, start=None):
        raise SolverAbort("synthetic failure")

    monkeypatch.setattr(cli, "solve", boom)
    code, _, err = run(capsys, ["solve", *SOLVE_FLAGS])
    assert code == 2
    assert "synthetic failure" in err


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--nope", "1"])
    assert exc.value.code == 1


def test_missing_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


# ------------------------------------------------------------------- config

def test_config_file_sets_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=0.1  # overridden below\nb=14.0\nseed=17\n")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code, _, _ = run(capsys, ["solve", "--config", str(cfg), "--alpha", "0.05",
                              "--trace", str(p1)])
    assert code == 0
    assert run(capsys, ["solve", *SOLVE_FLAGS, "--trace", str(p2)])[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_config_malformed_line_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha 0.1\n")
    code, _, err = run(capsys, ["solve", "--config", str(cfg)])
    assert code == 1
    assert "key=value" in err


def test_config_missing_file_exits_1(capsys):
    code, _, err = run(capsys, ["solve", "--config", "/nonexistent/run.cfg"])
    assert code == 1
    assert "error" in err


# -------------------------------------------------------------------- check

def test_check_reports_the_separating_point(tmp_path, capsys):
    pt = tmp_path / "pt.txt"
    pt.write_text("1.0 1.0\n")
    code, out, _ = run(capsys, ["check", "--preset", "sec4-3",
                                "--point", str(pt), "--s", "1"])
    assert code == 0
    assert "KKT: violated (residual 2.0)" in out
    assert "BKKT: satisfied" in out
    assert "tau-stationary" in out


def test_check_accepts_solver_output(tmp_path, capsys):
    problem = make_norm_opt(10, 1, 100, b=14.0, seed=17)
    res = solve(problem, SolverConfig(s=5, gamma=gamma_for(0.05, 5)))
    lines = [" ".join(repr(float(v)) for v in res.point.x)]
    lines += [" ".join(repr(float(v)) for v in row) for row in res.point.W]
    pt = tmp_path / "pt.txt"
    pt.write_text("\n".join(lines) + "\n")

    code, out, _ = run(capsys, ["check", *SOLVE_FLAGS, "--point", str(pt),
                                "--tol", "1e-6"])
    assert code == 0
    assert "tau-stationary (tau=0.75): satisfied" in out


def test_check_rejects_wrong_point_length(tmp_path, capsys):
    pt = tmp_path / "pt.txt"
    pt.write_text("1.0 2.0 3.0\n")
    code, _, err = run(capsys, ["check", "--preset", "sec4-3", "--point", str(pt)])
    assert code == 1
    assert "expected 2" in err


def test_check_missing_point_file_exits_1(capsys):
    code, _, err = run(capsys, ["check", "--preset", "sec4-3",
                                "--point", "/nonexistent/pt.txt"])
    assert code == 1
    assert "error" in err


# ------------------------------------------------------------------- bounds

def test_bounds_prints_frozen_values(capsys):
    code, out, _ = run(capsys, ["bounds", "--alpha", "0.05", "--s", "5",
                                "--beta", "0.05", "--epsilon", "0.05"])
    assert code == 0
    assert "dkw sample size (epsilon=0.05, beta=0.05): 738" in out
    assert "3429 (simplified), 3426 (exact)" in out


def test_bounds_flags_vacuous_confidence(capsys):
    code, out, _ = run(capsys, ["bounds", "--nu", "0.99", "--alpha-star", "0.05",
                                "--N", "20"])
    assert code == 0
    assert "[vacuous (<0)]" in out


def test_bounds_without_flags_prints_help(capsys):
    code, out, _ = run(capsys, ["bounds"])
    assert code == 0
    assert "usage:" in out


def test_bounds_range_error_exits_1(capsys):
    code, _, err = run(capsys, ["bounds", "--alpha", "0.1", "--s", "6",
                                "--N", "50"])
    assert code == 1
    assert "s < alpha*N" in err


# -------------------------------------------------------------------- bench

def test_bench_csv_shape(tmp_path, capsys):
    out_file = tmp_path / "bench.csv"
    code, _, _ = run(capsys, ["bench", "--sweep", "K", "--values", "5,10",
                              "--trials", "2", "--N", "30", "--b", "14.0",
                              "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == BENCH_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("K,5,")
    assert lines[2].startswith("K,10,")
    assert all(len(line.split(",")) == 6 for line in lines[1:])


def test_bench_alpha_sweep_to_stdout(capsys):
    code, out, _ = run(capsys, ["bench", "--sweep", "alpha",
                                "--values", "0.05,0.1", "--trials", "2",
                                "--K", "5", "--N", "30", "--b", "14.0"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == BENCH_HEADER
    assert lines[1].startswith("alpha,0.05,")
    assert lines[2].startswith("alpha,0.1,")


def test_bench_rejects_bad_values_list(capsys):
    code, _, err = run(capsys, ["bench", "--sweep", "K", "--values", "abc",
                                "--trials", "1"])
    assert code == 1
    assert "comma list" in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_bench_rejects_fewer_than_one_trial(capsys, trials):
    code, out, err = run(capsys, ["bench", "--sweep", "K", "--values", "2",
                                  "--trials", trials])
    assert code == 1
    assert out == ""
    assert err == f"stepopt: error: --trials must be >= 1, got {trials}\n"


def test_bench_rejects_sample_file(capsys, tmp_path):
    path = tmp_path / "samples.csv"
    save_samples(make_norm_opt(2, 1, 4, b=5.0, seed=0), path)
    code, _, err = run(capsys, ["bench", "--sweep", "K", "--values", "2",
                                "--trials", "1", "--samples", str(path)])
    assert code == 1
    assert "not supported" in err


# --------------------------------------------------------------- export-bip

def test_export_bip_writes_deterministic_file(tmp_path, capsys):
    p1, p2 = tmp_path / "a.lp", tmp_path / "b.lp"
    flags = ["export-bip", "--K", "2", "--M", "1", "--N", "3", "--b", "5.0",
             "--seed", "4", "--s", "1"]
    assert run(capsys, [*flags, "--out", str(p1)])[0] == 0
    assert run(capsys, [*flags, "--out", str(p2)])[0] == 0
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.startswith("\\ mixed-binary reformulation")
    assert "Binary" in text


def test_export_bip_bad_directory_exits_1(capsys):
    code, _, err = run(capsys, ["export-bip", "--K", "2", "--N", "3",
                                "--out", "/nonexistent/dir/m.lp"])
    assert code == 1
    assert "error" in err
