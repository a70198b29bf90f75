"""CLI tests: exit codes, trace schema, determinism, subcommand output."""
import dataclasses

import numpy as np
import pytest

import stepopt.cli as cli
from stepopt.baselines import export_bip
from stepopt.cli import BENCH_HEADER, TRACE_HEADER, build_parser, main, write_trace
from stepopt.geometry import step_norm
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
    # appended last: the count of columns strictly above zero, which the
    # budget s bounds, at the point the same solve returns
    problem = make_norm_opt(10, 1, 100, b=14.0, seed=17)
    x = solve(problem, SolverConfig(s=5, gamma=gamma_for(0.05, 5))).point.x
    assert out.split()[-1] == f"strict_violations={step_norm(problem.G(x))}"


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
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--tau", "-1.0"])
    assert exc.value.code == 1
    assert "tau" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "bench"])
@pytest.mark.parametrize("flag,value", [
    ("--tau", "inf"), ("--tau", "nan"), ("--gamma", "inf"), ("--gamma", "0"),
    ("--tol-scale", "inf"), ("--tol-scale", "nan")])
def test_solver_flags_must_be_positive_and_finite(command, flag, value, capsys):
    # rejected while parsing, before any solve: --tol-scale inf converged
    # at once, --gamma inf lifted the cap and --tau inf aborted the solver
    bench = ["--sweep", "K", "--values", "2", "--trials", "1"] if command == "bench" else []
    with pytest.raises(SystemExit) as exc:
        main([command, *SOLVE_FLAGS, *bench, flag, value])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and f"argument {flag}: must be positive and finite, got {value}" in err


@pytest.mark.parametrize("flags,message", [
    (["--b", "inf"], "threshold b must be positive and finite, got inf"),
    (["--lambda1", "inf"], "lambda1 must be finite, got inf"),
    (["--lambda2", "nan"], "lambda2 must be finite, got nan"),
    (["--alpha", "nan"], "--alpha must be in (0, 1), got nan")])
def test_solve_rejects_non_finite_instance_flags(flags, message, capsys):
    code, out, err = run(capsys, ["solve", *SOLVE_FLAGS, *flags])
    assert code == 1
    assert out == "" and err == f"stepopt: error: {message}\n"


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


# the smoothing schedule and the backtracking are constants of the solver
@pytest.mark.parametrize("flag", ["--rho", "--mu-bar", "--nu", "--pi", "--t-max"])
@pytest.mark.parametrize("command", [["solve"], ["bench", "--sweep", "K", "--values", "2"]],
                         ids=["solve", "bench"])
def test_solver_constants_are_not_flags(flag, command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, flag, "0.5"])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err


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


def test_config_with_a_removed_knob_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("b=14.0\nt_max=10\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", str(cfg)])
    assert exc.value.code == 1
    assert "unrecognized arguments: --t-max 10" in capsys.readouterr().err


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


@pytest.mark.parametrize("with_W", [True, False])
@pytest.mark.parametrize("preset", [True, False])
def test_check_passes_its_G_to_the_tau_check(preset, with_W, tmp_path, capsys, monkeypatch):
    # check evaluates G(x) once for y and the tau check; a tau check that
    # evaluates G itself, as the library's does without Z, prints the same
    # bytes with one more call of G
    if preset:
        flags = ["--preset", "sec4-3", "--s", "1"]
        x, W = np.array([1.0, 1.0]), np.array([[1.0, 1.0]])
    else:
        flags = [*SOLVE_FLAGS, "--tol", "1e-6"]
        res = solve(make_norm_opt(10, 1, 100, b=14.0, seed=17),
                    SolverConfig(s=5, gamma=gamma_for(0.05, 5)))
        x, W = res.point.x, res.point.W
    lines = [" ".join(repr(float(v)) for v in x)]
    lines += [" ".join(repr(float(v)) for v in row) for row in W] if with_W else []
    pt = tmp_path / "pt.txt"
    pt.write_text("\n".join(lines) + "\n")

    calls = [0]
    build = cli.build_instance

    def counted_instance(args):
        problem = build(args)
        G = problem.G

        def counted(x):
            calls[0] += 1
            return G(x)

        return dataclasses.replace(problem, G=counted)

    monkeypatch.setattr(cli, "build_instance", counted_instance)
    outputs = []
    for evaluates in (False, True):
        if evaluates:
            plain = cli.check_tau_stationary
            monkeypatch.setattr(cli, "check_tau_stationary",
                                lambda *args, Z=None, **kwargs: plain(*args, **kwargs))
        calls[0] = 0
        code, out, err = run(capsys, ["check", *flags, "--point", str(pt)])
        assert code == 0 and err == ""
        outputs.append((out, calls[0]))
    (out, calls_once), (out_plain, calls_plain) = outputs
    assert out == out_plain and "tau-stationary" in out
    assert calls_once == calls_plain - 1


@pytest.mark.parametrize("flags,message", [
    (["--tau", "0"], "argument --tau: must be positive and finite, got 0"),
    (["--tau", "-0.5"], "argument --tau: must be positive and finite, got -0.5"),
    (["--tau", "nan"], "argument --tau: must be positive and finite, got nan"),
    (["--tau", "inf"], "argument --tau: must be positive and finite, got inf"),
    (["--tol=-1e-9"], "argument --tol: must be >= 0, got -1e-9"),
    (["--tol", "nan"], "argument --tol: must be >= 0, got nan"),
])
def test_check_rejects_bad_tau_and_tol_before_any_output(flags, message, tmp_path, capsys):
    # the verdicts would come first and then the library's own error, which
    # for --tol names ztol, a flag the command does not have, and for an
    # infinite --tau blames the constraint values
    pt = tmp_path / "pt.txt"
    pt.write_text("1.0 1.0\n")
    with pytest.raises(SystemExit) as exc:
        main(["check", "--preset", "sec4-3", "--point", str(pt), "--s", "1", *flags])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and message in err and "ztol" not in err


def test_check_accepts_a_zero_tol(tmp_path, capsys):
    pt = tmp_path / "pt.txt"
    pt.write_text("1.0 1.0\n")
    code, out, _ = run(capsys, ["check", "--preset", "sec4-3", "--point", str(pt),
                                "--s", "1", "--tol", "0", "--tau", "1e-300"])
    assert code == 0 and "tau-stationary (tau=1e-300, " in out


def test_check_rejects_wrong_point_length(tmp_path, capsys):
    pt = tmp_path / "pt.txt"
    pt.write_text("1.0 2.0 3.0\n")
    code, _, err = run(capsys, ["check", "--preset", "sec4-3", "--point", str(pt)])
    assert code == 1
    assert "expected 2" in err


@pytest.mark.parametrize("lines,bad", [
    (["nan 1.0"], 1),
    (["1.0 -inf"], 1),
    (["1.0 1.0", "# multipliers", "0.5 nan"], 3),
])
def test_check_rejects_a_non_finite_point_before_any_verdict(tmp_path, capsys, lines, bad):
    pt = tmp_path / "pt.txt"
    pt.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, ["check", "--preset", "sec4-3", "--point", str(pt)])
    assert code == 1
    assert out == ""
    assert err == f"stepopt: error: {pt}: line {bad}: non-finite value\n"


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


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-5"])
def test_export_bip_big_m_must_be_positive_and_finite(value, tmp_path, capsys):
    # rejected while parsing: --big-M inf wrote rows ending "+ inf y1 <= inf"
    out = tmp_path / "m.lp"
    with pytest.raises(SystemExit) as exc:
        main(["export-bip", "--K", "2", "--M", "1", "--N", "3", "--big-M", value,
              "--out", str(out)])
    assert exc.value.code == 1
    assert f"argument --big-M: must be positive and finite, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_export_bip_big_m_whose_sum_with_b_overflows_exits_1(tmp_path, capsys):
    out = tmp_path / "m.lp"
    code, stdout, err = run(capsys, ["export-bip", "--K", "2", "--M", "1", "--N", "3",
                                     "--b", "1e300", "--big-M", "1.7976931348623157e308",
                                     "--out", str(out)])
    assert code == 1
    assert stdout == "" and "big_M" in err and not out.exists()


# ----------------------------------------------------------------- defaults

# the flags that stand for a library argument with a default of its own
SOLVER = [f.name for f in dataclasses.fields(SolverConfig)]
WEIGHTS = ["b", "lambda1", "lambda2"]
LIBRARY_FLAGS = {
    "solve": ([], SOLVER + WEIGHTS),
    "bench": (["--sweep", "K", "--values", "2"], SOLVER + WEIGHTS),
    "export-bip": (["--out", "m.lp"], ["s"] + WEIGHTS + ["big_M"]),
}


@pytest.mark.parametrize("command", LIBRARY_FLAGS)
def test_library_flags_have_no_default_of_their_own(command):
    required, names = LIBRARY_FLAGS[command]
    parser = build_parser()
    # a flag that is not given is not set, so the library's default applies
    assert not set(names) & set(vars(parser.parse_args([command, *required])))
    for name in names:
        flag = "--big-M" if name == "big_M" else "--" + name.replace("_", "-")
        assert getattr(parser.parse_args([command, *required, flag, "3"]), name) == 3


def test_check_tau_defaults_to_the_solver_tau():
    args = build_parser().parse_args(["check", "--point", "p.txt"])
    assert args.tau == SolverConfig.tau and not hasattr(args, "s")


@pytest.mark.parametrize("flags,weights", [([], {}), (["--b", "14.0", "--seed", "17"],
                                                      {"b": 14.0, "seed": 17})])
def test_default_solve_trace_is_the_library_default_solve(flags, weights, tmp_path, capsys):
    # at the default b = 100 no column ever violates; at b = 14 the solve
    # takes Newton steps that every solver default shapes
    cli_trace, lib_trace = tmp_path / "cli.csv", tmp_path / "lib.csv"
    assert run(capsys, ["solve", *flags, "--trace", str(cli_trace)])[0] == 0
    res = solve(make_norm_opt(10, 1, 100, **weights), SolverConfig(s=5, gamma=gamma_for(0.05, 5)))
    write_trace(lib_trace, res.trace)
    assert cli_trace.read_bytes() == lib_trace.read_bytes()


def test_default_export_bip_is_the_library_default_export(tmp_path, capsys):
    cli_lp, lib_lp = tmp_path / "cli.lp", tmp_path / "lib.lp"
    assert run(capsys, ["export-bip", "--out", str(cli_lp)])[0] == 0
    export_bip(make_norm_opt(10, 1, 100, seed=0), 5, lib_lp)
    assert cli_lp.read_bytes() == lib_lp.read_bytes()


def test_export_bip_rejects_config(tmp_path, capsys):
    # only solve and bench declare --config; other subcommands leave it to
    # the parser, which names it rather than the solver keys in the file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau=0.5\nmax_it=40\n")
    out = tmp_path / "m.lp"
    with pytest.raises(SystemExit) as exc:
        main(["export-bip", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"unrecognized arguments: --config {cfg}" in err
    assert "--tau" not in err and not out.exists()


def test_second_config_exits_1(tmp_path, capsys):
    first, second = tmp_path / "a.cfg", tmp_path / "b.cfg"
    first.write_text("b=14.0\n")
    second.write_text("seed=17\n")
    code, out, err = run(capsys, ["solve", "--config", str(first), "--config", str(second)])
    assert code == 1 and out == ""
    assert "--config may be given only once" in err


@pytest.mark.parametrize("form", [["--config={}"], ["--conf", "{}"]])
def test_config_not_given_in_full_exits_1(form, tmp_path, capsys):
    # forms the parser accepts but that are not inlined are not ignored
    cfg = tmp_path / "run.cfg"
    cfg.write_text("b=14.0\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", *[part.format(cfg) for part in form]])
    assert exc.value.code == 1
    assert "give --config FILE as two words, in full" in capsys.readouterr().err
