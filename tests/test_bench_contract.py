"""What the benchmark needs from the library.

``bench/tracing.py`` records the solver layers by replacing the functions
named in ``SOLVER_SPANS`` as attributes of ``stepopt.solver`` for the
length of a traced pass.  That works only while each name exists there and
``solve`` looks each one up as a module global at call time.

Its ``Recorder.problem`` traces ``G`` and ``G_batch`` by rebuilding an
instance through ``dataclasses.replace``, which passes every field of
``ProblemInstance`` back to its constructor.

``bench/workloads.py`` builds ``SolverConfig(s, gamma, max_it)``, reads
``tol_scale`` and ``s`` back, and builds and reads ``ActiveSet`` pairs.
One item of each kind of workload runs here through its run, check and
summary hooks, so a library change that breaks them fails in tier-1, not
only in the benchmark's own smoke test.
"""
import dataclasses
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np

import stepopt.solver
from stepopt.geometry import step_norm
from stepopt.problems import make_counterexample, make_norm_opt
from stepopt.solver import SolverConfig, gamma_for, solve

ROOT = Path(__file__).resolve().parents[1]


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered before it runs: its dataclasses look their module up there
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_bench("tracing")


def test_every_traced_name_is_a_function_of_the_solver_module():
    for attr in load_tracing().SOLVER_SPANS:
        assert callable(getattr(stepopt.solver, attr, None)), attr


def test_a_traced_solve_records_every_layer_and_gives_the_same_result():
    tracing = load_tracing()
    problem = make_norm_opt(10, 1, 100, b=14.0, seed=17)
    s = math.ceil(0.05 * 100)
    config = SolverConfig(s=s, gamma=gamma_for(0.05, s), max_it=20)
    plain = solve(problem, config)
    saved = {attr: getattr(stepopt.solver, attr) for attr in tracing.SOLVER_SPANS}

    rec = tracing.Recorder()
    with rec.patched(stepopt.solver):
        traced = solve(problem, config)
    assert {attr: getattr(stepopt.solver, attr) for attr in saved} == saved

    summary = rec.summary()
    for name in ("geometry.clamp_select", "stationarity.active_set", "stationarity.residual",
                 "solver.newton", "solver.line_search", "stationarity.check_tau"):
        assert summary.calls[name] >= 1, name
    iterations = len(plain.trace)
    assert summary.calls["solver.newton"] == iterations
    assert summary.calls["solver.line_search"] == iterations
    assert summary.calls["solver.fallback"] == summary.notes["solver.newton"].count(False)
    assert all(type(ok) is bool for ok in summary.notes["solver.newton"])
    assert [stalled for _, stalled in summary.notes["solver.line_search"]] == [
        rec.step == 0.0 for rec in plain.trace]

    assert traced.point.x.tobytes() == plain.point.x.tobytes()
    assert traced.point.W.tobytes() == plain.point.W.tobytes()
    assert (traced.status, traced.trace) == (plain.status, plain.trace)


def test_a_traced_problem_gives_the_same_values_and_one_span_per_call():
    rng = np.random.default_rng(3)
    for plain in (make_norm_opt(6, 2, 9, b=14.0, seed=5), make_counterexample()):
        rec = load_tracing().Recorder()
        traced = rec.problem(plain)
        assert type(traced) is type(plain)
        assert rec.problem(plain) is traced
        # every field but the two traced ones is carried over as it was
        for field in dataclasses.fields(plain):
            if field.name not in ("G", "G_batch"):
                assert getattr(traced, field.name) is getattr(plain, field.name), field.name
        X = rng.uniform(-2.0, 2.0, size=(3, plain.K))
        for x in X:
            assert traced.G(x).tobytes() == plain.G(x).tobytes()
        assert traced.G_batch(X).tobytes() == plain.G_batch(X).tobytes()
        summary = rec.summary()
        assert (summary.calls["problems.G"], summary.calls["problems.G_batch"]) == (len(X), 1)
        assert len(rec.spans) == len(X) + 1


def test_the_workloads_are_those_the_benchmark_declares():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert set(load_bench("workloads").WORKLOADS) == {w["name"] for w in declared}


def test_a_paper_solve_runs_through_the_workload_hooks():
    workloads = load_bench("workloads")
    api = workloads.plain_api()
    item = workloads._solve_item(make_norm_opt, 10, 1, 100, 14.0, 0.05, 17,
                                 max_it=workloads.PAPER_MAX_IT)
    assert item.config == SolverConfig(s=5, gamma=gamma_for(0.05, 5), max_it=workloads.PAPER_MAX_IT)
    res = workloads.run_solve(item, api)
    workloads.check_solve(item, res)
    assert workloads.summary_solve(item, res) == workloads.summary_solve(
        item, workloads.run_solve(item, api))
    converged, budget_ok, _ = workloads.quality_solve(item, res)
    assert converged == (res.status == "Converged")
    assert budget_ok == (step_norm(item.problem.G(res.point.x)) <= item.config.s)


def test_an_analysis_task_runs_through_the_workload_hooks(tmp_path):
    workloads = load_bench("workloads")
    analysis = workloads.WORKLOADS["analysis"]
    api = workloads.plain_api()
    task = analysis.build(4242, make_norm_opt, str(tmp_path / "model.lp"))[0]
    out = analysis.run(task, api)
    analysis.check(task, out)
    assert analysis.summary(task, out) == analysis.summary(task, analysis.run(task, api))
