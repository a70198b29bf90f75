"""What the traced benchmark needs from ``stepopt.solver``.

``bench/tracing.py`` records the solver layers by replacing the functions
named in ``SOLVER_SPANS`` as attributes of ``stepopt.solver`` for the
length of a traced pass.  That works only while each name exists there and
``solve`` looks each one up as a module global at call time.
"""
import importlib.util
import math
from pathlib import Path

import stepopt.solver
from stepopt.problems import make_norm_opt
from stepopt.solver import SolverConfig, gamma_for, solve

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
