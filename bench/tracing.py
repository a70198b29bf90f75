"""In-memory span recorder for the traced benchmark run.

Nothing inside ``stepopt`` is instrumented.  The recorder wraps the public
functions of each layer from the outside: solver helpers are replaced as
attributes of ``stepopt.solver`` for the duration of a traced pass, the
problem's ``G`` is swapped in through ``dataclasses.replace``, and the
analysis calls are wrapped where the benchmark calls them.  Each span keeps
its name, start, end, parent span and operation id; per-layer numbers are
computed from the spans once the run ends.
"""
from __future__ import annotations

import csv
import dataclasses
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

# functions of stepopt.solver that solve() looks up as module globals,
# with the span name each one records under
SOLVER_SPANS = {
    "select_candidate_columns": "geometry.clamp_select",
    "newton_direction": "solver.newton",
    "fallback_direction": "solver.fallback",
    "feasibility_line_search": "solver.line_search",
    "active_set": "stationarity.active_set",
    "stationarity_residual": "stationarity.residual",
    "check_tau_stationary": "stationarity.check_tau",
}

# what each wrapped call keeps from its arguments or return value, so that
# counts are read where the work happens and need no change to the program
NOTES = {
    "solver.newton": lambda args, out: out[1],            # solvable?
    "solver.line_search": lambda args, out: (out[0], out[2]),  # (t, stalled)
    "geometry.project_step": lambda args, out: len(out),  # minimizers returned
    "problems.draw": lambda args, out: args[1],           # scenarios drawn
    "baselines.export_bip": lambda args, out: os.path.getsize(out),  # bytes written
}

NAME, START, END, PARENT, OP, NOTE = range(6)


class Recorder:
    """Collects spans in memory; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._problems: dict[int, object] = {}
        self.op = -1

    def wrap(self, name, fn):
        """Return fn recording one span per call under ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, out)
            return out

        return traced

    def problem(self, problem):
        """The same instance with its G (and batch G, if any) traced."""
        key = id(problem)
        if key not in self._problems:
            changes = {"G": self.wrap("problems.G", problem.G)}
            if problem.G_batch is not None:
                changes["G_batch"] = self.wrap("problems.G_batch", problem.G_batch)
            # the original stays referenced so that its id is not reused
            self._problems[key] = (problem, dataclasses.replace(problem, **changes))
        return self._problems[key][1]

    def api(self, plain, spans: dict):
        """Copy of the namespace ``plain`` whose functions record spans.

        ``spans`` maps attribute names to span names; ``problem`` and
        ``draw`` return traced versions of an instance and of a sampler.
        """
        traced = SimpleNamespace(**vars(plain))
        for attr, name in spans.items():
            setattr(traced, attr, self.wrap(name, getattr(plain, attr)))
        traced.problem = self.problem
        traced.draw = lambda draw: self.wrap("problems.draw", draw)
        return traced

    @contextmanager
    def patched(self, module):
        """Replace the solver helpers of ``module`` with traced wrappers."""
        saved = {attr: getattr(module, attr) for attr in SOLVER_SPANS}
        for attr, name in SOLVER_SPANS.items():
            setattr(module, attr, self.wrap(name, saved[attr]))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.spans)

    def write_csv(self, path) -> None:
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "op", "parent", "name", "start_s", "end_s", "note"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s[OP], s[PARENT], s[NAME], f"{s[START] - t0:.9f}",
                              f"{s[END] - t0:.9f}", "" if s[NOTE] is None else s[NOTE]])


class SpanSummary:
    """Totals per span name: calls, inclusive seconds, self seconds, notes.

    Self time is a span's duration minus the durations of its children;
    spans are nested on one thread, so children never overlap.
    """

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.notes: dict[str, list] = defaultdict(list)
        for s, c in zip(spans, child):
            name = s[NAME]
            dur = s[END] - s[START]
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - c
            if s[NOTE] is not None:
                self.notes[name].append(s[NOTE])
