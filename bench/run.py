"""stepopt benchmark: one workload, one closed-loop client, one process.

    python3 bench/run.py --workload {paper,wide,analysis} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The inputs are generated from --seed; the
client starts the next operation when the previous one returns, in whole
passes over the workload's pool, until S seconds have passed.  Every
output is checked.  The end-to-end times are scaled to a fixed host speed,
which a probe measures between operations (see HostSpeed).  With --trace 0
the last stdout line reports the end-to-end metrics; with --trace 1 the pool alternates untraced and traced
passes and the line reports the per-layer metrics taken from the spans.
The line before it records the environment.  Spans and a run record are
written to bench/out/.  README.md says why each workload exists and which
layer metric should move which end-to-end metric.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# numpy, scipy and stepopt are imported inside the functions below, so that
# the set-up probe times their import in a fresh interpreter.

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
# probes timed after each set-up, to scale it like the operations
SETUP_PROBES = 200
# The times are scaled to a host on which one probe takes REF_PROBE_S.  This
# sets the scale only: 0.25 ms is about the probe's time on the 2-vCPU host
# the benchmark was written on.
REF_PROBE_S = 0.25e-3
# The tail is the highest of these with at least 10 samples beyond it.  The
# passes repeat a fixed pool, so samples beyond p99 would come from fewer
# than 10 distinct inputs; p99 and above are left out.
TAIL_PERCENTILES = (95.0, 90.0, 75.0, 50.0)
# one BLAS thread unless the caller says otherwise: the client is single
# threaded and the linear systems are small
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("paper", "wide", "analysis"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="internal: time import plus input generation and print it")
    return p.parse_args(argv)


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def lp_path() -> str:
    return str(OUT / f"export-{os.getpid()}.lp")


class HostSpeed:
    """Times a fixed piece of work that does not touch stepopt.

    The shared host's speed comes and goes.  On 2 vCPUs one pass over the
    same `paper` pool took from 2.4 to 4.4 s, within a run and from run to
    run, and a whole 30 s run could stay slow.  This probe slowed with it
    (0.4 to 0.8 ms), and passes scaled by it varied by about 5%.  The probe
    allocates little, calls no stepopt code and runs with the cyclic garbage
    collector off, so a change to the program does not change its time.
    Right after a large `wide` solve its first run is slower, because the
    solve has pushed its code and data out of the caches; it times a second
    run instead.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal((10, 10)) + 10.0 * np.eye(10)
        self.b = rng.standard_normal(10)
        self.samples: list[float] = []

    def _work(self) -> float:
        np = self.np
        acc = 0.0
        for _ in range(20):
            x = np.linalg.solve(self.a, self.b)
            acc += float(x @ x) + float(np.maximum(x, 0.0).sum()) + sum(j * j for j in range(30))
        return acc

    def sample(self) -> None:
        gc.disable()
        self._work()
        t0 = time.perf_counter()
        self._work()
        self.samples.append(time.perf_counter() - t0)
        gc.enable()

    def scale(self) -> float:
        """Factor from measured seconds to seconds at the reference speed."""
        return REF_PROBE_S / statistics.fmean(self.samples)


def probe_setup(args) -> float:
    """Seconds to import stepopt and generate the workload's inputs, scaled
    to the reference host speed."""
    t0 = time.perf_counter()
    import stepopt
    imported = time.perf_counter() - t0
    import workloads
    t0 = time.perf_counter()
    workloads.WORKLOADS[args.workload].build(args.seed, stepopt.make_norm_opt, lp_path())
    setup_s = imported + time.perf_counter() - t0
    speed = HostSpeed()
    for _ in range(SETUP_PROBES):
        speed.sample()
    return setup_s * speed.scale()


def measure_setup(args) -> list[float]:
    """Set-up times of SETUP_REPEATS fresh interpreters, run one at a time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe-setup"]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Client:
    """Runs passes over the pool and checks every output against the reference."""

    def __init__(self, wl, items):
        self.wl, self.items = wl, items
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.refs = None

    def _op(self, item, api):
        t0 = time.perf_counter()
        try:
            out, err = self.wl.run(item, api), None
        except Exception:
            out, err = None, traceback.format_exc()
        return out, err, time.perf_counter() - t0

    def _verify(self, i, out, err):
        """Error text for a wrong output, None for a correct one."""
        if err is not None:
            return err
        try:
            self.wl.check(self.items[i], out)
            if self.refs is not None and self.wl.summary(self.items[i], out) != self.refs[i]:
                return "output differs from the reference run of the same input"
        except Exception:
            return traceback.format_exc()
        return None

    def warm_up(self, api) -> list:
        """Untimed first pass; its outputs become the references."""
        outs, refs = [], []
        for i, item in enumerate(self.items):
            out, err, _ = self._op(item, api)
            err = self._verify(i, out, err)
            if err is not None:
                print(f"warm-up item {i} failed:\n{err}", file=sys.stderr)
                out = None
            outs.append(out)
            refs.append(None if out is None else self.wl.summary(item, out))
        self.refs = refs
        return outs

    def run_pass(self, api, rec=None, speed=None) -> float:
        """One timed pass; returns the seconds spent inside operations.

        With a HostSpeed, its probe runs before each operation.
        """
        busy = 0.0
        for i, item in enumerate(self.items):
            if rec is not None:
                rec.op += 1
            if speed is not None:
                speed.sample()
            out, err, dt = self._op(item, api)
            busy += dt
            self.latencies.append(dt)
            self.attempted += 1
            err = self._verify(i, out, err)
            if err is not None:
                if self.failed < 3:
                    print(f"item {i} failed:\n{err}", file=sys.stderr)
                self.failed += 1
        return busy


def tail(latencies):
    """(percentile, value) at the highest percentile with 10 samples beyond it."""
    import numpy as np
    n = len(latencies)
    pct = next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10), 50.0)
    return pct, float(np.percentile(latencies, pct))


def end_to_end(client, scale, setup_times, quality):
    latencies = [t * scale for t in client.latencies]
    pct, tail_s = tail(latencies)
    n = client.attempted
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_ms.p50": (statistics.median(latencies) * 1e3, "ms"),
        "op_ms.tail": (tail_s * 1e3, "ms"),
        "ops_per_s": (n / sum(latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((n - client.failed) / n, "fraction"),
    }
    # an analysis task returns no solver point, so it counts as a miss
    for name, k in (("unconverged_frac", 0), ("over_budget_frac", 1), ("not_tau_frac", 2)):
        miss = 1.0 if quality is None else sum(not q[k] for q in quality) / len(quality)
        metrics[name] = (miss, "fraction")
    return metrics, {"tail_percentile": pct, "samples": n, "setup_samples": len(setup_times),
                     "host_scale": scale,
                     "unscaled_op_ms.p50": statistics.median(client.latencies) * 1e3}


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(summary, ops, overhead, grid_points):
    """Per-layer metrics from the spans of the traced passes."""
    calls, total, own, notes = summary.calls, summary.total_s, summary.self_s, summary.notes
    iters = calls["solver.newton"]           # one Newton attempt per iteration
    ms = lambda name, d: ratio(d[name] * 1e3, ops)
    searches = notes["solver.line_search"]
    return {
        "problems.G.calls_per_iter": (ratio(calls["problems.G"], iters), "count"),
        "problems.G.self_ms_per_op": (ms("problems.G", own), "ms"),
        "solver.line_search.ms_per_op": (ms("solver.line_search", total), "ms"),
        "solver.line_search.self_ms_per_op": (ms("solver.line_search", own), "ms"),
        "solver.line_search.backtracks_per_iter": (ratio(sum(t for t, _ in searches), iters), "count"),
        "solver.line_search.stalled_frac": (ratio(sum(st for _, st in searches), len(searches)), "fraction"),
        "solver.newton.self_ms_per_op": (ms("solver.newton", own), "ms"),
        "solver.newton.fallback_frac": (ratio(notes["solver.newton"].count(False), iters), "fraction"),
        "solver.iterations_per_op": (ratio(iters, ops), "count"),
        "solver.self_ms_per_op": (ms("solver.solve", own), "ms"),
        "geometry.clamp_select.ms_per_op": (ms("geometry.clamp_select", total), "ms"),
        "stationarity.active_set.ms_per_op": (ms("stationarity.active_set", total), "ms"),
        "stationarity.residual.ms_per_op": (ms("stationarity.residual", total), "ms"),
        "stationarity.check_tau.ms_per_op": (ms("stationarity.check_tau", total), "ms"),
        "stationarity.check_kkt.ms": (ms("stationarity.check_kkt", total), "ms"),
        "stationarity.check_bkkt.ms": (ms("stationarity.check_bkkt", total), "ms"),
        "stationarity.max_tau.ms": (ms("stationarity.max_tau", total), "ms"),
        "geometry.project_step.ms": (ms("geometry.project_step", total), "ms"),
        "geometry.project_step.sets": (ratio(sum(notes["geometry.project_step"]),
                                             calls["geometry.project_step"]), "count"),
        "bounds.monte_carlo.ms": (ms("bounds.monte_carlo", total), "ms"),
        "bounds.monte_carlo.draws_per_s": (ratio(sum(notes["problems.draw"]),
                                                 total["bounds.monte_carlo"]), "1/s"),
        "baselines.grid_search.points_per_s": (ratio(grid_points * calls["baselines.grid_search"],
                                                     total["baselines.grid_search"]), "1/s"),
        "baselines.export_bip.ms": (ms("baselines.export_bip", total), "ms"),
        "baselines.export_bip.bytes": (ratio(sum(notes["baselines.export_bip"]),
                                             calls["baselines.export_bip"]), "B"),
        "problems.make_norm_opt.ms": (ratio(total["problems.make_norm_opt"] * 1e3,
                                            calls["problems.make_norm_opt"]), "ms"),
        "trace.overhead_frac": (overhead, "fraction"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stepopt" / "__init__.py").is_file():
        print(f"error: no stepopt sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    OUT.mkdir(exist_ok=True)
    if args.probe_setup:
        print(repr(probe_setup(args)))
        return 0
    setup_times = measure_setup(args) if args.trace == 0 else []

    import numpy as np
    import scipy
    import stepopt
    import stepopt.solver
    import tracing
    import workloads
    if Path(stepopt.__file__).resolve().parent != SRC / "stepopt":
        print(f"error: imported stepopt from {stepopt.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    rec = tracing.Recorder() if args.trace else None
    make = rec.wrap("problems.make_norm_opt", stepopt.make_norm_opt) if rec else stepopt.make_norm_opt
    path = lp_path()
    items = wl.build(args.seed, make, path)
    client = Client(wl, items)
    plain = workloads.plain_api()
    first = client.warm_up(plain)

    # whole passes until the run has lasted long enough, checks included
    pass_s = {"plain": [], "traced": []}
    traced = rec.api(plain, workloads.API_SPANS) if rec else None
    speed = HostSpeed() if rec is None else None
    start = time.perf_counter()
    while True:
        pass_s["plain"].append(client.run_pass(plain, speed=speed))
        if rec is not None:
            with rec.patched(stepopt.solver):
                pass_s["traced"].append(client.run_pass(traced, rec))
        if time.perf_counter() - start >= args.seconds:
            break
    if os.path.exists(path):
        os.remove(path)

    if rec is None:
        quality = None
        if wl.quality is not None:
            quality = [wl.quality(item, out) if out is not None else (False, False, False)
                       for item, out in zip(items, first)]
        metrics, detail = end_to_end(client, speed.scale(), setup_times, quality)
    else:
        traced_ops = len(items) * len(pass_s["traced"])
        overhead = sum(pass_s["traced"]) / sum(pass_s["plain"]) - 1.0
        metrics = per_layer(rec.summary(), traced_ops, overhead, workloads.GRID.size)
        spans_file = OUT / f"{args.workload}.spans.csv"
        rec.write_csv(spans_file)
        detail = {"traced_ops": traced_ops, "spans": len(rec.spans),
                  "spans_file": str(spans_file.relative_to(ROOT))}

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": min(int(os.environ["OPENBLAS_NUM_THREADS"]), len(os.sched_getaffinity(0))),
        "python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
        "commit": git_commit(), "pool": len(items), "passes": len(pass_s["plain"]),
        **detail,
    }
    result = {
        "correct": client.failed == 0 and None not in client.refs,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "pass_s": pass_s, **result}, fh, indent=1)
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
