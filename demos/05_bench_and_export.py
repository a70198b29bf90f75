"""
Benchmark sweeps and the mixed-binary export
============================================

Two ways off the library island: the bench subcommand aggregates seeded
trials into a CSV (medians per sweep point), and the LP writer emits the
equivalent big-M mixed-binary model for any external solver to chew on.
Everything lands in a temporary directory, is printed back, and is
removed when the demo ends.
"""

import tempfile
from pathlib import Path

from stepopt import cli, export_bip, make_norm_opt

with tempfile.TemporaryDirectory(prefix="stepopt-demo-") as tmp:
    out = Path(tmp)

    # sweep the sample count at fixed dimensions, 3 trials per point; each
    # trial draws a fresh seeded instance and rows report medians, with the
    # last column recording the fraction of trials that converged
    bench_csv = out / "n_sweep.csv"
    cli.main([
        "bench", "--sweep", "N", "--values", "50,100,150",
        "--K", "10", "--M", "1", "--alpha", "0.05", "--b", "16.0",
        "--trials", "3", "--seed", "1", "--out", str(bench_csv),
    ])
    print("bench CSV (%s):" % bench_csv.name)
    print(bench_csv.read_text())

    # downstream parsers can pin the schema against cli.BENCH_HEADER
    print("expected header:", cli.BENCH_HEADER)

    # export a small instance as an LP file: binary y_n deactivates sample n,
    # the cardinality row keeps at least N - s of them active
    inst = make_norm_opt(3, 1, 4, b=7.5, seed=6)
    lp_path = export_bip(inst, s=1, path=out / "small.lp")
    print("\nLP export (%s):" % Path(lp_path).name)
    print(Path(lp_path).read_text())
