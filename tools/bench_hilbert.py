#!/usr/bin/env python3
"""Seconds of the Hilbert-table stage and of the `hilbert` CLI end to end.

Run from anywhere.  With --root alone (default: the checkout this script
sits in) it measures that checkout and prints one JSON object:

    python3 tools/bench_hilbert.py --reps 5

With --before it measures two checkouts, each in a fresh interpreter
running this script, alternating which goes first over --rounds rounds,
and writes the before and after numbers to --out as well as to stdout:

    python3 tools/bench_hilbert.py --before ../parent-checkout --rounds 4 \\
        --reps 5 --out BENCH_hilbert.json

The cases are the `hilbert` subcommand on

  twisted-30, twisted-300  the twisted cubic of `perfbench/workloads.py`
                           (a lab-mix input) at --smax 30 and 300
  conic-300                the conic of `perfbench/workloads.py` at
                           --smax 300 --select 2 4 --salberger-m 1
  quadric-150              x0 x3 - x1 x2 in P^3 at --smax 150

and each is timed two ways:

  table  in process, the Groebner basis computed beforehand:
         `HilbertTable.from_ideal` and every table read that `hilbert`
         makes (H, sigma and the ratios for s = 1..smax, the Salberger
         checks and the (delta, alpha) selection when asked for)
  cli    `python -m nonarch_lab.cli hilbert ...` in a fresh interpreter,
         report and CSV written to files; the sha256 of both is kept, so
         two checkouts can be checked for the same bytes

Each timing runs once to warm up, then --reps times; the value is the
median, in raw seconds of this host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_startup import describe

QUADRIC = {"vars": 4, "generators": [
    [{"exp": [1, 0, 0, 1], "coeff": "1"}, {"exp": [0, 1, 1, 0], "coeff": "-1"}]]}

SELECT = ["--select", "2", "4", "--salberger-m", "1"]

# (case, input file, smax, extra arguments)
CASES = [
    ("twisted-30", "twisted_cubic.json", 30, []),
    ("twisted-300", "twisted_cubic.json", 300, []),
    ("conic-300", "conic.json", 300, SELECT),
    ("quadric-150", "quadric.json", 150, []),
]


def _median_seconds(fn, reps):
    fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(f"{statistics.median(samples):.4g}")


def _table_stage(path, smax, extra):
    """The table reads `hilbert` makes, as one callable on a fixed ideal."""
    from nonarch_lab import cli
    from nonarch_lab.hilbert import (HilbertTable, HomIdeal, salberger_check,
                                     select_delta_alpha)

    data = json.loads(Path(path).read_text())
    ideal = HomIdeal([cli.parse_poly(g, data["vars"]) for g in data["generators"]])
    ideal.groebner_basis()

    def stage():
        table = HilbertTable.from_ideal(ideal)
        for s in range(1, smax + 1):
            if table.hilbert_function(s):
                table.sigma_all(s)
                table.a_estimates(s)
        if extra:
            for s in (10, 20, 30):
                salberger_check(table, s, 1)
            select_delta_alpha(table, 2, 4)

    return stage


def measure(root, reps):
    """{case: {"table_s", "cli_s", "sha256"}} for one checkout, which this
    interpreter imports."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = {}
    with tempfile.TemporaryDirectory(prefix="bench_hilbert_") as tmp:
        workloads.write_inputs(tmp)
        Path(tmp, "quadric.json").write_text(json.dumps(QUADRIC))
        for name, infile, smax, extra in CASES:
            argv = [sys.executable, "-m", "nonarch_lab.cli", "hilbert", infile,
                    "--smax", str(smax), *extra, "--out", "report.json",
                    "--csv", "table.csv"]

            def cli():
                subprocess.run(argv, cwd=tmp, env=env, check=True,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                               timeout=600)

            stage = _table_stage(Path(tmp, infile), smax, extra)
            cli_s = _median_seconds(cli, reps)
            digest = hashlib.sha256(Path(tmp, "report.json").read_bytes()
                                    + Path(tmp, "table.csv").read_bytes())
            out[name] = {"table_s": _median_seconds(stage, reps), "cli_s": cli_s,
                         "sha256": digest.hexdigest()}
    return out


def compare(roots, rounds, reps):
    """Before/after values per case and stage, one per round, each round
    measuring both checkouts in fresh interpreters, alternating which goes
    first."""
    runs = {label: [] for label in roots}
    for i in range(rounds):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        for label in order:
            proc = subprocess.run(
                [sys.executable, __file__, "--root", str(roots[label]),
                 "--reps", str(reps)], check=True, capture_output=True, text=True)
            runs[label].append(json.loads(proc.stdout)["cases"])
    cases = {}
    for name, *_ in CASES:
        digests = {run[name]["sha256"] for label in roots for run in runs[label]}
        case = {"same_bytes": len(digests) == 1}
        for stage in ("table_s", "cli_s"):
            vals = {label: [run[name][stage] for run in runs[label]] for label in roots}
            case[stage] = {label: {"values": v,
                                   "median": float(f"{statistics.median(v):.4g}")}
                           for label, v in vals.items()}
        cases[name] = case
    return {
        "what": "Raw seconds of the hilbert subcommand: table = HilbertTable.from_ideal "
                "and every table read the subcommand makes, in process, Groebner basis "
                "computed beforehand; cli = python -m nonarch_lab.cli hilbert in a fresh "
                "interpreter, report and CSV to files. same_bytes: report and CSV equal "
                "at both checkouts.",
        "script": f"python3 tools/bench_hilbert.py --before <checkout> --rounds {rounds} "
                  f"--reps {reps}",
        "before": describe(roots["before"]),
        "after": describe(roots["after"]),
        "machine": f"{os.cpu_count()} CPUs, {platform.system()} {platform.machine()}, "
                   f"Python {platform.python_version()}, raw seconds (not probe-scaled)",
        "statistic": f"per round the median over {reps} repetitions after one warm-up; "
                     f"median over {rounds} rounds, the checkout that runs first "
                     "alternating between rounds",
        "cases": cases,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    ap.add_argument("--before", help="checkout compared against")
    ap.add_argument("--rounds", type=int, default=4)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--out", help="write the JSON here as well as to stdout")
    args = ap.parse_args(argv)
    if args.reps < 1 or args.rounds < 1:
        ap.error("--reps and --rounds must be >= 1")

    root = Path(args.root).resolve()
    if args.before:
        out = compare({"before": Path(args.before).resolve(), "after": root},
                      args.rounds, args.reps)
    else:
        out = {"root": str(root), "reps": args.reps, "cases": measure(root, args.reps)}
    text = json.dumps(out, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
