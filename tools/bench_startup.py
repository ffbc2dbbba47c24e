#!/usr/bin/env python3
"""Cold wall time of each CLI subcommand in a fresh interpreter, for two
source checkouts run alternately.

Run from anywhere; --before names the checkout to compare against and
--after the one to measure (default: the checkout this script sits in):

    python3 tools/bench_startup.py --before ../parent-checkout --pairs 10 \\
        --out BENCH_startup.json

The inputs are those of `perfbench/workloads.py`, and each subcommand runs
as one `lab-mix` job runs it, except `det-cover`, which runs the `cover`
job, `taylor-check-2d`, the `lab-mix` 2-D half map, and
`taylor-check-sampled`, the same map under the sampled strategy, which no
job runs.  Two baselines go with them:

  python-pass  `python -c pass`, the interpreter alone
  import-all   `import` of every module of the package, no subcommand

Every case runs `python -m nonarch_lab.cli ...` (or `python -c ...`) with
PYTHONPATH at the checkout's `src`, from a temporary directory holding the
inputs.  Bytecode is cached: the children write and read it under one
temporary PYTHONPYCACHEPREFIX, and one untimed run of every case in each
checkout fills it first, so neither checkout pays for compiling and a stale
`__pycache__` in either tree is never read.  That untimed run also records
whether the case left numpy loaded.  Then each of --pairs rounds runs every
case once per checkout, the checkout that goes first alternating between
rounds.

The output is one JSON object: per case, the median and quartiles of the
wall times in milliseconds of this host for each checkout, and the number
of rounds the --after checkout won.
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

MODULES = ("_kernels", "arith_core", "cli", "combinatorics", "detmethod", "errors",
           "ffcount", "heights", "hilbert", "taylor")

CLI = ["-m", "nonarch_lab.cli"]

# (case, workload whose job it is, python arguments)
CASES = [
    ("python-pass", None, ["-c", "pass"]),
    ("import-all", None,
     ["-c", "import " + ", ".join(f"nonarch_lab.{m}" for m in MODULES)]),
    ("bounds", "lab-mix", CLI + ["bounds", "--m", "1", "--n", "2", "--d", "2",
                                 "--T", "100", "--p", "3"]),
    ("heights", "lab-mix", CLI + ["heights", "circle.json", "--mode", "Q", "--T", "10"]),
    ("hilbert", "lab-mix", CLI + ["hilbert", "conic.json", "--select", "2", "4",
                                  "--salberger-m", "1"]),
    ("expand-scheme", "lab-mix", CLI + ["expand-scheme", "elliptic.json", "--q", "5",
                                        "--r", "3"]),
    ("count-ff", "lab-mix", CLI + ["count-ff", "line.json", "--q", "2,3,5",
                                   "--r", "1..4"]),
    ("taylor-check", "lab-mix", CLI + ["taylor-check", "tr_x2.json", "--r", "2",
                                       "--K", "5"]),
    ("taylor-check-2d", "lab-mix", CLI + ["taylor-check", "tr_2d_half.json", "--r", "2",
                                          "--K", "3"]),
    ("taylor-check-sampled", None, CLI + ["taylor-check", "tr_2d_half.json", "--r", "2",
                                          "--strategy", "sampled"]),
    ("det-cover", "cover", CLI + ["det-cover", "cover.json"]),
]

REPORT_NUMPY = ("import atexit, sys; atexit.register(lambda: sys.stderr.write("
                "'\\nnumpy loaded: %s\\n' % ('numpy' in sys.modules))); ")


def probe_args(args):
    """args run as `python -c`, which also reports on stderr, at exit,
    whether numpy is loaded."""
    if args[0] == "-m":
        code = f"import runpy; runpy.run_module({args[1]!r}, run_name='__main__', " \
               "alter_sys=True)"
    else:
        code = args[1]
    return ["-c", REPORT_NUMPY + code] + args[2:]


def run(root, args, workdir, env):
    """Exit code and stderr of one fresh interpreter, and its wall seconds."""
    env = dict(env, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable] + args, cwd=workdir, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    return proc.returncode, proc.stderr, time.perf_counter() - t0


def describe(root):
    """The checkout's commit, and whether its tracked files differ from it;
    for a tree outside git (an exported copy), "no git commit".  Either way
    the sha256 of its src/nonarch_lab/*.py, in name order, names the code
    that ran."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root)] + list(args), capture_output=True,
                              text=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "nonarch_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = git("rev-parse", "--short", "HEAD") or "no git commit"
    if commit != "no git commit" and git("status", "--porcelain", "--untracked-files=no"):
        commit += " with uncommitted changes"
    return f"{commit}, src sha256 {digest.hexdigest()[:16]}"


def summary(samples):
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_ms": round(1e3 * q2, 1), "q1_ms": round(1e3 * q1, 1),
            "q3_ms": round(1e3 * q3, 1)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--before", required=True, help="checkout compared against")
    ap.add_argument("--after", default=str(Path(__file__).resolve().parent.parent))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", help="write the JSON here as well as to stdout")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be >= 2")

    roots = {"before": Path(args.before).resolve(), "after": Path(args.after).resolve()}
    sys.path.insert(0, str(roots["after"] / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory(prefix="bench_startup_") as tmp:
        workdir = Path(tmp) / "inputs"
        workdir.mkdir()
        workloads.write_inputs(str(workdir))
        env = dict(os.environ, PYTHONPYCACHEPREFIX=str(Path(tmp) / "pycache"))
        env.pop("PYTHONDONTWRITEBYTECODE", None)

        cases = {}
        for name, workload, case_args in CASES:
            seen = {}
            for label, root in roots.items():
                code, err, _ = run(root, probe_args(case_args), workdir, env)
                loaded = err.rstrip().rsplit("\n", 1)[-1]
                if not loaded.startswith("numpy loaded: "):
                    raise SystemExit(f"{name} in {root}: exit {code}\n{err[-1000:]}")
                seen[label] = (code, loaded == "numpy loaded: True")
            if seen["before"][0] != seen["after"][0]:
                raise SystemExit(f"{name}: exit {seen['before'][0]} before, "
                                 f"{seen['after'][0]} after")
            cases[name] = {
                "command": " ".join(["python"] + case_args),
                "workload": workload,
                "exit": seen["after"][0],
                "numpy_loaded": {label: s[1] for label, s in seen.items()},
                "samples": {label: [] for label in roots},
            }

        for i in range(args.pairs):
            order = ("before", "after") if i % 2 == 0 else ("after", "before")
            for name, _workload, case_args in CASES:
                for label in order:
                    code, err, dt = run(roots[label], case_args, workdir, env)
                    if code != cases[name]["exit"]:
                        raise SystemExit(f"{name} in {roots[label]}: exit {code}\n"
                                         f"{err[-1000:]}")
                    cases[name]["samples"][label].append(dt)

    for case in cases.values():
        samples = case.pop("samples")
        for label in roots:
            case[label] = summary(samples[label])
        case["after_wins"] = sum(a < b for a, b in zip(samples["after"], samples["before"]))

    out = {
        "what": "Cold wall time of one fresh interpreter per case: python -c pass, "
                "importing every package module, and each CLI subcommand on a lab-mix "
                "input (det-cover on the cover input).",
        "script": f"python3 tools/bench_startup.py --before <checkout> --pairs {args.pairs}",
        "before": describe(roots["before"]),
        "after": describe(roots["after"]),
        "machine": f"{os.cpu_count()} CPUs, {platform.system()} {platform.machine()}, "
                   f"Python {platform.python_version()}, raw milliseconds (not "
                   f"probe-scaled)",
        "bytecode": "cached: every case ran once untimed per checkout into a fresh "
                    "PYTHONPYCACHEPREFIX, which the timed runs then read "
                    "(PYTHONDONTWRITEBYTECODE of the calling environment: "
                    f"{os.environ.get('PYTHONDONTWRITEBYTECODE') or 'unset'})",
        "statistic": f"median and quartiles over {args.pairs} rounds; the checkout that "
                     "runs first alternates between rounds; after_wins counts rounds "
                     "with the after checkout faster",
        "cases": cases,
    }
    text = json.dumps(out, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
