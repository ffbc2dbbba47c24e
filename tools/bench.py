#!/usr/bin/env python3
"""Seconds of the stages of the lab's jobs, one suite or all five, for one
checkout or for two run alternately.

Run from anywhere.  --root names the checkout to measure (default: the one
this script sits in); the program and `perfbench/workloads.py` are imported
from it, and the inputs are those of `perfbench/workloads.py`:

    python3 tools/bench.py tr --reps 15
    python3 tools/bench.py labmix --stages fit,count-labmix --reps 30
    python3 tools/bench.py all --reps 1
    python3 tools/bench.py hilbert --before ../parent-checkout --rounds 4 \\
        --reps 5 --out BENCH_hilbert.json

SUITE is one of `tr`, `labmix`, `detmethod`, `hilbert`, `startup` (each
described, stage by stage, by its function below) or `all`.  Every stage
runs once untimed to warm up, then --reps times (default: per suite); its
value is the median, in raw seconds of this host.  A stage that splits its
time (detmethod, hilbert) reports each part.

With --before, each of --rounds rounds runs the suite once per checkout,
each in a fresh interpreter running this script, and the checkout that
goes first alternates between rounds.  Per stage and checkout the report
gives the round values, their median and quartiles, and `after_wins`, the
number of rounds in which the --root checkout took less.  Both checkouts
are named by `describe`.  The JSON goes to stdout and, with --out, to a
file.  A stage that records its output's sha256 (hilbert) reports
`same_bytes`; when it is false for any stage, the stages are named on
stderr and the exit code is 1, after the JSON is written.

A stage looks up the program internals it times when it runs.  In a
checkout that lacks one, the stage reports "absent" with the missing name,
and the other stages still run and compare.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace


def tr(ctx):
    """Seconds of the T_r stages of the `tr-deep` benchmark workload.

    The inputs are the twelve gauss1a suites (p = 2, 3; r = 2, 3; g = x,
    x^2, x^2 + px; K = 8) and the degree-7 map on 1 + 3Z_3 at r = 3, K = 8;
    plus three multivariate maps and four in one variable.  The stages:

      preimage-balls `taylor.preimage_balls` of the twelve suites' balls
      total          the thirteen library calls whole:
                     `taylor.verify_gauss1a` per suite and `taylor.check_Tr`
                     of the degree-7 map
      nd             `taylor.check_Tr` of (x^2 + xy + y^2 + y^3)/3 on
                     3Z_3^2 at r = 1 and K = 2 (it holds; s = 1 = alpha,
                     so only the C^r half runs, at the one test point of y)
      nd-xy81        `taylor.check_Tr` of xy + x^3 y^4/81 on 3Z_3^2 at
                     r = 1 and the default K (it holds with s = 4 >
                     alpha = 1: 20 test points of y, each with 3 C^r
                     columns and then 49 remainder columns over v = 1..3)
      nd-xy243       the same with x^3 y^4/3^5 (s = 5: 20 test points of y,
                     each with 3 C^r and 69 remainder columns over v = 1..4)
      1d-fails       `taylor.check_Tr` at r = 1 of (x^2 - x)/2 on Z_2 at
                     K = 14 and of (x^5 - x)/5 on Z_5 at K = 6, both failing
                     (s = 1: the check runs at K* = 2, and K sets only the
                     reported K)
      1d-table       `taylor.check_Tr` at r = 1 of x^3/3^7 on Z_3 (6,561
                     table rows; the sweep fails at the first pair) and of
                     x^6/3^8 on 9Z_3 (2,187 rows; it holds): the one-variable
                     table in Python ints, then the sweep

    The stages pass K to `check_Tr` as a keyword, so --before needs a
    checkout whose `check_Tr` takes one.  preimage-balls looks
    `taylor.preimage_balls` up when it runs, so a checkout without it
    reports that stage absent; no other stage reads a program internal.
    """
    from nonarch_lab import cli, taylor
    from nonarch_lab.arith_core import Ball, MultiPoly
    from nonarch_lab.combinatorics import select_divisibility

    check_Tr, verify = taylor.check_Tr, taylor.verify_gauss1a
    K = 8
    suites, preimages = [], []
    for p in (2, 3):
        for r in (2, 3):
            k = select_divisibility(p, r, 2 * r)
            base = Ball(p, (1,), k + 1)
            preimages.append((base, p ** (k * r)))
            suites += [(taylor.PolyMap.univariate(coeffs), r, p)
                       for coeffs in ([0, 1], [0, 0, 1], [0, p, 1])]
    deg7 = cli.parse_polymap(ctx.workloads.TR_DEG7)

    third = Fraction(1, 3)
    nd_map = taylor.PolyMap(2, 1, [MultiPoly(2, {(2, 0): third, (1, 1): third,
                                                 (0, 2): third, (0, 3): third})],
                            domain=Ball(3, (0, 0), 1))
    xy81, xy243 = (taylor.PolyMap(2, 1, [MultiPoly(2, {(1, 1): 1, (3, 4): Fraction(1, q)})],
                                  domain=Ball(3, (0, 0), 1)) for q in (81, 243))
    binomial = taylor.PolyMap.univariate([0, Fraction(-1, 2), Fraction(1, 2)],
                                         domain=Ball(2, (0,), 0))
    quintic = taylor.PolyMap.univariate([0, Fraction(-1, 5), 0, 0, 0, Fraction(1, 5)],
                                        domain=Ball(5, (0,), 0))
    cube = taylor.PolyMap.univariate([0, 0, 0, Fraction(1, 3 ** 7)], domain=Ball(3, (0,), 0))
    sixth = taylor.PolyMap.univariate([0] * 6 + [Fraction(1, 3 ** 8)], domain=Ball(3, (0,), 2))

    def preimage_balls():
        balls_of = internal(taylor, "preimage_balls")
        for base, N in preimages:
            balls_of(base, N, 1)

    def total():
        for g, r, p in suites:
            verify(g, r, p, i_max=2 * r, K=K)
        check_Tr(deg7, 3, K=K)

    def fails():
        check_Tr(binomial, 1, K=14)
        check_Tr(quintic, 1, K=6)

    def one_d_table():
        check_Tr(cube, 1)
        check_Tr(sixth, 1)

    return {"preimage-balls": preimage_balls, "total": total,
            "nd": lambda: check_Tr(nd_map, 1, K=2),
            "nd-xy81": lambda: check_Tr(xy81, 1),
            "nd-xy243": lambda: check_Tr(xy243, 1),
            "1d-fails": fails, "1d-table": one_d_table}


def labmix(ctx):
    """Seconds of the repeated stages of the `lab-mix` benchmark workload,
    of the F_q[t] counts of `lab-mix` and `ff-sparse` and of three deeper
    ones, of two dense ones, of `expand_scheme`, and of a high power.

      parser          one `cli.build_parser()` call, as every `cli.main()`
                      makes it
      fit             `ffcount.verify_bounds` for every r of the two
                      `count-ff` jobs (x + y = 0 over q = 2, 3, 5 and
                      y = x^2 + tx over q = 2, 3, r = 1..4); the counts are
                      computed once, outside the timing
      count-labmix    the 20 `ffcount.enumerate_Xr` calls of those two jobs
      count-ff-cli    those two `count-ff` jobs whole, run in this
                      interpreter through `cli.main` as the benchmark runs
                      them: parsing, counts, fits and report
      emit            `cli.emit_report` of the twelve `lab-mix` reports
                      into an in-memory stream; the reports are collected
                      once, by running the jobs on the untimed warm-up run
      count-elliptic  the 12 `ffcount.enumerate_Xr` calls of `ff-sparse`:
                      y^2 = x^3 - x over q = 5, 7, 11, 13, r = 1..3
      count-deep      `ffcount.enumerate_Xr` on y^2 = x^3 - x at (q, r) =
                      (13, 4), (7, 6) and (13, 5), with the q^(r*n) cap
                      raised past 13^10
      count-dense     `ffcount.enumerate_Xr` on x^4 y^4 + x = 0 at (q, r) =
                      (5, 5) and on x^2 y^2 z^2 = 1 at (3, 3): many-factor
                      terms whose t-powers past the lifting levels hold
                      thousands of monomials, so an evaluator that expands
                      them into monomials blows up
      expand-scheme   `ffcount.expand_scheme` on y^2 = x^3 - x at q = 5,
                      r = 3, the input of `lab-mix`'s `expand-scheme` job
      ff-power        x^500 = 0 in two variables: `ffcount.enumerate_Xr`
                      at q = 2, 3 and r = 1, 2, then `ffcount.expand_scheme`
                      at q = 3, r = 2 (500 is 111110100 in base 2 and
                      200112 in base 3, so the power takes 6 and 6 factors
                      from its digits where one factor per unit takes 500)
      grid-circle-Q10 `heights._grid_points` for x^2 + y^2 = 1 over the
                      rationals of height <= 10, as the (numerator,
                      denominator) pairs of `heights.enumerate_heights`
      grid-parabola-Z100
                      `heights._grid_points` for y = x^2 over the integers
                      of absolute value <= 100, as pairs (v, 1) (the curve
                      of `det-cover`)
      points-parabola-Z20000
                      `heights.points_Z` for y = x^2 at T = 2*10^4, with the
                      cap raised past the (2T+1)^2 grid: 40,001 fibres, 283
                      points
      points-circle-Q100
                      `heights.points_Q` for x^2 + y^2 = 1 at T = 100, with
                      the cap raised past the grid of 12,175^2 candidates
    """
    from nonarch_lab import cli, ffcount, heights

    w = ctx.workloads
    enumerate_Xr, verify_bounds, expand_scheme = (
        ffcount.enumerate_Xr, ffcount.verify_bounds, ffcount.expand_scheme)
    points_Z, points_Q = heights.points_Z, heights.points_Q

    def grid(X, values):
        return lambda: internal(heights, "_grid_points")(X, values, 10**7)

    def count_table(data, qs, rs):
        X = ffcount.VarietySpec.from_json(data)
        return [(X, r, {q: enumerate_Xr(X, q, r) for q in qs}) for r in rs]

    def count_labmix():
        return (count_table(w.LINE, (2, 3, 5), range(1, 5))
                + count_table(w.PARABOLA_T, (2, 3), range(1, 5)))

    fits = count_labmix()
    jobs, _ = w.build_jobs("lab-mix", str(ctx.workdir), ctx.seed)
    count_ff_jobs = [job for job in jobs if job.id.startswith("count-ff-")]

    def count_ff_cli():
        for job in count_ff_jobs:
            code, _ = job.run()
            if code:
                raise SystemExit(f"{job.id}: exit {code}")

    reports = []

    def emit():
        emit_report = cli.emit_report
        if not reports:  # on the untimed warm-up run
            cli.emit_report = lambda report, *rest: reports.append(report)
            try:
                for job in jobs:
                    job.run()
            finally:
                cli.emit_report = emit_report
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for report in reports:
                emit_report(report, SimpleNamespace(), 0.0)

    def fit():
        for X, r, counts in fits:
            verify_bounds(counts, X, r)

    elliptic = ffcount.VarietySpec.from_json(w.ELLIPTIC)
    power = ffcount.VarietySpec(2, [{(500, 0): (1,)}])

    def ff_power():
        for q in (2, 3):
            for r in (1, 2):
                enumerate_Xr(power, q, r)
        expand_scheme(power, 3, 2)

    dense = [(ffcount.VarietySpec(2, [{(4, 4): (1,), (1, 0): (1,)}]), 5, 5),
             (ffcount.VarietySpec(3, [{(2, 2, 2): (1,), (0, 0, 0): (-1,)}]), 3, 3)]
    circle = cli.parse_semialg(w.CIRCLE)
    parabola = cli.parse_semialg(w.COVER["curve"])
    heights_10 = list(heights.enumerate_heights(10))
    integers_100 = [(v, 1) for v in range(-100, 101)]
    return {
        "parser": cli.build_parser,
        "fit": fit,
        "count-labmix": count_labmix,
        "count-ff-cli": count_ff_cli,
        "emit": emit,
        "count-elliptic": lambda: count_table(w.ELLIPTIC, (5, 7, 11, 13), range(1, 4)),
        "count-deep": lambda: [enumerate_Xr(elliptic, q, r, cap=13 ** 10)
                               for q, r in ((13, 4), (7, 6), (13, 5))],
        "count-dense": lambda: [enumerate_Xr(X, q, r) for X, q, r in dense],
        "expand-scheme": lambda: expand_scheme(elliptic, 5, 3),
        "ff-power": ff_power,
        "grid-circle-Q10": grid(circle, heights_10),
        "grid-parabola-Z100": grid(parabola, integers_100),
        "points-parabola-Z20000": lambda: points_Z(parabola, 2 * 10**4, cap=10**10),
        "points-circle-Q100": lambda: points_Q(circle, 100, cap=10**10),
    }


def detmethod(ctx):
    """Per-stage seconds of the jobs of the `cover` benchmark workload
    (--seed seeds its determinant-valuation trials), one stage per job.

    Each run splits the job's wall time into four parts, by timing wrappers
    put on module attributes for the run (the way the benchmark tracer
    wraps them), next to the job's total:

      certify `detmethod.certify_components`, the T_r certificate of each
              component (one `check_Tr` per component)
      build   `detmethod._monomial_matrix`, the integer monomial matrix
              of every `det_bound_check` and `auxiliary_polynomial`
      linalg  `detmethod._bareiss`, the one elimination kernel behind every
              rank, determinant and auxiliary-polynomial solve
      other   the rest of the job, including the evaluation of the points
              and the clearing of denominators before each elimination

    Only outermost calls count, so no time is counted twice.  A checkout
    without one of the three reports every stage absent.
    """
    from nonarch_lab import detmethod as dm

    acc, depth = {}, [0]

    def timed(fn, part):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[part] += time.perf_counter() - t0
                depth[0] -= 1
        return wrapper

    parts = {"certify": "certify_components", "build": "_monomial_matrix",
             "linalg": "_bareiss"}

    def stage(job):
        def run():
            originals = {name: internal(dm, name) for name in parts.values()}
            acc.update(dict.fromkeys(parts, 0.0))
            for part, name in parts.items():
                setattr(dm, name, timed(originals[name], part))
            t0 = time.perf_counter()
            try:
                job.run()
            finally:
                total = time.perf_counter() - t0
                for name, fn in originals.items():
                    setattr(dm, name, fn)
            return {"total": total, **acc, "other": total - sum(acc.values())}
        return run

    jobs, _ = ctx.workloads.build_jobs("cover", str(ctx.workdir), ctx.seed)
    return {job.id: stage(job) for job in jobs}


def hilbert(ctx):
    """Seconds of the Hilbert-table stage and of the `hilbert` CLI end to
    end, per case.

    The cases are the `hilbert` subcommand on

      twisted-30, twisted-300  the twisted cubic of `perfbench/workloads.py`
                               (a lab-mix input) at --smax 30 and 300
      conic-300                the conic of `perfbench/workloads.py` at
                               --smax 300 --select 2 4 --salberger-m 1
      quadric-150              x0 x3 - x1 x2 in P^3 at --smax 150

    and each is timed two ways:

      table  in process, the reduced Groebner basis and its leading
             exponents `lts` computed beforehand: `HilbertTable(vars, lts)`
             and every table read that `hilbert` makes (H, sigma and the
             ratios for s = 1..smax, the Salberger checks and the
             (delta, alpha) selection when asked for)
      cli    `python -m nonarch_lab.cli hilbert ...` in a fresh
             interpreter, report and CSV written to files; the sha256 of
             both is kept, so two checkouts can be checked for the same
             bytes (`same_bytes`)
    """
    from nonarch_lab import cli
    from nonarch_lab.hilbert import (HilbertTable, groebner, leading_term, salberger_check,
                                     select_delta_alpha)

    quadric = {"vars": 4, "generators": [
        [{"exp": [1, 0, 0, 1], "coeff": "1"}, {"exp": [0, 1, 1, 0], "coeff": "-1"}]]}
    (ctx.workdir / "quadric.json").write_text(json.dumps(quadric))
    select = ["--select", "2", "4", "--salberger-m", "1"]
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))

    def case(name, infile, smax, extra):
        data = json.loads((ctx.workdir / infile).read_text())
        gens = [cli.parse_poly(g, data["vars"]) for g in data["generators"]]
        lts = [leading_term(g)[0] for g in groebner(gens)]
        argv = [sys.executable, "-m", "nonarch_lab.cli", "hilbert", infile,
                "--smax", str(smax), *extra, "--out", "report.json", "--csv", "table.csv"]

        def table_reads():
            table = HilbertTable(data["vars"], lts)
            for s in range(1, smax + 1):
                if table.hilbert_function(s):
                    table.sigma_all(s)
                    table.a_estimates(s)
            if extra:
                for s in (10, 20, 30):
                    salberger_check(table, s, 1)
                select_delta_alpha(table, 2, 4)

        def run():
            t0 = time.perf_counter()
            table_reads()
            t1 = time.perf_counter()
            subprocess.run(argv, cwd=ctx.workdir, env=env, check=True, timeout=600,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            t2 = time.perf_counter()
            digest = hashlib.sha256(b"".join((ctx.workdir / f).read_bytes()
                                             for f in ("report.json", "table.csv")))
            ctx.facts[name] = {"sha256": digest.hexdigest()}
            return {"table": t1 - t0, "cli": t2 - t1}
        return run

    return {name: case(name, *spec) for name, *spec in [
        ("twisted-30", "twisted_cubic.json", 30, []),
        ("twisted-300", "twisted_cubic.json", 300, []),
        ("conic-300", "conic.json", 300, select),
        ("quadric-150", "quadric.json", 150, []),
    ]}


STARTUP_MODULES = ("_kernels", "arith_core", "cli", "combinatorics", "detmethod",
                   "errors", "ffcount", "heights", "hilbert", "taylor")

REPORT_NUMPY = ("import atexit, sys; atexit.register(lambda: sys.stderr.write("
                "'\\nnumpy loaded: %s\\n' % ('numpy' in sys.modules))); ")


def startup(ctx):
    """Cold wall time of each CLI subcommand in a fresh interpreter.

    Each subcommand runs as one `lab-mix` job runs it, except `det-cover`,
    which runs the `cover` job, and `taylor-check-2d`, the `lab-mix` 2-D
    half map.  Two baselines go with them:

      python-pass  `python -c pass`, the interpreter alone
      import-all   `import` of every module of the package, no subcommand

    Every case runs `python -m nonarch_lab.cli ...` (or `python -c ...`)
    with PYTHONPATH at the checkout's `src`, from the directory holding the
    inputs.  Bytecode is cached: the children write and read it under one
    temporary PYTHONPYCACHEPREFIX (PYTHONDONTWRITEBYTECODE is unset for
    them), and the untimed warm-up run of each case fills it, so no timed
    run pays for compiling and a stale `__pycache__` in the tree is never
    read.  That warm-up also records the case's exit code, which every
    timed run must repeat, and whether it left numpy loaded.
    """
    cli = ["-m", "nonarch_lab.cli"]
    cases = [
        ("python-pass", None, ["-c", "pass"]),
        ("import-all", None,
         ["-c", "import " + ", ".join(f"nonarch_lab.{m}" for m in STARTUP_MODULES)]),
        ("bounds", "lab-mix", cli + ["bounds", "--m", "1", "--n", "2", "--d", "2",
                                     "--T", "100", "--p", "3"]),
        ("heights", "lab-mix", cli + ["heights", "circle.json", "--mode", "Q", "--T", "10"]),
        ("hilbert", "lab-mix", cli + ["hilbert", "conic.json", "--select", "2", "4",
                                      "--salberger-m", "1"]),
        ("expand-scheme", "lab-mix", cli + ["expand-scheme", "elliptic.json", "--q", "5",
                                            "--r", "3"]),
        ("count-ff", "lab-mix", cli + ["count-ff", "line.json", "--q", "2,3,5",
                                       "--r", "1..4"]),
        ("taylor-check", "lab-mix", cli + ["taylor-check", "tr_x2.json", "--r", "2",
                                           "--K", "5"]),
        ("taylor-check-2d", "lab-mix", cli + ["taylor-check", "tr_2d_half.json", "--r", "2",
                                              "--K", "3"]),
        ("det-cover", "cover", cli + ["det-cover", "cover.json"]),
    ]
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"),
               PYTHONPYCACHEPREFIX=str(ctx.workdir / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(args):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable] + args, cwd=ctx.workdir, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        return proc.returncode, proc.stderr, time.perf_counter() - t0

    def case(name, workload, args):
        def stage():
            if name not in ctx.facts:  # the warm-up, run as `python -c`
                code = args[1] if args[0] == "-c" else (
                    f"import runpy; runpy.run_module({args[1]!r}, run_name='__main__', "
                    "alter_sys=True)")
                exit_code, err, _ = run(["-c", REPORT_NUMPY + code] + args[2:])
                loaded = err.rstrip().rsplit("\n", 1)[-1]
                if not loaded.startswith("numpy loaded: "):
                    raise SystemExit(f"{name}: exit {exit_code}\n{err[-1000:]}")
                ctx.facts[name] = {"command": " ".join(["python"] + args),
                                   "workload": workload, "exit": exit_code,
                                   "numpy_loaded": loaded == "numpy loaded: True"}
                return None
            exit_code, err, seconds = run(args)
            if exit_code != ctx.facts[name]["exit"]:
                raise SystemExit(f"{name}: exit {exit_code}\n{err[-1000:]}")
            return {"s": seconds}
        return stage

    return {name: case(name, workload, args) for name, workload, args in cases}


# --- harness ---------------------------------------------------------------

class Absent(Exception):
    """A stage reads a program internal that the measured checkout lacks."""


def internal(owner, name):
    """The attribute `name` of a program module.  Stages look their
    internals up when they run, so a checkout without one reports that
    stage absent and the other stages still run."""
    try:
        return vars(owner)[name]
    except KeyError:
        raise Absent(f"{owner.__name__} has no attribute {name!r}") from None


# name: (stage-table builder, default --reps, whether a stage's runs return
# their own {part: seconds} rather than being timed whole)
SUITES = {"tr": (tr, 15, False), "labmix": (labmix, 15, False),
          "detmethod": (detmethod, 15, True), "hilbert": (hilbert, 5, True),
          "startup": (startup, 5, True)}


def load(root):
    """perfbench/workloads.py of the checkout at root, with the program
    imported from the same checkout."""
    for path in (root / "perfbench", root / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads

    return workloads


def build(name, root, workdir, seed):
    """The suite's stage table {stage: callable} at the checkout at root, its
    inputs written to workdir, and the dict its stages record facts in;
    no stage runs."""
    workloads = load(root)
    workloads.write_inputs(str(workdir))
    ctx = SimpleNamespace(root=root, workloads=workloads, workdir=Path(workdir),
                          seed=seed, facts={})
    return SUITES[name][0](ctx), ctx.facts


def sig(x):
    return float(f"{x:.4g}")


def sample(stage, reps, split):
    """One untimed warm-up, then reps runs: {part: [seconds]}; a stage that
    does not split is timed whole, as part "s"."""
    stage()
    runs = []
    for _ in range(reps):
        t0 = time.perf_counter()
        parts = stage()
        runs.append(parts if split else {"s": time.perf_counter() - t0})
    return {part: [run[part] for run in runs] for part in runs[0]}


def measure(name, root, reps, seed, only):
    """{stage: {part: median seconds, "facts": ...}} of one suite, run in
    this interpreter; `only` is a list of stage names or None."""
    with tempfile.TemporaryDirectory(prefix=f"bench_{name}_") as tmp:
        stages, facts = build(name, root, tmp, seed)
        unknown = sorted(set(only or ()) - set(stages))
        if unknown:
            raise SystemExit(f"{name}: unknown stages {unknown}; known: {list(stages)}")
        out = {}
        for stage in only or stages:
            try:
                runs = sample(stages[stage], reps, SUITES[name][2])
            except Absent as exc:
                out[stage] = {"absent": str(exc)}
                continue
            out[stage] = {part: sig(statistics.median(values)) for part, values in runs.items()}
            if stage in facts:
                out[stage]["facts"] = facts[stage]
    return out


def summary(values):
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                  if len(values) > 1 else values * 3)
    return {"values": values, "median": sig(q2), "q1": sig(q1), "q3": sig(q3)}


def compare(name, roots, rounds, child_args):
    """Before/after values per stage and part, one per round; each round
    measures both checkouts in fresh interpreters, alternating which goes
    first."""
    runs = {side: [] for side in roots}
    for i in range(rounds):
        for side in ("before", "after") if i % 2 == 0 else ("after", "before"):
            proc = subprocess.run([sys.executable, __file__, name, "--root",
                                   str(roots[side]), *child_args],
                                  capture_output=True, text=True)
            if proc.returncode:
                raise SystemExit(f"{name} at {roots[side]}: exit {proc.returncode}\n"
                                 f"{proc.stderr[-2000:]}")
            runs[side].append(json.loads(proc.stdout)["suites"][name]["stages"])
    out = {}
    for stage, first in runs["after"][0].items():
        absent = {side: runs[side][0][stage]["absent"] for side in roots
                  if "absent" in runs[side][0][stage]}
        if absent:
            out[stage] = {"absent": absent}
            continue
        entry = {}
        for part in [part for part in first if part != "facts"]:
            values = {side: [run[stage][part] for run in runs[side]] for side in roots}
            entry[part] = {side: summary(v) for side, v in values.items()}
            entry[part]["after_wins"] = sum(a < b for a, b in
                                            zip(values["after"], values["before"]))
        if "facts" in first:
            entry["facts"] = {side: runs[side][0][stage]["facts"] for side in roots}
            if "sha256" in first["facts"]:
                entry["same_bytes"] = len({run[stage]["facts"]["sha256"]
                                           for side in roots for run in runs[side]}) == 1
        out[stage] = entry
    return out


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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("suite", choices=[*SUITES, "all"])
    ap.add_argument("--stages", help="comma-separated stage names of one suite "
                    "(default: all)")
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                    help="checkout to measure (default: this script's)")
    ap.add_argument("--before", help="checkout compared against, run alternately")
    ap.add_argument("--rounds", type=int, default=4, help="rounds of --before")
    ap.add_argument("--reps", type=int, help="timed runs per stage after one warm-up "
                    f"(default: {', '.join(f'{s} {r}' for s, (_, r, _) in SUITES.items())})")
    ap.add_argument("--seed", type=int, default=3, help="seed of the detmethod trials")
    ap.add_argument("--out", help="write the JSON here as well as to stdout")
    args = ap.parse_args(argv)
    if args.reps is not None and args.reps < 1 or args.rounds < 1:
        ap.error("--reps and --rounds must be >= 1")
    if args.stages and args.suite == "all":
        ap.error("--stages names stages of one suite")

    root = Path(args.root).resolve()
    script = ["python3 tools/bench.py", args.suite]
    script += ["--stages", args.stages] if args.stages else []
    script += ["--before <checkout>", f"--rounds {args.rounds}"] if args.before else []
    script += [f"--reps {args.reps}"] if args.reps else []
    out = {"script": " ".join(script + [f"--seed {args.seed}"])}
    if args.before:
        roots = {"before": Path(args.before).resolve(), "after": root}
        out.update({side: describe(path) for side, path in roots.items()})
    else:
        out["checkout"] = describe(root)
    out["machine"] = (f"{os.cpu_count()} CPUs, {platform.system()} {platform.machine()}, "
                      f"Python {platform.python_version()}, raw seconds (not probe-scaled)")
    out["statistic"] = "per stage and part, the median over --reps runs after one untimed " \
        "warm-up" + (f"; with --before, per checkout the values of {args.rounds} rounds, "
                     "each in a fresh interpreter, the checkout that runs first "
                     "alternating, their median and quartiles, and after_wins, the "
                     "rounds in which --root took less" if args.before else "")
    out["suites"] = {}
    for name in SUITES if args.suite == "all" else [args.suite]:
        fn, default_reps, _ = SUITES[name]
        reps = args.reps or default_reps
        if args.before:
            child = ["--reps", str(reps), "--seed", str(args.seed)]
            child += ["--stages", args.stages] if args.stages else []
            stages = compare(name, roots, args.rounds, child)
        else:
            stages = measure(name, root, reps, args.seed,
                             args.stages.split(",") if args.stages else None)
        out["suites"][name] = {"what": " ".join(fn.__doc__.split("\n\n")[0].split()),
                               "reps": reps, "stages": stages}
    text = json.dumps(out, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    differ = [f"{name} {stage}" for name, suite in out["suites"].items()
              for stage, entry in suite["stages"].items() if entry.get("same_bytes") is False]
    if differ:
        sys.stderr.write(f"output bytes differ between the checkouts: {', '.join(differ)}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
