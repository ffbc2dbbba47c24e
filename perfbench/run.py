#!/usr/bin/env python3
"""Time-to-exact-result benchmark of nonarch-lab, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ff-sparse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload (see workloads.py) is a closed loop with one client in one
process: the next job starts when the previous one returns.  --seconds sets
the number of passes over the job list from the workload's nominal pass time
on the reference machine, so two commits measured with the same --seconds do
identical work.  Every job's exit code and report bytes are checked against
the goldens; a difference fails the job and the run exits 1.

Times are reported in reference seconds: the shared host that runs the
benchmark changes speed by up to 1.5x within seconds (process CPU time
moves with wall time, so the program's own CPU time does not help).  A
fixed probe of pure-Python work (probe()) runs before and after every job
and every set-up sample, and each measured time is scaled by the probe's
reference duration over its mean duration on either side, so a slow
stretch of the host is not read as a slow program.  The raw seconds are
printed beside every scaled metric.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics; the difference between the
two kinds of pass is trace.overhead_frac.  Spans go to
.perfbench_out/spans-<workload>.csv.gz.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 11  # fresh interpreters, spread between the untraced passes
MIN_PASSES = 3
# probe() duration on the reference machine (2 vCPUs of a shared host, in
# its faster state); scaled times are seconds at this host speed.
PROBE_REF_S = 0.0045
PINNED_ENV = ("NONARCH_LAB_THREADS", "NONARCH_LAB_NO_NUMBA")

END_TO_END = [  # name, unit: the metrics in the result line
    ("wall_s", "s"), ("job_s.tail", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
]
# Printed only.  On lab-mix the median job falls between a group of jobs
# under 0.02 s and one near 0.1 s, so it is the mean of two extreme order
# statistics; across ten seeded runs on a shared 2-vCPU VM its quartiles
# spread 0.32 of its median.
PRINTED_ONLY = [("job_s.p50", "s")]


class BenchError(Exception):
    """The benchmark cannot run here (no program source, bad goldens)."""


def import_program():
    """Import the program from this checkout's src/, never from elsewhere."""
    for var in PINNED_ENV:
        os.environ.pop(var, None)
    if not (SRC / "nonarch_lab" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import nonarch_lab
    from nonarch_lab import (_kernels, cli, detmethod, ffcount, heights,  # noqa: F401
                             hilbert, taylor)

    if Path(nonarch_lab.__file__).resolve().parent != SRC / "nonarch_lab":
        raise BenchError(f"nonarch_lab imported from {nonarch_lab.__file__}")
    return _kernels


def load_goldens(workload):
    path = GOLDENS / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"missing goldens {path}")
    with open(path) as fh:
        return json.load(fh)


def setup(workload, seed):
    """Everything between process start and the first job."""
    kernels = import_program()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    workloads.write_inputs(workdir)
    jobs, checks = workloads.build_jobs(workload, str(workdir), seed)
    goldens = load_goldens(workload)
    return kernels, workdir, jobs, checks, goldens


def remove_workdir(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass


def probe():
    """Seconds the host takes now for a fixed piece of pure-Python work:
    small-int arithmetic and a Fraction sum with growing denominators, the
    two kinds of work the program does in the interpreter.  The median of
    three tries.  The garbage collector is off meanwhile, so a program that
    tunes the collector cannot change the probe."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        tries = []
        for _ in range(3):
            t0 = time.perf_counter()
            acc = 0
            for i in range(40000):
                acc += i * i % 7
            frac = Fraction(0)
            for i in range(1, 600):
                frac += Fraction(i, i + 1)
            tries.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(tries)


def scale(seconds, before, after):
    """Measured seconds in reference seconds, from the probes either side."""
    return seconds * PROBE_REF_S / ((before + after) / 2)


def time_setup(workload, seed):
    """Seconds from the start of a fresh interpreter to its first job.  The
    child prints CLOCK_MONOTONIC when set-up ends; that clock is shared by
    all processes on Linux."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1]) - t0


def share(total, parts):
    """`total` split as evenly as possible into `parts` whole numbers."""
    return [total * (i + 1) // parts - total * i // parts for i in range(parts)]


def judge(golden, check, code, report, exc):
    """None when the job matches its golden (and passes its check);
    'known-defect' for a recorded defect that still shows; otherwise why
    the job failed.  Seeded jobs have a golden only for recorded seeds and
    rely on their check for the others."""
    if golden is not None and "known_defect" in golden:
        return judge_known_defect(golden, code, report, exc)
    if exc is not None:
        return f"raised {type(exc).__name__}: {exc}"
    if golden is None and check is None:
        return "no golden recorded for this job"
    if golden is not None:
        if code != golden["exit"]:
            return f"exit code {code}, golden {golden['exit']}"
        if "report" in golden and report != golden["report"].encode():
            return f"report differs from golden ({len(report)} bytes)"
        if "sha256" in golden and hashlib.sha256(report).hexdigest() != golden["sha256"]:
            return "report digest differs from golden"
    elif code != 0:
        return f"exit code {code}"
    if check is not None:
        return check(report)
    return None


def judge_known_defect(golden, code, report, exc):
    """A job whose correct result the seed commit could not produce: it
    passes once it exits with the expected code and witness kind."""
    if exc is not None:
        if f"{type(exc).__name__}: {exc}" == golden["known_defect"]:
            return "known-defect"
        return f"raised {type(exc).__name__}: {exc}"
    try:
        witness = json.loads(report)["results"]["witness"]
    except (ValueError, KeyError, TypeError):
        witness = None
    if code == golden["exit"] and witness and witness.get("kind") == golden["witness_kind"]:
        return None
    return f"exit code {code}, witness {witness}; want exit {golden['exit']} with a " \
           f"{golden['witness_kind']} witness"


def time_setup_scaled(workload, seed):
    """One set-up sample, raw and scaled, keyed like a pass record."""
    before = probe()
    raw = time_setup(workload, seed)
    return {"latencies": raw, "scaled": scale(raw, before, probe())}


def run_passes(jobs, checks, goldens, seed, passes, tracer=None):
    """Run whole passes over the job list; returns per-pass records with
    each job's latency raw and scaled by the probes run right before and
    after it.  Jobs are judged after the pass, so nothing but the job runs
    between its two probes."""
    fixed = goldens.get("jobs", {})
    seeded = goldens.get("seeded", {}).get(str(seed), {})
    records = []
    for _ in range(passes):
        latencies, scaled, results = [], [], []
        before = probe()
        for job in jobs:
            if tracer:
                tracer.begin_job(job.id)
            t0 = time.perf_counter()
            try:
                code, report = job.run()
                exc = None
            except Exception as err:  # a raising job is a failed job
                code, report, exc = None, b"", err
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_job()
            after = probe()
            latencies.append(dt)
            scaled.append(scale(dt, before, after))
            before = after
            results.append((job, code, report, exc))
        outcomes, cli_bytes = [], 0
        for job, code, report, exc in results:
            if job.cli:
                cli_bytes += len(report)
            golden = fixed.get(job.id, seeded.get(job.id))
            outcomes.append((job.id, judge(golden, checks.get(job.id), code, report, exc)))
        records.append({"latencies": latencies, "scaled": scaled, "outcomes": outcomes,
                        "cli_bytes": cli_bytes})
    return records


def tail(samples):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond); the maximum below 11 samples."""
    xs = sorted(samples)
    i = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


def fmt(name, value, unit, note):
    shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
    return f"  {name:40s} {shown} {unit:6s} {note}"


def passes_for(workload, seconds):
    return max(MIN_PASSES, round(seconds / workloads.NOMINAL_PASS_S[workload]))


def run_workload(args):
    kernels, workdir, jobs, checks, goldens = setup(args.workload, args.seed)
    try:
        return measure(args, kernels, jobs, checks, goldens)
    finally:
        remove_workdir(workdir)


def measure(args, kernels, jobs, checks, goldens):
    import numpy

    if args.trace:
        untraced_n = traced_n = passes_for(args.workload, args.seconds / 2)
    else:
        untraced_n, traced_n = passes_for(args.workload, args.seconds), 0
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} jobs/pass={len(jobs)} passes={untraced_n}+{traced_n} traced "
          f"backend={kernels.backend()} python={sys.version.split()[0]} "
          f"numpy={numpy.__version__} cpus={os.cpu_count()} "
          f"NONARCH_LAB_THREADS/NO_NUMBA=unset")

    # Set-up samples are taken between the untraced passes, so they fall
    # across the whole run rather than in one stretch of machine speed.
    setups, records, traced, deltas = [], [], [], []
    tracer = tracing.Tracer() if traced_n else None
    for n_setups in share(SETUP_SAMPLES, untraced_n):
        setups += [time_setup_scaled(args.workload, args.seed) for _ in range(n_setups)]
        records += run_passes(jobs, checks, goldens, args.seed, 1)
        if tracer:
            # untraced and traced passes alternate, so machine-speed drift
            # affects both sides of trace.overhead_frac alike
            before = tracer.snapshot()
            try:
                tracing.install(tracer)
                traced += run_passes(jobs, checks, goldens, args.seed, 1, tracer)
            finally:
                tracer.uninstall()
            deltas.append(tracing.diff(tracer.snapshot(), before))
    if tracer:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}.csv.gz")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    all_records = records + traced
    attempted = sum(len(r["outcomes"]) for r in all_records)
    failures = [(jid, why) for r in all_records for jid, why in r["outcomes"] if why]
    unexpected = sorted({(jid, why) for jid, why in failures if why != "known-defect"})
    known = sorted({jid for jid, why in failures if why == "known-defect"})
    for jid, why in unexpected:
        print(f"FAILED {jid}: {why}")
    for jid in known:
        print(f"known defect still present: {jid} (counted as failed)")

    e2e, notes = {}, {}
    for kind, suffix in (("scaled", ""), ("latencies", ".raw")):
        walls = [sum(r[kind]) for r in records]
        lats = [x for r in records for x in r[kind]]
        tail_s, tail_pct, beyond = tail(lats)
        e2e.update({
            "wall_s" + suffix: statistics.median(walls),
            "job_s.p50" + suffix: statistics.median(lats),
            "job_s.tail" + suffix: tail_s,
            "setup_s" + suffix: statistics.median(s[kind] for s in setups),
        })
        notes.update({
            "wall_s" + suffix: f"median of {len(walls)} passes",
            "job_s.p50" + suffix: f"median of {len(lats)} jobs; not in the result line",
            "job_s.tail" + suffix: f"p{tail_pct:.1f} of {len(lats)} jobs, {beyond} beyond",
            "setup_s" + suffix: f"median of {len(setups)} fresh interpreters",
        })
    e2e["peak_rss_mb"] = peak_rss_mb
    notes["peak_rss_mb"] = "1 process" + (", traced passes included" if traced_n else "")
    speed = statistics.median(sum(r["scaled"]) / sum(r["latencies"]) for r in records)
    print(f"end to end (untraced; seconds scaled to reference host speed, raw beside; "
          f"host ran at {speed:.3f} of reference speed, median over passes):")
    for name, unit in END_TO_END + PRINTED_ONLY:
        print(fmt(name, e2e[name], unit, notes[name]))
        if unit == "s":
            print(fmt(name + ".raw", e2e[name + ".raw"], unit, "measured, not scaled"))
    print(fmt("failed_frac", len(failures) / attempted, "ratio",
              f"{len(failures)} failed / {attempted} attempted"))
    print("jobs (median scaled latency over untraced passes):")
    for i, job in enumerate(jobs):
        print(fmt(job.id, statistics.median(r["scaled"][i] for r in records), "s",
                  f"n={len(records)}"))

    correct = not unexpected
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    if traced_n:
        layers, counters_ok = layer_report(goldens, records, traced, deltas)
        correct = correct and counters_ok
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in tracing.LAYER_METRICS}
    return {"correct": correct, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def layer_report(goldens, records, traced, deltas):
    """Per-layer metrics (median over traced passes) and the counter check."""
    per_pass = [tracing.layer_values(delta, rec["cli_bytes"])
                for delta, rec in zip(deltas, traced)]
    layers = {name: statistics.median(p[name] for p in per_pass)
              for name, _, _ in tracing.LAYER_METRICS if name != "trace.overhead_frac"}
    untraced_wall = statistics.median(sum(r["scaled"]) for r in records)
    traced_wall = statistics.median(sum(r["scaled"]) for r in traced)
    layers["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall

    print(f"per layer (traced, median of {len(per_pass)} passes; "
          f"traced wall_s {traced_wall:.6g} s, scaled):")
    for name, unit, _ in tracing.LAYER_METRICS:
        print(fmt(name, layers[name], unit, f"n={len(per_pass)}"))

    ok = True
    for name in tracing.DETERMINISTIC_COUNTERS:
        values = {p[name] for p in per_pass}
        if len(values) > 1:
            ok = False
            print(f"COUNTER MISMATCH {name}: differs between traced passes {sorted(values)}")
    # Seed-independent counters were recorded with the goldens; a program
    # that does different work there must be re-recorded on purpose.
    for name, want in sorted(goldens.get("counters", {}).items()):
        got = per_pass[0][name]
        if got != want:
            ok = False
            print(f"COUNTER MISMATCH {name} = {got}, recorded {want}")
    if ok:
        print("counters: every deterministic counter repeats exactly across traced "
              "passes and matches the recording")
    return layers, ok


def run_all(args):
    """Every workload in its own process; prints their reports and one
    combined result line keyed workload/metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{workload}: no result (exit {proc.returncode})")
            return 1, None
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    return status, combined


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the monotonic clock and exit (set-up timing)")
    args = ap.parse_args(argv)
    try:
        if args.setup_only:
            if args.workload == "all":
                raise BenchError("--setup-only needs one workload")
            _, workdir, *_ = setup(args.workload, args.seed)
            print(f"{time.monotonic():.9f}")
            remove_workdir(workdir)
            return 0
        if args.workload == "all":
            status, result = run_all(args)
        else:
            result = run_workload(args)
            status = 0 if result["correct"] else 1
    except (BenchError, tracing.TraceError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    if result is not None:
        print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
