#!/usr/bin/env python3
"""Per-stage seconds of the jobs of the `cover` benchmark workload.

Run from anywhere; --root names the source checkout to measure (default:
the checkout this script sits in), so two commits can be timed by the same
script:

    python3 tools/bench_detmethod.py --seed 3 --reps 15
    python3 tools/bench_detmethod.py --root ../other-checkout --seed 3 --reps 15

Each job of `perfbench/workloads.py`'s `cover` list runs once to warm up,
then --reps times.  Every repetition splits the job's wall time into four
stages, by timing wrappers put on module attributes (the way the benchmark
tracer wraps them):

  certify `detmethod.certify_components`, the T_r certificate of each
          component (one `check_Tr` per component)
  build   `detmethod.MonomialMatrix.build`
  linalg  `detmethod._bareiss`, the one elimination kernel behind every
          rank, determinant and auxiliary-polynomial solve
  other   the rest of the job, including the monomial matrix that
          `auxiliary_polynomial` builds inline and the clearing of
          denominators before each elimination

Only outermost calls count, so no time is counted twice.  The output is
one JSON object: per job, the median over repetitions of each stage and of
the total, in raw seconds of this host.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path


def _install_timers(detmethod, acc):
    depth = [0]

    def timed(fn, stage):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[stage] += time.perf_counter() - t0
                depth[0] -= 1
        return wrapper

    detmethod.certify_components = timed(detmethod.certify_components, "certify")
    detmethod._bareiss = timed(detmethod._bareiss, "linalg")
    build = detmethod.MonomialMatrix.build.__func__
    detmethod.MonomialMatrix.build = classmethod(timed(build, "build"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--reps", type=int, default=15)
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from nonarch_lab import detmethod

    stages = ("certify", "build", "linalg")
    acc = dict.fromkeys(stages, 0.0)
    _install_timers(detmethod, acc)
    out = {}
    with tempfile.TemporaryDirectory(prefix="bench_detmethod_") as workdir:
        workloads.write_inputs(workdir)
        jobs, _ = workloads.build_jobs("cover", workdir, args.seed)
        for job in jobs:
            job.run()
            samples = {k: [] for k in ("total",) + stages + ("other",)}
            for _ in range(args.reps):
                acc.update(dict.fromkeys(stages, 0.0))
                t0 = time.perf_counter()
                job.run()
                total = time.perf_counter() - t0
                samples["total"].append(total)
                for k in stages:
                    samples[k].append(acc[k])
                samples["other"].append(total - sum(acc.values()))
            out[job.id] = {k: round(statistics.median(v), 6) for k, v in samples.items()}
    print(json.dumps({"root": str(root), "seed": args.seed, "reps": args.reps,
                      "jobs": out}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
