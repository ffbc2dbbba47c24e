#!/usr/bin/env python3
"""Seconds of the repeated stages of the `lab-mix` benchmark workload, of
the F_q[t] counts of `lab-mix` and `ff-sparse` and of three deeper ones,
of two dense ones, and of `expand_scheme`.

Run from anywhere; --root names the source checkout to measure (default:
the checkout this script sits in), so two commits can be timed by the same
script:

    python3 tools/bench_labmix.py --reps 15
    python3 tools/bench_labmix.py --root ../other-checkout --reps 15
    python3 tools/bench_labmix.py --stages fit,count-labmix --reps 30

The inputs are those of `perfbench/workloads.py`.  Each stage runs once to
warm up, then --reps times:

  parser          one `cli.build_parser()` call, as every `cli.main()` makes
                  it
  fit             `ffcount.verify_bounds` for every r of the two `count-ff`
                  jobs (x + y = 0 over q = 2, 3, 5 and y = x^2 + tx over
                  q = 2, 3, r = 1..4); the counts are computed once, outside
                  the timing
  count-labmix    the 20 `ffcount.enumerate_Xr` calls of those two jobs
  count-elliptic  the 12 `ffcount.enumerate_Xr` calls of `ff-sparse`:
                  y^2 = x^3 - x over q = 5, 7, 11, 13, r = 1..3
  count-deep      `ffcount.enumerate_Xr` on y^2 = x^3 - x at (q, r) =
                  (13, 4), (7, 6) and (13, 5), with the q^(r*n) cap raised
                  past 13^10
  count-dense     `ffcount.enumerate_Xr` on x^4 y^4 + x = 0 at (q, r) =
                  (5, 5) and on x^2 y^2 z^2 = 1 at (3, 3): many-factor terms
                  whose t-powers past the lifting levels hold thousands of
                  monomials, so an evaluator that expands them into
                  monomials blows up
  expand-scheme   `ffcount.expand_scheme` on y^2 = x^3 - x at q = 5, r = 3,
                  the input of `lab-mix`'s `expand-scheme` job
  grid-circle-Q10 `heights._grid_points` for x^2 + y^2 = 1 over the
                  rationals of height <= 10, as the (numerator, denominator)
                  pairs of `heights.enumerate_heights`
  grid-parabola-Z100
                  `heights._grid_points` for y = x^2 over the integers of
                  absolute value <= 100, as pairs (v, 1) (the curve of
                  `det-cover`)
  points-parabola-Z20000
                  `heights.points_Z` for y = x^2 at T = 2*10^4, with the cap
                  raised past the (2T+1)^2 grid: 40,001 fibres, 283 points
  points-circle-Q100
                  `heights.points_Q` for x^2 + y^2 = 1 at T = 100, with the
                  cap raised past the grid of 12,175^2 candidates

The output is one JSON object: per stage, the median over repetitions in
raw seconds of this host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path


def _stages(workloads):
    from nonarch_lab import cli, ffcount, heights

    def count_table(data, qs, rs):
        X = ffcount.VarietySpec.from_json(data)
        return [(X, r, {q: ffcount.enumerate_Xr(X, q, r) for q in qs}) for r in rs]

    def count_labmix():
        return (count_table(workloads.LINE, (2, 3, 5), range(1, 5))
                + count_table(workloads.PARABOLA_T, (2, 3), range(1, 5)))

    fits = count_labmix()

    def fit():
        for X, r, counts in fits:
            ffcount.verify_bounds(counts, X, r)

    elliptic = ffcount.VarietySpec.from_json(workloads.ELLIPTIC)
    dense = [(ffcount.VarietySpec(2, [{(4, 4): (1,), (1, 0): (1,)}]), 5, 5),
             (ffcount.VarietySpec(3, [{(2, 2, 2): (1,), (0, 0, 0): (-1,)}]), 3, 3)]
    circle = cli.parse_semialg(workloads.CIRCLE)
    parabola = cli.parse_semialg(workloads.COVER["curve"])
    heights_10 = list(heights.enumerate_heights(10))
    integers_100 = [(v, 1) for v in range(-100, 101)]
    return {
        "parser": cli.build_parser,
        "fit": fit,
        "count-labmix": count_labmix,
        "count-elliptic": lambda: count_table(workloads.ELLIPTIC, (5, 7, 11, 13), range(1, 4)),
        "count-deep": lambda: [ffcount.enumerate_Xr(elliptic, q, r, cap=13 ** 10)
                               for q, r in ((13, 4), (7, 6), (13, 5))],
        "count-dense": lambda: [ffcount.enumerate_Xr(X, q, r) for X, q, r in dense],
        "expand-scheme": lambda: ffcount.expand_scheme(elliptic, 5, 3),
        "grid-circle-Q10": lambda: heights._grid_points(circle, heights_10, 10**7),
        "grid-parabola-Z100": lambda: heights._grid_points(parabola, integers_100, 10**7),
        "points-parabola-Z20000": lambda: heights.points_Z(parabola, 2 * 10**4, cap=10**10),
        "points-circle-Q100": lambda: heights.points_Q(circle, 100, cap=10**10),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    ap.add_argument("--reps", type=int, default=15)
    ap.add_argument("--stages", help="comma-separated stage names to run "
                    "(default: all)")
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    stages = _stages(workloads)
    if args.stages:
        names = args.stages.split(",")
        unknown = sorted(set(names) - set(stages))
        if unknown:
            ap.error(f"unknown stages {unknown}; known: {sorted(stages)}")
        stages = {name: stages[name] for name in names}
    out = {}
    for name, stage in stages.items():
        stage()
        samples = []
        for _ in range(args.reps):
            t0 = time.perf_counter()
            stage()
            samples.append(time.perf_counter() - t0)
        out[name] = float(f"{statistics.median(samples):.4g}")
    print(json.dumps({"root": str(root), "reps": args.reps, "stages": out}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
