#!/usr/bin/env python3
"""Seconds of the T_r stages of the `tr-deep` benchmark workload.

Run from anywhere; --root names the source checkout to measure (default:
the checkout this script sits in), so two commits can be timed by the same
script:

    python3 tools/bench_tr.py --reps 15
    python3 tools/bench_tr.py --root ../other-checkout --reps 15

The inputs are those of `perfbench/workloads.py`: the twelve gauss1a suites
(p = 2, 3; r = 2, 3; g = x, x^2, x^2 + px; K = 8) and the degree-7 map on
1 + 3Z_3 at r = 3, K = 8; plus three multivariate maps and two in one
variable.  Each stage runs once to warm up, then --reps times; the first
four over all thirteen checks:

  residue-build  the residues mod p^K of every checked ball as an integer
                 array (`Ball.residue_array`)
  pair-sweep     `_kernels.tr_pair_sweep` on every component's table
                 (`taylor._residue_table` modulo p^s, zeros when s = 0;
                 every tr-deep map has s = 0, so each call returns at once)
  preimage-balls `PowerPreimage.maximal_balls` of the twelve suites
  total          the thirteen library calls whole: `taylor.verify_gauss1a`
                 per suite and `taylor.check_Tr` of the degree-7 map
  nd-K2, nd-K3   `taylor.check_Tr` of (x^2 + xy + y^2 + y^3)/3 on 3Z_3^2
                 at r = 1 and K = 2, 3 (it holds)
  nd-xy81        `taylor.check_Tr` of xy + x^3 y^4/81 on 3Z_3^2 at r = 1
                 and the default K (it holds with s = 4 > alpha = 1, so
                 the remainder half runs on the classes mod 3^4)
  nd-xy243       the same with x^3 y^4/3^5 (s = 5, classes mod 3^5; 9 of
                 its 17 remainder terms are zero mod 3^5)
  1d-highK       `taylor.check_Tr` at r = 1 of (x^2 - x)/2 on Z_2 at K = 14
                 and of (x^5 - x)/5 on Z_5 at K = 6, both failing (s = 1:
                 a check that lists the residues mod p^K pays for K)

The output is one JSON object: per stage, the median over repetitions in
raw seconds of this host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path


def _stages(workloads):
    import numpy as np

    from nonarch_lab import _kernels, cli, taylor
    from nonarch_lab.arith_core import Ball, MultiPoly, val_int
    from nonarch_lab.combinatorics import select_divisibility

    K = 8
    suites, preimages, checks = [], [], []  # checks: (map, r, ball)
    for p in (2, 3):
        for r in (2, 3):
            k = select_divisibility(p, r, 2 * r)
            N = p ** (k * r)
            pre = taylor.PowerPreimage(Ball(p, (Fraction(1),), k + 1), N, (Fraction(1),))
            preimages.append(pre)
            for coeffs in ([0, 1], [0, 0, 1], [0, p, 1]):
                g = taylor.PolyMap.univariate(coeffs)
                suites.append((g, r, p))
                gN = taylor.power_compose(g, N, 1)
                checks += [(gN, r, ball) for ball in pre.maximal_balls()]
    deg7 = cli.parse_polymap(workloads.TR_DEG7)
    checks.append((deg7, 3, deg7.domain))

    tables = []
    for f, r, ball in checks:
        s = max(val_int(c.denominator, ball.p) for comp in f.components
                for c in comp.terms.values())
        mod = ball.p ** s
        xs = ball.residue_array(K)[:, 0] % mod
        for ci, comp in enumerate(f.components):
            table = (taylor._residue_table(taylor._derivative_table(f)[ci],
                                           xs[:, None], ball.p, s) if s
                     else np.zeros((len(xs), comp.degree() + 1), dtype=xs.dtype))
            tables.append((table, xs, mod, r))
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

    def residue_build():
        for _f, _r, ball in checks:
            ball.residue_array(K)

    def pair_sweep():
        for table, xs, mod, r in tables:
            _kernels.tr_pair_sweep(table, xs, mod, r)

    def preimage_balls():
        for pre in preimages:
            pre.maximal_balls()

    def total():
        for g, r, p in suites:
            taylor.verify_gauss1a(g, r, p, i_max=2 * r, K=K)
        taylor.check_Tr(deg7, 3, taylor.ExhaustiveStrategy(K=K))

    def nd(K):
        return lambda: taylor.check_Tr(nd_map, 1, taylor.ExhaustiveStrategy(K=K))

    def high_k():
        taylor.check_Tr(binomial, 1, taylor.ExhaustiveStrategy(K=14))
        taylor.check_Tr(quintic, 1, taylor.ExhaustiveStrategy(K=6))

    return {"residue-build": residue_build, "pair-sweep": pair_sweep,
            "preimage-balls": preimage_balls, "total": total,
            "nd-K2": nd(2), "nd-K3": nd(3),
            "nd-xy81": lambda: taylor.check_Tr(xy81, 1),
            "nd-xy243": lambda: taylor.check_Tr(xy243, 1),
            "1d-highK": high_k}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    ap.add_argument("--reps", type=int, default=15)
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    out = {}
    for name, stage in _stages(workloads).items():
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
