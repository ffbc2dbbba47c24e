"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line (run with -s to watch them live)."""

import random
from fractions import Fraction

import oracles
from oracles import compose, count_expanded
from conftest import (
    CIRCLE_FF,
    ELLIPTIC,
    HYPERB_T,
    LINE,
    PARAB_T,
    conic_generator,
    cuspidal_generator,
    graph_variety,
    ideal_table,
    power_curve_generator,
)
from nonarch_lab.arith_core import Ball, MultiPoly
from nonarch_lab.combinatorics import DetSetup, alpha_bound, e_of
from nonarch_lab.detmethod import certify_components, cover_points, det_bound_check
from nonarch_lab.ffcount import enumerate_Xr, estimate_delta, expand_scheme
from nonarch_lab.heights import SemialgSpec, enumerate_heights, points_Q
from nonarch_lab.hilbert import salberger_check, select_delta_alpha
from nonarch_lab.taylor import (
    PolyMap,
    check_Tr,
    verify_gauss1a,
)


def report(num, desc, ok):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_power_graph_exact_law():
    grid = [(2, dd, r) for dd in (2, 3) for r in range(1, 7)] + \
           [(3, dd, r) for dd in (2, 3) for r in range(1, 6)] + \
           [(5, dd, r) for dd in (2, 3) for r in range(1, 5)]
    ok = True
    for q, dd, r in grid:
        count = enumerate_Xr(graph_variety(dd), q, r)
        if count != q ** (-(-r // dd)):
            ok = False
            break
    report(1, "y=x^d counts are exactly q^ceil(r/d) on the full grid", ok)


def test_criterion_02_trivial_bound_tight_on_line():
    ok = True
    for r in range(1, 5):
        counts = {q: enumerate_Xr(LINE, q, r) for q in (2, 3, 5)}
        if any(counts[q] != q ** r for q in counts):
            ok = False
        delta, mu, slack = estimate_delta(counts, r, LINE.n)
        if (delta, mu, slack) != (r, 1, 0):
            ok = False
    report(2, "line x+y=0 counts q^r exactly and fits delta = r", ok)


def test_criterion_03_ffBP_bound_elliptic():
    ok = True
    for r in (1, 2, 3):
        counts = {q: enumerate_Xr(ELLIPTIC, q, r) for q in (5, 7, 11, 13)}
        delta, mu, slack_sq = estimate_delta(counts, r, ELLIPTIC.n)
        if delta > -(-r // 3):            # ceil(r/3) with m = 1
            ok = False
        if slack_sq > 100:                # slack C <= 10, compared squared
            ok = False
    report(3, "y^2=x^3-x fits integer delta <= ceil(r/3) with slack <= 10", ok)


def test_criterion_04_represent_identification():
    varieties = [LINE, ELLIPTIC, PARAB_T, HYPERB_T, CIRCLE_FF]
    ok = True
    for X in varieties:
        for q in (2, 3, 5):
            for r in (1, 2, 3):
                direct = enumerate_Xr(X, q, r)
                via_scheme = count_expanded(expand_scheme(X, q, r), q, r, X.n)
                if direct != via_scheme:
                    ok = False
    report(4, "enumerate_Xr equals count_expanded(expand_scheme) on 5 varieties", ok)


def _acceptance_tables():
    return {
        "conic": ([conic_generator()],
                  ideal_table([conic_generator()])),
        "cuspidal": ([cuspidal_generator()],
                     ideal_table([cuspidal_generator()])),
        "y=x^4": ([power_curve_generator(4)],
                  ideal_table([power_curve_generator(4)])),
    }


def test_criterion_05_hilbert_identities():
    ok = True
    for name, (gens, table) in _acceptance_tables().items():
        raw = [{e: c for e, c in g.terms.items()} for g in gens]
        for s in range(0, 13):
            if table.hilbert_function(s) != oracles.hilbert_codimension(raw, 3, s):
                ok = False
        for s in range(1, 21):
            if s * table.hilbert_function(s) != sum(table.sigma_all(s)):
                ok = False
    report(5, "H via LT equals brute-force codimension (s<=12) and sH = sum sigma (s<=20)", ok)


def test_criterion_06_salberger_check():
    ok = True
    for name, (_gens, table) in _acceptance_tables().items():
        for s in (10, 20, 30):
            rep = salberger_check(table, s, m=1)
            if not rep.ok:
                ok = False
    report(6, "(sigma_1+sigma_2)/(sH) <= 1/2 + 2/s at s = 10, 20, 30", ok)


def test_criterion_07_delta_alpha_selection():
    conic = _acceptance_tables()["conic"][1]
    ok = select_delta_alpha(conic, 2, 4) == (2, 2)
    for d in (1, 2, 3, 4):
        table = ideal_table([power_curve_generator(d)])
        for r in range(1, 13):
            delta, alpha = select_delta_alpha(table, d, r)
            mu, e = table.mu_e(delta)
            sig = table.sigma_all(delta)
            if not (Fraction((r - 1) * (sig[1] + sig[2]), e) < alpha <= -(-r // d)):
                ok = False
    report(7, "select_delta_alpha returns (2,2) for the conic and valid pairs for d<=4, r<=12", ok)


def test_criterion_08_determinant_estimate_500():
    rng = random.Random(2024)
    p = 3
    trials = violations = 0
    while trials < 500:
        n = rng.choice([1, 2])
        d = rng.choice([1, 2])
        setup = DetSetup.for_dims(1, n, d)
        alpha = rng.randint(0, 2)
        center = rng.randint(0, p ** alpha - 1) if alpha else 0
        ball = Ball(p, (center,), alpha)
        comps = [MultiPoly(1, {(k,): rng.randint(-9, 9) for k in range(3)})
                 for _ in range(n)]
        psi = PolyMap(1, n, comps, domain=ball)
        certs = certify_components(psi, setup.r, ball)
        if not all(c.holds for c in certs):
            continue
        pts = [(center + p ** alpha * rng.randint(0, 80),)
               for _ in range(setup.mu)]
        rep = det_bound_check(psi, pts, ball, d, certificates=certs)
        if not rep.ok:
            violations += 1
        if rep.setup.e != e_of(1, n, d):
            violations += 1
        trials += 1
    report(8, f"ord(det) >= e*alpha in all 500 certified trials ({violations} violations)",
           violations == 0)


def test_criterion_09_end_to_end_cover():
    curve = SemialgSpec(2, [MultiPoly(2, {(0, 1): 1, (2, 0): -1})])
    psi = PolyMap(1, 2, [MultiPoly(1, {(1,): 1}), MultiPoly(1, {(2,): 1})])
    ok = True
    for T in (10, 100):
        setup = DetSetup.for_dims(1, 2, 2)
        alpha = alpha_bound(setup, T, 3)
        cover = cover_points(curve, psi, T, 2, 3)
        if cover.alpha != alpha or cover.size > 3 ** alpha:
            ok = False
        covered = sorted(pt for rec in cover.records for pt in rec.points)
        grid = [Fraction(v) for v in range(-T, T + 1)]
        if covered != sorted(oracles.grid_points(curve, grid)):
            ok = False
        for rec in cover.records:
            if rec.aux.poly.degree() > 2 or rec.aux.beta_coeff == 0:
                ok = False
            for pt in rec.points:
                if rec.aux.poly.eval([Fraction(c) for c in pt]) != 0:
                    ok = False
    report(9, "y=x^2 covers at T=10,100: all points covered, size <= p^alpha, aux polys vanish", ok)


def test_criterion_10_tr_suite():
    ok = True
    x2 = PolyMap.univariate([0, 0, 1], domain=Ball(3, (0,), 0))
    if not check_Tr(x2, 2, K=5).holds:
        ok = False
    binom = PolyMap.univariate([0, Fraction(-1, 2), Fraction(1, 2)],
                               domain=Ball(2, (0,), 0))
    cert = check_Tr(binom, 1, K=5)
    if cert.verdict != "fails" or (cert.witness["x"], cert.witness["y"]) != (2, 0):
        ok = False

    rng = random.Random(77)
    pairs = 0
    while pairs < 100:
        p = rng.choice([2, 3])
        ball = Ball(p, (0,), 0)
        f = PolyMap.univariate(
            [rng.randint(-9, 9) for _ in range(rng.randint(2, 4))], domain=ball)
        g = PolyMap.univariate(
            [rng.randint(-9, 9) for _ in range(rng.randint(2, 4))], domain=ball)
        r = rng.choice([2, 3])
        if not (check_Tr(f, r, K=5).holds and check_Tr(g, r, K=5).holds):
            continue
        pairs += 1
        if not check_Tr(compose(g, f), r, K=5).holds:      # Lemma on products
            ok = False
        for ell in range(1, r):                               # downward closure
            if not (check_Tr(f, ell, K=5).holds and check_Tr(g, ell, K=5).holds):
                ok = False
    report(10, "T_r suite: x^2 holds, binomial witness (2,0), 100 compositions + downward closure", ok)


def test_criterion_11_gauss1a_suite():
    ok = True
    for p in (2, 3):
        for r in (2, 3):
            for coeffs in ([0, 1], [0, 0, 1], [0, p, 1]):
                rep = verify_gauss1a(PolyMap.univariate(coeffs), r, p,
                                     i_max=2 * r, K=8)
                if not rep.all_hold:
                    ok = False
    report(11, "g(x^N) satisfies T_r exhaustively mod p^8 for g in {x, x^2, x^2+px}", ok)


def test_criterion_12_heights_oracle_equivalence():
    circle = SemialgSpec(2, [MultiPoly(2, {(2, 0): 1, (0, 2): 1, (0, 0): -1})])
    pts = points_Q(circle, 5)
    ok = len(pts) == 12 and sorted(pts) == oracles.circle_points(5)
    for T in range(1, 51):
        mine = [Fraction(*v) for v in enumerate_heights(T)]
        if len(mine) != len(set(mine)) or set(mine) != oracles.rationals_of_height(T):
            ok = False
            break
    report(12, "points_Q(circle, 5) = 12 oracle points; height enumeration matches oracle for T <= 50", ok)
