import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from nonarch_lab.arith_core import Ball, MultiPoly, val_int
from nonarch_lab.errors import BoundViolation, CapExceededError, ConfigError, PrecisionError
from nonarch_lab.taylor import (
    PolyMap,
    PowerPreimage,
    _astuple,
    _derivative_table,
    _powers,
    _scaled,
    _value,
    check_Tr,
    compose,
    cr_norm,
    merge_residue_balls,
    power_compose,
    recheck_witness,
    verify_gauss0,
    verify_gauss1a,
)

Z2 = Ball(2, (0,), 0)
Z3 = Ball(3, (0,), 0)

X2 = PolyMap.univariate([0, 0, 1], domain=Z3)
X3 = PolyMap.univariate([0, 0, 0, 1], domain=Z3)
BINOM2 = PolyMap.univariate([0, Fraction(-1, 2), Fraction(1, 2)], domain=Z2)


def test_cr_norm_examples():
    assert cr_norm(X2, 2, Z3) == 0
    assert cr_norm(BINOM2, 2, Z2) == -1
    assert cr_norm(PolyMap.univariate([0, 0, 3]), 1, Z3) == 1


def test_cr_norm_gauss_equals_pointwise_sup():
    # with r >= deg f, the divided derivatives evaluated at the ball center
    # are the coefficients themselves, so the exhaustive pointwise minimum
    # attains the Gauss valuation exactly
    rng = random.Random(9)
    for _ in range(20):
        coeffs = [Fraction(rng.randint(-8, 8)) for _ in range(4)]
        if all(c == 0 for c in coeffs):
            continue
        f = PolyMap.univariate(coeffs)
        gauss = cr_norm(f, 3, Z3)
        points = range(0, 3 ** 4)
        pointwise = oracles.pointwise_cr_valuation(coeffs, 3, points, 3)
        assert gauss == pointwise
    # below the degree the Gauss valuation only dominates: (x^3-x)^2 has
    # C^1 data vanishing mod 3 at every point of Z_3 while a coefficient
    # of the derivative stays a unit
    sq = PolyMap.univariate([0, 0, 1, 0, -2, 0, 1])  # (x^3 - x)^2
    gauss = cr_norm(sq, 1, Z3)
    pointwise = oracles.pointwise_cr_valuation(
        [Fraction(c) for c in (0, 0, 1, 0, -2, 0, 1)], 1, range(0, 3 ** 4), 3)
    assert gauss == 0 and pointwise >= 1


def test_check_tr_x2_holds():
    cert = check_Tr(X2, 2, K=5)
    assert cert.verdict == "holds"
    assert cert.strategy == "exhaustive-mod-3^5"
    assert cert.K == 5


def test_check_tr_binomial_fails_with_witness():
    cert = check_Tr(BINOM2, 1, K=5)
    assert cert.verdict == "fails"
    assert cert.witness["kind"] == "remainder"
    assert (cert.witness["x"], cert.witness["y"]) == (2, 0)
    assert cert.witness["ord_lhs"] == 0 and cert.witness["bound_rhs"] == 1
    assert recheck_witness(BINOM2, 1, cert.witness, 2)


def _deep_tr_cases(rng):
    """Maps whose sweep modulus p^s is at least 2^31, on a ball of radius
    about s: one that holds (c x^3 on p^alpha Z_p), one whose remainder
    c (x - y)^2 fails at |x - y| = p^-alpha, and one whose remainder sweep
    passes but whose divided derivative g_1 = c is not integral."""
    for p, s, alpha in ((2, 31, 29), (2, 40, 38), (3, 20, 19)):
        c = Fraction(rng.choice([1, -1]), p ** s)
        k = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        yield p, 0, alpha, 1, [[k[0], k[1], 0, c]]
        yield p, 1, alpha, 1, [[k[0], k[1], c]]
        yield p, 0, alpha, 2, [[k[0], c, 0, 0, k[2]]]


def test_check_tr_matches_exact_oracle():
    # p-denominators make s > 0, so the sweep runs modulo p^s; verdict and
    # witness must be those of the definition checked pair by pair
    rng = random.Random(12)
    cases = []
    for _ in range(60):
        p = rng.choice([2, 3])
        ncomp = rng.choice([1, 1, 2])
        comps = []
        for _ in range(ncomp):
            comps.append([Fraction(rng.randint(-4, 4)) * Fraction(p) ** rng.randint(-1, 2)
                          for _ in range(rng.randint(2, 6))])
        comps[0][rng.randrange(len(comps[0]))] = Fraction(rng.choice([1, -1, 2]), p)
        alpha = rng.choice([0, 1])
        center = rng.randrange(p) if alpha else 0
        cases.append((p, center, alpha, rng.randint(1, 3), comps))
    deep = list(_deep_tr_cases(random.Random(31)))
    outcomes = []
    for p, center, alpha, r, comps in cases + deep:
        ball = Ball(p, (center,), alpha)
        f = PolyMap(1, len(comps), [MultiPoly(1, {(i,): c for i, c in enumerate(cs)})
                                    for cs in comps], domain=ball)
        # K = max(s + 2, alpha + 1): a few classes past K* = max(s, alpha) + 1
        s = max(val_int(c.denominator, p) for cs in comps for c in cs)
        cert = check_Tr(f, r, K=max(s + 2, alpha + 1))
        residues = [x[0] for x in oracles.ball_residues(ball, cert.K)]
        want = oracles.tr_residue_oracle(comps, r, p, residues)
        wit = cert.witness
        if want is None:
            assert cert.verdict == "holds"
            outcomes.append("holds")
            continue
        assert cert.verdict == "fails"
        assert recheck_witness(f, r, wit, p)
        outcomes.append(want[0])
        if want[0] == "remainder":
            assert (wit["kind"], wit["component"], wit["x"], wit["y"]) == want
        else:
            assert (wit["kind"], wit["component"], wit["order"], wit["y"],
                    wit["valuation"]) == (want[0], want[1], (want[2],), want[3], want[4])
    assert set(outcomes[:len(cases)]) == {"holds", "remainder", "cr_norm"}
    assert outcomes[len(cases):] == ["holds", "remainder", "cr_norm"] * 3


def _tr_2d_cases(rng):
    """(p, center, alpha, K, r, components) on Z_p^2 and Z_p^3 balls with
    few residues: fixed maps that hold with p-integral coefficients, hold
    with s > 0 and fail the remainder with integral C^r data; two C^r
    failures whose modulus p^s is at least 2^31; a remainder failure at
    that modulus; a remainder failure and a map that holds with s > alpha
    on Z_2^3; then seeded random maps and a seeded remainder family."""
    yield 3, (1, 2), 1, 2, 2, [{(2, 0): 1, (1, 1): 2}, {(0, 3): -1, (0, 0): 4}]
    yield 2, (0, 0), 1, 2, 1, [{(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)}]
    yield 3, (0, 0), 1, 2, 2, [{(3, 0): Fraction(1, 9), (1, 1): 1}]
    yield 2, (0, 0), 1, 2, 1, [{(0, 1): 1}, {(2, 0): Fraction(1, 4)}]
    yield 2, (1, 0), 30, 31, 2, [{(1, 1): Fraction(1, 2 ** 31), (2, 0): 3}]
    yield 3, (2, 0), 19, 20, 2, [{(0, 3): 1}, {(1, 1): Fraction(-1, 3 ** 20)}]
    # (x0 - x1)^2 / 2^31: C^1 data integral on x0 = x1 = 5 mod 2^30
    yield 2, (5, 5), 30, 31, 1, [{(2, 0): Fraction(1, 2 ** 31), (1, 1): Fraction(-1, 2 ** 30),
                                  (0, 2): Fraction(1, 2 ** 31)}]
    yield 2, (0, 0, 0), 1, 2, 1, [{(0, 1, 1): 1, (2, 0, 0): Fraction(1, 4)}]
    yield 2, (0, 0, 0), 1, 3, 1, [{(4, 0, 0): Fraction(1, 8), (1, 1, 1): 1}]
    for _ in range(36):
        p = rng.choice([2, 3])
        comps = []
        for _ in range(rng.choice([1, 1, 2])):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exp = (rng.randint(0, 3), rng.randint(0, 2))
                terms[exp] = (Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
                              * Fraction(p) ** rng.choice([0, 0, 1, -1, -2]))
            comps.append(terms)
        s = max([0] + [-oracles.padic_val(c, p) for t in comps for c in t.values()])
        K = max(s, 1) + (rng.choice([0, 1]) if p == 2 else 0)
        alpha = max(0, K - rng.choice([1, 2] if p == 2 else [1]))
        center = tuple(rng.choice([0, rng.randrange(p ** alpha)]) for _ in range(2))
        yield p, center, alpha, K, rng.randint(1, 2), comps
    yield from _remainder_family(rng, 80)


def _remainder_family(rng, count):
    """Maps on balls with alpha >= 1 and a centre divisible by p, whose
    terms c x^e have e_i in {0, p} and ord(c) = delta - alpha |e|, delta
    mostly r * alpha - 1: p divides the binomials C(e, beta), which keeps
    the C^r half while the remainder can fail.  Some components also get
    a p-integral term.  Only maps with at most 81 residues mod p^K."""
    while count:
        p, m = rng.choice([(2, 2), (2, 3), (3, 2)])
        alpha, r = rng.choice([1, 1, 2]), rng.choice([1, 1, 2])
        comps = []
        for _ in range(rng.choice([1, 1, 2])):
            terms = {}
            for _ in range(rng.randint(1, 2)):
                exp = [rng.choice([0, p]) for _ in range(m)]
                exp[rng.randrange(m)] = p
                delta = rng.choice([r * alpha - 1, rng.randint(0, r * alpha)])
                terms[tuple(exp)] = (Fraction(rng.choice([-1, 1, 3]))
                                     * Fraction(p) ** (delta - alpha * sum(exp)))
            if rng.random() < 0.5:
                terms[tuple(rng.randint(0, 2) for _ in range(m))] = rng.choice([1, 2, p])
            comps.append(terms)
        s = max(-oracles.padic_val(c, p) for t in comps for c in t.values())
        K = max(s, alpha + 1)
        if p ** (m * (K - alpha)) > 81:
            continue
        count -= 1
        yield p, tuple(rng.choice([0, p]) % p ** alpha for _ in range(m)), alpha, K, r, comps


def test_check_tr_2d_matches_exact_oracle():
    # verdict and witness of the exhaustive check on Z_p^m balls (m = 2, 3)
    # must be those of the definition checked residue by residue and pair
    # by pair, also where the classes mod p^s need Python ints
    outcomes = []
    for p, center, alpha, K, r, comps in _tr_2d_cases(random.Random(23)):
        m = len(center)
        ball = Ball(p, center, alpha)
        f = PolyMap(m, len(comps), [MultiPoly(m, t) for t in comps], domain=ball)
        cert = check_Tr(f, r, K=K)
        want = oracles.tr_check_oracle(comps, r, p, center, alpha, K)
        wit = cert.witness
        if want is None:
            assert cert.verdict == "holds", (p, center, alpha, K, r, comps)
            integral = all(Fraction(c).denominator % p for t in comps for c in t.values())
            outcomes.append(("holds-integral" if integral else "holds", m))
            continue
        assert cert.verdict == "fails", (p, center, alpha, K, r, comps)
        assert recheck_witness(f, r, wit, p)
        outcomes.append((want[0], m))
        if want[0] == "remainder":
            got = (wit["kind"], wit["component"], wit["x"], wit["y"],
                   wit["ord_lhs"], wit["bound_rhs"])
        else:
            got = (wit["kind"], wit["component"], wit["order"], wit["y"],
                   wit["valuation"])
            assert all(isinstance(c, Fraction) for c in wit["y"])
        assert got == want, (p, center, alpha, K, r, comps)
    assert [kind for kind, _m in outcomes[:9]] == [
        "holds-integral", "holds", "remainder", "remainder", "cr_norm", "cr_norm",
        "remainder", "remainder", "holds"]
    assert set(outcomes[9:45]) >= {("holds-integral", 2), ("holds", 2), ("cr_norm", 2)}
    family = outcomes[45:]
    assert family.count(("remainder", 2)) + family.count(("remainder", 3)) >= 20
    assert set(family) >= {("remainder", 3), ("holds", 3), ("cr_norm", 3), ("holds", 2)}


def test_scaled_values_match_fractions():
    # the one-pass derivative table lists the beta below some exponent, in
    # (|beta|, beta) order, and equals the divided_derivative oracle entry
    # by entry; every beta it leaves out has g_beta = 0.  _scaled and _value
    # give p^s * g_beta(y) mod p^s in Python ints, as the Fraction oracle
    # does, below int64_safe(p^s) and past it, on points given in full or
    # reduced mod p^s
    comp = MultiPoly(2, {(2, 1): Fraction(1, 9), (0, 1): 2, (1, 0): Fraction(-1, 3)})
    entries = _derivative_table(PolyMap(2, 1, [comp]))[0]
    assert [beta for beta, _g in entries] == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0),
                                             (2, 1)]
    for beta, g in entries:
        assert g == oracles.divided_derivative(comp.terms, beta)
    listed = {beta for beta, _g in entries}
    for beta in itertools.product(range(4), repeat=2):
        if sum(beta) <= 3 and beta not in listed:
            assert not oracles.divided_derivative(comp.terms, beta), beta
    pts = [(0, 1), (4, 7), (13, 2), (5, 0), (3 ** 30 + 2, 2 ** 70 - 1)]
    for s in (2, 19, 25):
        mod = 3 ** s
        assert (mod < 2 ** 31) == (s < 20)
        for y in pts:
            for _beta, g in entries:
                terms = _scaled(g, 3, s)
                assert all(0 < c < mod for c, _e in terms)
                v = mod * oracles.fraction_eval(g, y)
                want = v.numerator * pow(v.denominator, -1, mod) % mod
                for point in (y, [c % mod for c in y]):
                    got = _value(terms, _powers(point, (2, 1), mod), mod)
                    assert type(got) is int and got == want, (s, y, g)


def test_check_tr_x3_holds():
    cert = check_Tr(X3, 2, K=5)
    assert cert.verdict == "holds"


def test_downward_closure_and_composition():
    rng = random.Random(31)
    pairs = 0
    while pairs < 20:
        p = rng.choice([2, 3])
        ball = Ball(p, (0,), 0)
        f = PolyMap.univariate([rng.randint(-6, 6) for _ in range(rng.randint(2, 4))],
                               domain=ball)
        g = PolyMap.univariate([rng.randint(-6, 6) for _ in range(rng.randint(2, 4))],
                               domain=ball)
        r = rng.choice([2, 3])
        cf = check_Tr(f, r, K=5)
        cg = check_Tr(g, r, K=5)
        if not (cf.holds and cg.holds):
            continue
        pairs += 1
        # downward closure
        for ell in range(1, r):
            assert check_Tr(f, ell, K=5).holds
        # composition
        h = compose(g, f)
        assert check_Tr(h, r, K=5).holds


def test_power_compose_examples():
    f = PolyMap.univariate([0, 1])
    assert power_compose(f, 2, 1).components[0].terms == {(2,): 1}
    assert power_compose(PolyMap.univariate([0, 0, 1]), 3, 1).components[0].terms \
        == {(6,): 1}
    assert power_compose(f, 1, 7).components[0].terms == {(1,): 7}


def test_power_compose_domain_preimage():
    base = Ball(3, (1,), 2)
    f = PolyMap.univariate([0, 1], domain=base)
    fN = power_compose(f, 9, 1)
    balls = fN.domain.maximal_balls()
    assert len(balls) == 1
    assert balls[0].alpha == 1 and balls[0].canonical_center() == (1,)
    # check_Tr takes one ball; a preimage domain is checked ball by ball
    with pytest.raises(ConfigError, match=r"maximal_balls\(\)"):
        check_Tr(fN, 1)
    assert check_Tr(fN, 1, domain=balls[0]).holds


def test_merge_residue_balls():
    # all residues mod 9 -> the whole of Z_3
    balls = merge_residue_balls(set(range(9)), 3, 2)
    assert len(balls) == 1 and balls[0].alpha == 0
    # residues {0,3,6} mod 9 = the ball 3Z_3 ... here: ord(x) >= 1
    balls = merge_residue_balls({0, 3, 6}, 3, 2)
    assert len(balls) == 1 and balls[0].alpha == 1
    # {0, 2} mod 4 is the ball 2Z_2
    balls = merge_residue_balls({0, 2}, 2, 2)
    assert [(b.canonical_center()[0], b.alpha) for b in balls] == [(0, 1)]
    # a ragged set stays split into depth-2 singletons
    balls = merge_residue_balls({0, 1}, 2, 2)
    assert sorted((b.canonical_center()[0], b.alpha) for b in balls) \
        == [(0, 2), (1, 2)]


def test_verify_gauss0_examples():
    # g = a*x on a*M with lambda = a (valuations 1 over Q_3)
    rep = verify_gauss0(MultiPoly(1, {(1,): 3}), 1, 1, 3)
    assert rep.ok
    i1 = rep.entries[0]
    assert i1[0] == 1 and i1[1] >= i1[2] and i1[2] == 0

    # g = x^2 on 3M over Q_3 with |g| <= |9|: order-2 bound holds with equality
    rep = verify_gauss0(MultiPoly(1, {(2,): 1}), 2, 1, 3)
    assert rep.ok
    assert rep.entries[1] == (2, 0, 0, True)

    # constant g: all bounds vacuous
    rep = verify_gauss0(MultiPoly(1, {(0,): 5}), 0, 2, 3)
    assert rep.ok and rep.entries == []

    with pytest.raises(ConfigError):
        verify_gauss0(MultiPoly(1, {(0,): 1}), 1, 1, 3)  # |g|=1 > |lambda|


def test_verify_gauss1a_small():
    rep = verify_gauss1a(PolyMap.univariate([0, 1]), 2, 2, i_max=4, K=6)
    assert rep.all_hold
    assert rep.n == 4 and rep.N == 16
    rep3 = verify_gauss1a(PolyMap.univariate([0, 0, 1]), 2, 3, i_max=4, K=5)
    assert rep3.all_hold and rep3.n == 3 and rep3.N == 9


def test_verify_gauss1a_precondition():
    with pytest.raises(ConfigError):
        verify_gauss1a(PolyMap.univariate([0, Fraction(1, 2)]), 2, 2, i_max=4)


def _quartic_product():
    """(1/5) prod_{i<=5} (x_i^4 - 1) on Z_5^5: integral unless every x_i is
    divisible by 5, and -1/5 at 0."""
    terms = {}
    for sel in itertools.product((0, 1), repeat=5):
        terms[tuple(4 * b for b in sel)] = Fraction((-1) ** (5 - sum(sel)), 5)
    return PolyMap(5, 1, [MultiPoly(5, terms)], domain=Ball(5, (0,) * 5, 0))


def test_quartic_product_fails_cr_norm_at_zero():
    # its failures lie in the one class 0 mod 5 of 3125: the exhaustive
    # check refutes T_1 with a C^r witness at 0
    f = _quartic_product()
    cert = check_Tr(f, 1)
    assert cert.verdict == "fails"
    assert cert.witness == {"kind": "cr_norm", "component": 0, "order": (0,) * 5,
                            "y": (Fraction(0),) * 5, "valuation": -1}
    assert recheck_witness(f, 1, cert.witness, 5)


def test_cr_half_builds_only_the_cr_columns(monkeypatch):
    # the quartic product fails the C^r half at 0; of its 3125 divided
    # derivatives (53130 multi-indices up to degree 20) the check reduces
    # mod 5 the coefficients of the 6 with |beta| <= 1 only: the 32 terms
    # of g_0 and the 16 of each g_(e_i)
    from nonarch_lab import taylor

    f = _quartic_product()
    reduced = []
    real = taylor.rational_residue

    def counted(x, p, k):
        reduced.append(x)
        return real(x, p, k)

    monkeypatch.setattr(taylor, "rational_residue", counted)
    cert = check_Tr(f, 1)
    assert len(reduced) == 32 + 5 * 16
    assert cert.verdict == "fails" and cert.witness["kind"] == "cr_norm"


def test_zero_component_keeps_its_beta_0_entry():
    # an identically zero component still has g_0 = 0 in the table, which
    # the remainder re-check reads as f; the second component fails, and
    # verdict and witness are the definition's: in one variable per
    # component, remainder before C^r; in two, C^r over all components first
    zero = MultiPoly(1, {})
    f = PolyMap(1, 2, [zero, MultiPoly(1, {(2,): Fraction(1, 2), (1,): Fraction(-1, 2)})],
                domain=Z2)
    assert _derivative_table(f)[0] == [((0,), {})]
    cert = check_Tr(f, 1, K=3)
    want = oracles.tr_residue_oracle([[], [0, Fraction(-1, 2), Fraction(1, 2)]], 1, 2,
                                     range(8))
    assert want == ("remainder", 1, 2, 0)
    wit = cert.witness
    assert (cert.verdict, wit["kind"], wit["component"], wit["x"], wit["y"]) == (
        "fails",) + want
    assert recheck_witness(f, 1, wit, 2)

    comps = [{}, {(1, 1): Fraction(1, 3)}]
    f = PolyMap(2, 2, [MultiPoly(2, t) for t in comps], domain=Ball(3, (0, 0), 0))
    cert = check_Tr(f, 1, K=2)
    want = oracles.tr_check_oracle(comps, 1, 3, (0, 0), 0, 2)
    assert want == ("cr_norm", 1, (1, 0), (0, 1), -1)
    wit = cert.witness
    assert cert.verdict == "fails"
    assert (wit["kind"], wit["component"], wit["order"], wit["y"], wit["valuation"]) == want
    assert recheck_witness(f, 1, wit, 3)


def test_multivariate_check():
    ball = Ball(3, (0, 0), 0)
    f = PolyMap(2, 1, [MultiPoly(2, {(1, 1): 1, (2, 0): 1})], domain=ball)
    cert = check_Tr(f, 2, K=2)
    assert cert.holds
    bad = PolyMap(2, 1, [MultiPoly(2, {(1, 1): Fraction(1, 3)})], domain=ball)
    cert2 = check_Tr(bad, 1, K=2)
    assert cert2.verdict == "fails"


def test_cap_and_precision_guards():
    # no residue cap: at K = 16 the check runs on the residues mod
    # 2^(max(s, alpha) + 1) = 4, and reports the K it was asked for
    cert = check_Tr(BINOM2, 1, K=16)
    assert (cert.verdict, cert.K, cert.witness["x"], cert.witness["y"]) == (
        "fails", 16, 2, 0)
    with pytest.raises(PrecisionError):
        check_Tr(BINOM2, 1, K=0)


def _shifted_monomial(c, e, coef):
    """coef * prod_i (x_i - c_i)^e_i as an exponent dict."""
    terms = {}
    for low in itertools.product(*[range(ei + 1) for ei in e]):
        term = Fraction(coef)
        for ci, ei, li in zip(c, e, low):
            term *= math.comb(ei, li) * (-ci) ** (ei - li)
        terms[low] = terms.get(low, 0) + term
    return terms


def _holding_with_s_above_alpha(rng, m):
    """(p, center, alpha, r, components) that hold with s > alpha:
    (x - c)^e / p^s on c + p^alpha Z_p^m with alpha < s <= alpha (|e| - r)
    keeps every g_beta (|beta| <= r) integral, and each remainder term
    g_beta(y) h^beta (|beta| > r, h = p^v u, v >= alpha) has ord at least
    alpha (|e| - r) - s + r v >= r v; plus a p-integral polynomial.  s -
    alpha <= 4 / m keeps the p^(m(s - alpha)) classes few."""
    p, alpha, r = rng.choice([2, 3]), rng.choice([1, 2]), rng.choice([1, 2])
    e = tuple(rng.randint(0, 3) for _ in range(m))
    while sum(e) < r + 2:
        e = tuple(ei + (i == rng.randrange(m)) for i, ei in enumerate(e))
    s = rng.randint(alpha + 1, min(alpha * (sum(e) - r), alpha + 4 // m))
    c = tuple(rng.randrange(p ** alpha) for _ in range(m))
    terms = _shifted_monomial(c, e, Fraction(rng.choice([1, -1, 2]), p ** s))
    for _ in range(2):
        exp = tuple(rng.randint(0, 3) for _ in range(m))
        terms[exp] = terms.get(exp, 0) + rng.randint(-5, 5)
    return p, c, alpha, r, [{k: v for k, v in terms.items() if v}]


def _k_free_cases(rng):
    """(p, center, alpha, r, components) with s > 0: seeded 1-D maps with up
    to two components, 1-D and 2-D maps built to hold with s > alpha, and
    members of the multivariate remainder family."""
    for _ in range(40):
        p, alpha = rng.choice([2, 3, 5]), rng.choice([0, 1, 2])
        comps = [{(i,): Fraction(rng.randint(-4, 4)) * Fraction(p) ** rng.choice([0, 0, 1, -1, -2])
                  for i in range(rng.randint(2, 6))}
                 for _ in range(rng.choice([1, 1, 2]))]
        comps[0][(rng.randint(0, 5),)] = Fraction(rng.choice([1, -1, 2]), p)
        yield p, (rng.randrange(p ** alpha),), alpha, rng.randint(1, 3), comps
    for m in (1, 1, 2):
        for _ in range(6):
            yield _holding_with_s_above_alpha(rng, m)
    for p, center, alpha, _K, r, comps in _remainder_family(rng, 20):
        yield p, center, alpha, r, comps


def test_certificate_does_not_depend_on_K_past_K_star():
    # verdict and witness depend only on s and alpha: the certificate at
    # K* + j equals the one at K* = max(s, alpha) + 1 but for K and the tag
    seen = set()
    for p, center, alpha, r, comps in _k_free_cases(random.Random(29)):
        m = len(center)
        f = PolyMap(m, len(comps), [MultiPoly(m, t) for t in comps],
                    domain=Ball(p, center, alpha))
        s = max(-oracles.padic_val(c, p) for t in comps for c in t.values())
        k_star = max(s, alpha) + 1
        base = check_Tr(f, r, K=k_star).to_json()
        for j in (1, 2, 3):
            got = check_Tr(f, r, K=k_star + j).to_json()
            assert (got["K"], got["strategy"]) == (k_star + j, f"exhaustive-mod-{p}^{k_star + j}")
            assert dict(got, K=k_star, strategy=base["strategy"]) == base, (p, center, alpha,
                                                                          r, comps, j)
        kind = base["witness"]["kind"] if base["witness"] else "holds"
        seen.add((m > 1, kind, kind == "holds" and s > alpha))
    assert seen >= {(False, "remainder", False), (False, "cr_norm", False),
                    (False, "holds", True), (True, "remainder", False),
                    (True, "holds", True)}


def test_diagonal_class_witness_needs_K_star():
    # x^3/3 on 7 + 9Z_3 at r = 3: s = 1, alpha = 2.  g_3 = 1/3 is not
    # integral, so the class x = y mod 3, x != y, fails the remainder; its
    # first member x = 16 lies among the residues mod 3^3 = 3^K* but not
    # mod 3^2, where the first failure is the C^r bound at 7
    f = PolyMap.univariate([0, 0, 0, Fraction(1, 3)], domain=Ball(3, (7,), 2))
    cert = check_Tr(f, 3, K=2)
    assert cert.witness == {"kind": "cr_norm", "component": 0, "order": (0,), "y": 7,
                            "valuation": -1}
    for K in range(3, 9):
        cert = check_Tr(f, 3, K=K)
        assert (cert.K, cert.witness) == (K, {"kind": "remainder", "component": 0, "x": 16,
                                              "y": 7, "ord_lhs": 5, "bound_rhs": 6})
        assert recheck_witness(f, 3, cert.witness, 3)


def test_1d_pair_cap_counts_the_pairs_swept(monkeypatch):
    # x^2 / 2^s on Z_2 at r = 1 and its default K = s + 2: the sweep runs
    # mod 2^(s + 1), 2^(2s + 2) pairs; s = 13 is within the cap of 5*10^8
    # and fails at once, s = 14 is past it
    from nonarch_lab import taylor

    def square_over(s):
        return PolyMap.univariate([0, 0, Fraction(1, 2 ** s)], domain=Z2)

    cert = check_Tr(square_over(13), 1)
    assert (cert.K, cert.witness["kind"], cert.witness["x"], cert.witness["y"]) == (
        15, "remainder", 1, 0)
    with pytest.raises(CapExceededError,
                       match=r"^1073741824 residue pairs mod p\^15 exceed cap 500000000; "
                             r"taylor\.PAIR_CAP 1073741824 admits them$"):
        check_Tr(square_over(14), 1)
    # a cap at the 2^28 pairs of s = 13 decides; one below it stops
    monkeypatch.setattr(taylor, "PAIR_CAP", 2 ** 28)
    assert check_Tr(square_over(13), 1).verdict == "fails"
    monkeypatch.setattr(taylor, "PAIR_CAP", 2 ** 28 - 1)
    with pytest.raises(CapExceededError,
                       match=rf"^{2 ** 28} residue pairs mod p\^14 exceed cap {2 ** 28 - 1}; "
                             rf"taylor\.PAIR_CAP {2 ** 28} admits them$"):
        check_Tr(square_over(13), 1)


def test_integral_1d_maps_are_decided_before_the_pair_cap(monkeypatch):
    # x^2 and x on Z_139 at K = 2: two sweeps of 139^2 = 19321 residues
    # would pass the pair cap, but s = 0, so nothing can fail; each
    # component still hands the sweep its zero table
    from nonarch_lab import _kernels

    sweeps = []
    real = _kernels.tr_pair_sweep

    def counted(table, xs, mod, r):
        sweeps.append((table.shape, mod))
        return real(table, xs, mod, r)

    monkeypatch.setattr(_kernels, "tr_pair_sweep", counted)
    f = PolyMap(1, 2, [MultiPoly(1, {(2,): 1}), MultiPoly(1, {(1,): 1})],
                domain=Ball(139, (0,), 0))
    cert = check_Tr(f, 1, K=2)
    assert (cert.verdict, cert.K) == ("holds", 2)
    assert sweeps == [((19321, 3), 1), ((19321, 2), 1)]


def test_remainder_sum_reduces_before_int64_overflow(monkeypatch):
    # a regression test from when the remainder sum ran in int64: p^s =
    # 7^11 lies just below 2^31, so a reduced value plus two products of
    # residues stays below 2^63, plus three does not.  On 1 + 7^10 Z_7 x
    # 2 + 7^10 Z_7 at r = 2, -(x - c)^e / 7^10 for the four |e| = 3 and
    # (x - c)^(2, 2) / 7^11 hold; at y = c the four |beta| = 3 values are
    # 7^11 - 7 and at u = (3, 3) every weight is 6 * 7^10, so a sum of
    # three products that wrapped would flag a pair the exact re-check then
    # clears
    from nonarch_lab import taylor

    mod = 7 ** 11
    assert (mod - 1) + 2 * (mod - 1) ** 2 < 2 ** 63 <= (mod - 1) + 3 * (mod - 1) ** 2
    c = (1, 2)
    terms = {}
    for e, coef in (((3, 0), -1), ((2, 1), -1), ((1, 2), -1), ((0, 3), -1), ((2, 2), Fraction(1, 7))):
        for k, v in _shifted_monomial(c, e, coef / Fraction(7 ** 10)).items():
            terms[k] = terms.get(k, 0) + v
    terms = {k: v for k, v in terms.items() if v}
    f = PolyMap(2, 1, [MultiPoly(2, terms)], domain=Ball(7, c, 10))
    assert oracles.tr_check_oracle([terms], 2, 7, c, 10, 11) is None

    def no_flagged_pair(*args):
        raise AssertionError("the remainder sweep flagged a pair")

    monkeypatch.setattr(taylor, "_exact_pair_violation", no_flagged_pair)
    assert check_Tr(f, 2, K=11).verdict == "holds"


@pytest.mark.parametrize("p, alpha, r, terms, want", [
    # y^2 / 2 is 1/2 at odd y: the z-box of y ends at the period 2
    (2, 0, 1, {(1, 2): Fraction(1, 2)}, ("cr_norm", 0, (1, 0), (0, 1), -1)),
    # g_(1,0) = C(y, 2) / 5 vanishes at y = 0, 1 and first fails at y = 2,
    # the degree of y, below the period 5
    (5, 0, 1, {(1, 2): Fraction(1, 10), (1, 1): Fraction(-1, 10)},
     ("cr_norm", 0, (1, 0), (0, 2), -1)),
    # (x - y)^2 / 4: at v = 1 the u-box ends at the period 2
    (2, 1, 1, {(2, 0): Fraction(1, 4), (1, 1): Fraction(-1, 2), (0, 2): Fraction(1, 4)},
     ("remainder", 0, (0, 2), (0, 0), 0, 1)),
    # x y^3 / 27 at r = 2: at y = 0 the remainder sum is u_0 u_1^3 / 27,
    # zero unless u_0 reaches its degree 1, below the period 9 at v = 1
    (3, 1, 2, {(1, 3): Fraction(1, 27)}, ("remainder", 0, (3, 3), (0, 0), 1, 2)),
    # one variable, (3y^5 + y^6) / 2 at r = 3: the remainder sweep holds, and
    # g_1 = (15y^4 + 6y^5) / 2 is 0 at y = 0 and first fails at y = 1, where
    # the box of y ends at the period 2, below the degree 6
    (2, 0, 3, {(5,): Fraction(3, 2), (6,): Fraction(1, 2)}, ("cr_norm", 0, (1,), (1,), -1)),
], ids=["z-period", "z-degree", "u-period", "u-degree", "1d-period"])
def test_last_point_of_each_test_box_decides(p, alpha, r, terms, want):
    # each map's first failure needs the last point of one test box, cut
    # at the period or at the degree: a box one point short reports
    # another witness or "holds"
    m = len(next(iter(terms)))
    f = PolyMap(m, 1, [MultiPoly(m, terms)], domain=Ball(p, (0,) * m, alpha))
    s = max(-oracles.padic_val(c, p) for c in terms.values())
    assert oracles.tr_check_oracle([terms], r, p, (0,) * m, alpha, max(s, alpha) + 1) == want
    wit = check_Tr(f, r).witness
    x, y = (_astuple(wit[k]) if k in wit else None for k in ("x", "y"))
    if want[0] == "remainder":
        got = (wit["kind"], wit["component"], x, y, wit["ord_lhs"], wit["bound_rhs"])
    else:
        got = (wit["kind"], wit["component"], wit["order"], y, wit["valuation"])
    assert got == want
    assert recheck_witness(f, r, wit, p)


@pytest.mark.parametrize("p, terms, evaluations, verdict", [
    # xy + x^3 y^4 / 3^6 on 3Z_3^2 holds: 20 test points of y, each with 3
    # C^r columns and then 20 + 20 + 20 + 20 + 9 remainder columns over v =
    # 1..5
    (3, {(1, 1): 1, (3, 4): Fraction(1, 3 ** 6)}, 20 * 3 + 20 * 89, "holds"),
    # (x - y)^2 / 4 on 2Z_2^2 fails the remainder at y = 0: 4 points of y
    # with 3 C^r columns, 4 remainder columns at y = 0, then the x classes
    # (0, 0) and (0, 1)
    (2, {(2, 0): Fraction(1, 4), (1, 1): Fraction(-1, 2), (0, 2): Fraction(1, 4)},
     4 * 3 + 4 + 2, "fails"),
], ids=["holds", "fails-in-the-x-scan"])
def test_multivariate_cap_counts_the_evaluations_made(p, terms, evaluations, verdict,
                                                      monkeypatch):
    # PAIR_CAP bounds the evaluations a multivariate check makes: a cap at
    # their count decides, one below it stops at the last of them
    from nonarch_lab import taylor

    f = PolyMap(2, 1, [MultiPoly(2, terms)], domain=Ball(p, (0, 0), 1))
    monkeypatch.setattr(taylor, "PAIR_CAP", evaluations)
    assert check_Tr(f, 1).verdict == verdict
    monkeypatch.setattr(taylor, "PAIR_CAP", evaluations - 1)
    with pytest.raises(CapExceededError, match=rf"^{evaluations} evaluations mod p\^\d+ "
                                               rf"exceed cap {evaluations - 1}; "
                                               rf"taylor\.PAIR_CAP {evaluations} admits them$"):
        check_Tr(f, 1)


@pytest.mark.parametrize("f, r, K, recheck", [
    (BINOM2, 1, 5, "_exact_pair_violation"),
    # 1/3 + x on Z_3 at r = 1: the remainder holds, g_0 fails at y = 0
    (PolyMap.univariate([Fraction(1, 3), 1], domain=Z3), 1, 2, "_exact_point_violation"),
    (PolyMap(2, 1, [MultiPoly(2, {(1, 1): Fraction(1, 3)})], domain=Ball(3, (0, 0), 0)),
     1, 2, "_exact_point_violation"),
    (PolyMap(2, 1, [MultiPoly(2, {(3, 0): Fraction(1, 9), (1, 1): 1})], domain=Ball(3, (0, 0), 1)),
     2, 2, "_exact_pair_violation"),
], ids=["1d-remainder", "1d-cr", "2d-cr", "2d-remainder"])
def test_sweep_flag_the_exact_recheck_clears_is_a_violation(f, r, K, recheck, monkeypatch):
    # each map fails where the modular sweep flags it; an exact re-check
    # that clears the flagged pair or point must not turn into "holds"
    from nonarch_lab import taylor

    assert check_Tr(f, r, K=K).verdict == "fails"
    monkeypatch.setattr(taylor, recheck, lambda *args: None)
    flagged = "pair" if recheck == "_exact_pair_violation" else "point"
    with pytest.raises(BoundViolation, match=f"flags the {flagged} .* the exact re-check clears"):
        check_Tr(f, r, K=K)


@pytest.mark.parametrize("terms, x", [
    ({(0, 6): Fraction(4, 243), (0, 3): Fraction(-1, 9)}, (0, 6)),
    ({(0, 6): Fraction(1, 243), (0, 3): Fraction(4, 9)}, (0, 3)),
])
def test_multivariate_locator_reads_the_class_of_x_minus_y(terms, x):
    # on 3Z_3^2 at r = 2 (s = 5, alpha = 1) the failing difference classes
    # of these maps are not symmetric under u -> -u: the locator must take
    # the class of x - y, not of y - x, to find the first failing x
    ball = Ball(3, (0, 0), 1)
    f = PolyMap(2, 1, [MultiPoly(2, terms)], domain=ball)
    want = oracles.tr_check_oracle([terms], 2, 3, (0, 0), 1, 3)
    assert want == ("remainder", 0, x, (0, 0), 1, 2)
    cert = check_Tr(f, 2)
    wit = cert.witness
    assert cert.verdict == "fails" and cert.K >= 5
    assert (wit["kind"], wit["component"], wit["x"], wit["y"], wit["ord_lhs"],
            wit["bound_rhs"]) == want
    assert recheck_witness(f, 2, wit, 3)


def test_multivariate_map_on_a_ball_of_step_past_2_63(tmp_path):
    # 0 < s <= alpha with p^alpha >= 2^63: one class per coordinate mod
    # p^max(s, alpha), whose representative is key + p^alpha * 0 and whose
    # values mod p^s must be formed without an int64 product of the step
    from nonarch_lab.cli import main

    rng = random.Random(31)
    outcomes = []
    for p, alpha in ((3, 40), (2, 63), (5, 28)):
        assert p ** alpha >= 2 ** 63
        for _ in range(4):
            m = rng.choice([2, 3]) if p == 2 else 2
            comps = [{tuple(rng.randint(0, 3) for _ in range(m)):
                      Fraction(rng.choice([-2, -1, 1, 3]), p ** rng.choice([0, 1, 2]))
                      for _ in range(rng.randint(1, 3))} for _ in range(rng.choice([1, 2]))]
            comps[0][(1,) * m] = Fraction(1, p)  # s >= 1
            center = tuple(rng.randrange(p ** alpha) for _ in range(m))
            f = PolyMap(m, len(comps), [MultiPoly(m, t) for t in comps],
                        domain=Ball(p, center, alpha))
            for r in (1, 2):
                cert = check_Tr(f, r)
                want = oracles.tr_check_oracle(comps, r, p, center, alpha, alpha + 1)
                wit = cert.witness
                if want is None:
                    assert cert.verdict == "holds", (p, center, alpha, r, comps)
                    outcomes.append("holds")
                    continue
                assert cert.verdict == "fails" and recheck_witness(f, r, wit, p)
                assert (wit["kind"], wit["component"], wit["order"], wit["y"],
                        wit["valuation"]) == want, (p, center, alpha, r, comps)
                outcomes.append(want[0])
    assert len(outcomes) == 24 and set(outcomes) == {"holds", "cr_norm"}

    # xy + y^3/3 on (2, 1) + 3^40 Z_3^2 at r = 1: y^3/3 is not 3-integral
    # at (2, 1), an exit 1 with its witness
    data = {"m": 2, "n": 1, "p": 3,
            "components": [[{"exp": [1, 1], "coeff": "1"}, {"exp": [0, 3], "coeff": "1/3"}]],
            "domain": {"center": ["2", "1"], "alpha": 40}}
    path, out = tmp_path / "map.json", tmp_path / "out.json"
    path.write_text(json.dumps(data))
    assert main(["taylor-check", str(path), "--r", "1", "--out", str(out)]) == 1
    wit = json.loads(out.read_text())["results"]["witness"]
    assert wit == {"kind": "cr_norm", "component": 0, "order": [0, 0], "y": ["2", "1"],
                   "valuation": -1}


def test_integral_1d_map_past_the_residue_cap_holds(monkeypatch):
    # s = 0: nothing can fail.  Within the cap the zero-table sweep still
    # runs (139^2 = 19321 residues); past it (149^2 = 22201) the check
    # holds without a table or a sweep
    from nonarch_lab import _kernels

    sweeps = []
    real = _kernels.tr_pair_sweep

    def counted(table, xs, mod, r):
        sweeps.append(len(xs))
        return real(table, xs, mod, r)

    monkeypatch.setattr(_kernels, "tr_pair_sweep", counted)
    for p, want in ((139, [19321]), (149, [])):
        f = PolyMap.univariate([0, 0, 1], domain=Ball(p, (0,), 0))
        sweeps.clear()
        cert = check_Tr(f, 1, K=2)
        assert (cert.verdict, cert.K, sweeps) == ("holds", 2, want), p


def test_integral_1d_map_within_the_residue_cap_builds_no_residues(monkeypatch):
    # s = 0 inside the cap: the verdict holds without listing a residue;
    # each component with deg + 1 > r still hands the sweep a zero table of
    # shape (p^(K - alpha), deg + 1), at modulus 1
    from nonarch_lab import taylor

    def no_residues(self, d):
        raise AssertionError("residue listed")

    monkeypatch.setattr(Ball, "representative", no_residues)
    sweeps = []
    real = taylor._kernels.tr_pair_sweep

    def spy(table, xs, mod, r):
        sweeps.append((table.shape, xs.shape, mod, int(np.count_nonzero(table))))
        return real(table, xs, mod, r)

    monkeypatch.setattr(taylor._kernels, "tr_pair_sweep", spy)
    comps = [{(3,): 1, (1,): 2}, {(1,): 1}, {(0,): 7}, {(4,): Fraction(1, 2)}]
    f = PolyMap(1, 4, [MultiPoly(1, t) for t in comps], domain=Ball(5, (2,), 1))
    cert = check_Tr(f, 2, K=4)
    assert cert.verdict == "holds" and cert.K == 4
    assert sweeps == [((125, 4), (125,), 1, 0), ((125, 5), (125,), 1, 0)]


def test_integral_1d_map_builds_zero_tables_only_at_an_explicit_K(monkeypatch):
    # s = 0: without K the check reports the default K and hands the sweep
    # nothing; an explicit K hands it one zero table per component of
    # degree >= r, of shape (p^(K - alpha), deg + 1), at modulus 1
    from nonarch_lab import taylor

    sweeps = []
    monkeypatch.setattr(taylor._kernels, "tr_pair_sweep",
                        lambda table, xs, mod, r: sweeps.append((table.shape, mod)) or (-1, -1))
    comps = [{(3,): 1, (1,): 2}, {(1,): 1}, {(0,): 7}, {(2,): 5}]
    for p, alpha, r, K, want in ((5, 1, 2, 3, [((25, 4), 1), ((25, 3), 1)]),
                                 (3, 0, 1, 2, [((9, 4), 1), ((9, 2), 1), ((9, 3), 1)])):
        f = PolyMap(1, 4, [MultiPoly(1, c) for c in comps], domain=Ball(p, (1,), alpha))
        sweeps.clear()
        cert = check_Tr(f, r)
        assert (cert.verdict, cert.K, sweeps) == ("holds", max(alpha * r + 8, 2, alpha + 1), [])
        cert = check_Tr(f, r, K=K)
        assert (cert.verdict, cert.K, sweeps) == ("holds", K, want)


def test_cr_norm_refuses_a_ball_of_the_wrong_dimension():
    xy = PolyMap(2, 1, [MultiPoly(2, {(1, 1): Fraction(1, 3), (0, 1): 1})])
    with pytest.raises(ConfigError, match="^ball of dimension 1 for a map in 2 variables$"):
        cr_norm(xy, 1, Z3)
    x = PolyMap.univariate([0, Fraction(1, 3)])
    with pytest.raises(ConfigError, match="^ball of dimension 2 for a map in 1 variables$"):
        cr_norm(x, 1, Ball(3, (0, 0), 0))


def test_tail_floor_provenance():
    # a tail of Gauss valuation F >= alpha*r carries the verdict over:
    # exact; below alpha*r the verdict is up to the tail
    f = PolyMap.univariate([0, 1], domain=Z3, tail_floor=10)
    cert = check_Tr(f, 1, K=4)
    assert cert.provenance == "exact"
    ball = Ball(3, (0,), 2)
    for F, r, provenance in ((2, 1, "exact"), (1, 1, "up-to-tail"),
                             (4, 2, "exact"), (3, 2, "up-to-tail")):
        cert = check_Tr(PolyMap.univariate([0, 1], domain=ball, tail_floor=F), r)
        assert cert.holds and cert.provenance == provenance, (F, r)
    assert check_Tr(PolyMap.univariate([0, 1], domain=ball), 2).provenance == "exact"


def test_certificate_json_roundtrip():
    cert = check_Tr(X2, 2, K=5)
    blob = cert.to_json()
    assert blob["verdict"] == "holds" and blob["K"] == 5


def test_failing_witnesses_serialize_with_int_coordinates():
    # witness coordinates are the Python-int class representatives, under
    # int64 residues and under object arrays for a modulus p^s >= 2^31
    cases = [
        (BINOM2, 1, 5),
        (PolyMap.univariate([Fraction(1, 3), 1], domain=Z3), 1, 3),
        (PolyMap.univariate([0, 0, Fraction(1, 2 ** 31)], domain=Ball(2, (1,), 29)), 1, 31),
        (PolyMap.univariate([Fraction(1, 2 ** 31)], domain=Ball(2, (1,), 29)), 1, 31),
        (PolyMap(2, 1, [MultiPoly(2, {(3, 0): Fraction(1, 9), (1, 1): 1})],
                 domain=Ball(3, (0, 0), 1)), 2, 2),
    ]
    kinds = []
    for f, r, K in cases:
        cert = check_Tr(f, r, K=K)
        assert cert.verdict == "fails"
        kinds.append((f.m, cert.witness["kind"]))
        for key in ("x", "y") if cert.witness["kind"] == "remainder" else ("y",):
            coord = cert.witness[key]
            assert all(type(c) is int for c in (coord if f.m > 1 else (coord,)))
        json.dumps(cert.to_json())
    assert kinds == [(1, "remainder"), (1, "cr_norm"), (1, "remainder"), (1, "cr_norm"),
                     (2, "remainder")]


def _mixed_cases():
    # (components as exponent dicts, r, ball)
    yield [{(2,): 1}], 2, Z3
    yield [{(1,): Fraction(-1, 2), (2,): Fraction(1, 2)}], 1, Z2
    yield [{(3,): Fraction(1, 9), (0,): 1}], 2, Ball(3, (1,), 1)
    yield [{(1, 1): 1, (2, 0): 1}], 2, Ball(3, (0, 0), 0)
    yield [{(1, 1): Fraction(1, 3)}], 1, Ball(3, (1, 2), 1)
    yield [{(3, 0): Fraction(1, 9), (1, 1): 1}], 2, Ball(3, (0, 0), 1)
    yield [{(0, 1): 1}, {(2, 0): Fraction(1, 4)}], 1, Ball(2, (0, 1), 0)
    # x^3/3 on 3Z_3 has s = 1 and satisfies T_1
    yield [{(3,): Fraction(1, 3)}], 1, Ball(3, (0,), 1)
    rng = random.Random(41)
    for _ in range(20):
        p, m = rng.choice([2, 3]), rng.choice([1, 2])
        comps = [{tuple(rng.randint(0, 3) for _ in range(m)):
                  Fraction(rng.choice([-2, -1, 1, 3])) * Fraction(p) ** rng.choice([0, 0, -1])
                  for _ in range(rng.randint(1, 3))}
                 for _ in range(rng.choice([1, 2]))]
        alpha = rng.choice([0, 1])
        ball = Ball(p, tuple(rng.randrange(p) * alpha for _ in range(m)), alpha)
        yield comps, rng.randint(1, 2), ball


def test_check_tr_matches_exact_oracle_on_mixed_cases():
    # one- and two-variable maps, with and without p-denominators, against
    # the definition checked residue by residue and pair by pair mod p^K,
    # K = max(s, alpha) + 1: the same verdict, a witness the exact re-check
    # confirms, and in two variables, where both test the C^r half first,
    # the same witness
    outcomes = set()
    for comps, r, ball in _mixed_cases():
        s = max(0, max(-oracles.padic_val(c, ball.p) for t in comps for c in t.values()))
        K = max(s, ball.alpha) + 1
        f = PolyMap(ball.m, len(comps), [MultiPoly(ball.m, t) for t in comps],
                    domain=ball)
        cert = check_Tr(f, r, K=K)
        want = oracles.tr_check_oracle(comps, r, ball.p, ball.canonical_center(),
                                       ball.alpha, K)
        wit = cert.witness
        if want is None:
            assert (cert.verdict, wit) == ("holds", None), (comps, r, ball, K)
            outcomes.add(("holds", ball.m))
            continue
        assert cert.verdict == "fails", (comps, r, ball, K)
        assert recheck_witness(f, r, wit, ball.p)
        outcomes.add((wit["kind"], ball.m))
        if ball.m == 1:
            continue
        if want[0] == "remainder":
            got = (wit["kind"], wit["component"], wit["x"], wit["y"],
                   wit["ord_lhs"], wit["bound_rhs"])
        else:
            got = (wit["kind"], wit["component"], wit["order"], wit["y"],
                   wit["valuation"])
        assert got == want, (comps, r, ball, K)
    assert outcomes >= {("holds", 1), ("holds", 2), ("remainder", 1), ("remainder", 2),
                        ("cr_norm", 1), ("cr_norm", 2)}, outcomes


def test_power_preimage_balls_match_fraction_test():
    # the integer divisibility test picks the same residues, hence the same
    # maximal balls, as ord(b u^N - c) >= alpha in Fractions, also for b
    # with p in its denominator and centres with denominators
    rng = random.Random(19)
    kinds = set()
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        N = rng.choice([1, 2, 3, 4, 9, 16, 27])
        alpha = rng.randint(0, 3)
        b = Fraction(rng.choice([1, -1, 2, 3, 5, 7]) * p ** rng.randint(0, 1),
                     rng.choice([1, 1, 2, 3, 5, 4, 9]))
        c = Fraction(rng.randint(-20, 20), rng.choice([1, 1, 7, 11]))
        if c.denominator % p == 0:
            continue
        base = Ball(p, (c,), alpha)
        dom = PowerPreimage(base, N, (b,))
        j = max(alpha, 1)
        members = oracles.power_preimage_residues(p, N, b, c, alpha)
        want = [(ball.canonical_center(), ball.alpha)
                for ball in merge_residue_balls(members, p, j)]
        got = [(ball.canonical_center(), ball.alpha) for ball in dom.maximal_balls()]
        assert got == want, (p, N, b, c, alpha)
        kinds.add("empty" if not members else "full" if len(members) == p ** j
                  else "part")
        kinds.add("non-integral b" if b.denominator % p == 0 and members else "")
    assert kinds >= {"empty", "full", "part", "non-integral b"}


def test_check_tr_ball_of_another_dimension(monkeypatch):
    # a ball whose dimension differs from the map's is a configuration
    # error naming both, decided before any table is built; with s = 0 it
    # was reported as "holds", with s > 0 it raised IndexError
    from nonarch_lab import taylor
    from nonarch_lab.detmethod import certify_components

    def unreachable(*args):
        raise AssertionError("a check ran on a ball of another dimension")

    monkeypatch.setattr(taylor, "_check_tr_1d", unreachable)
    monkeypatch.setattr(taylor, "_check_tr_nd", unreachable)
    y_over_3 = PolyMap(2, 1, [MultiPoly(2, {(0, 1): Fraction(1, 3)})])
    y = PolyMap(2, 1, [MultiPoly(2, {(0, 1): 1})])
    line = Ball(3, (0,), 1)
    plane = Ball(3, (0, 0), 1)
    for f, ball in ((y_over_3, line), (y, line), (X2, plane)):
        with pytest.raises(ConfigError, match=rf"dimension {ball.m} .* {f.m} variables"):
            check_Tr(f, 1, ball)
    with pytest.raises(ConfigError, match="dimension 1 .* 2 variables"):
        certify_components(y_over_3, 1, line)
