import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import CIRCLE_FF, ELLIPTIC, HYPERB_T, LINE, PARAB_T, graph_variety
from nonarch_lab import _kernels
from nonarch_lab.errors import CapExceededError, ConfigError, RingMismatchError
from nonarch_lab.ffcount import (
    VarietySpec,
    _slack_sq,
    enumerate_Xr,
    estimate_delta,
    expand_scheme,
    load_variety,
    verify_bounds,
)

FIVE_VARIETIES = [LINE, ELLIPTIC, PARAB_T, HYPERB_T, CIRCLE_FF]


def test_enumerate_examples():
    assert enumerate_Xr(graph_variety(2), 2, 2) == 2
    assert enumerate_Xr(LINE, 3, 2) == 9
    assert enumerate_Xr(graph_variety(3), 2, 4) == 4


def test_enumerate_matches_direct_and_oracle():
    for X in (graph_variety(2), LINE, ELLIPTIC):
        for q in (2, 3):
            for r in (1, 2):
                kernel = enumerate_Xr(X, q, r)
                terms = [[(list(c), e) for e, c in poly.items()]
                         for poly in X.polynomials]
                assert kernel == oracles.ff_graph_count(terms, X.n, q, r)


def _random_terms(rng, n, r):
    """One random equation of 1-4 terms over Z[t]; some coefficients carry
    t-powers, some have vanishing low t-coefficients."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 3) for _ in range(n))
        coeff = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            coeff = [0] * rng.randint(1, r) + coeff
        terms.append((coeff, exps))
    return terms


def _lift_cases(seed, count=80, max_states=4000):
    rng = random.Random(seed)
    cases = []
    # unsolvable before the last level: 1 = 0 dies at level 0, t = 0 at level 1
    cases.append((2, 3, 3, [[([1], (0, 0))]]))
    cases.append((1, 2, 3, [[([1], (1,))], [([0, 1], (0,))]]))
    cases.append((2, 2, 2, []))  # no equations: every assignment counts
    while len(cases) < count:
        n, q, r = rng.choice([1, 2, 3]), rng.choice([2, 3, 5]), rng.randint(1, 3)
        if q ** (r * n) > max_states:
            continue
        n_eq = rng.choice([0, 1, 1, 2, 2])
        cases.append((n, q, r, [_random_terms(rng, n, r) for _ in range(n_eq)]))
    # 3x + 3t = 0 is identically zero mod 3, as is an equation without
    # terms (reduce_mod's form of it): every assignment counts
    cases.append((1, 3, 2, [[([3], (1,)), ([0, 3], (0,))], []]))
    # the constant equation 2 = 0 fails at level 0 whatever x is
    cases.append((2, 3, 2, [[([1], (1, 0))], [([2], (0, 0))]]))
    return cases


def _structured_cases(seed, count=44, max_states=3000):
    """Lifting cases whose level-k coefficients are not just linear: a
    degree-6 term x^2 y^3 z, the node y^2 = x^2 (x + 1), whose Jacobian
    vanishes at the origin, the cusp, t-coefficients that start past t^0,
    zero and constant equations, the many-factor terms of x^4 y^4 + x and
    x^2 y^2 z^2 - 1, whose last factor is cut to the coefficients asked
    for, and seeded random equations of degree up to 6 in up to three
    variables."""
    rng = random.Random(seed)
    node = [([1], (0, 2)), ([-1], (3, 0)), ([-1], (2, 0))]
    cusp = [([1], (0, 2)), ([-1], (3, 0))]
    sextic = [([1], (2, 3, 1)), ([1, 0, 2], (0, 0, 1)), ([0, 1], (1, 0, 0))]
    cases = [
        (2, 3, 3, [node]), (2, 5, 2, [node]), (2, 7, 2, [node]), (2, 2, 4, [node]),
        (2, 3, 3, [cusp]), (2, 5, 2, [cusp]),
        (3, 2, 3, [sextic]), (3, 3, 2, [sextic]), (3, 5, 1, [sextic]),
        (3, 2, 3, [[([1], (2, 3, 1))]]),
        # x^2 y^3 z alongside an equation that only starts at t^2
        (3, 2, 3, [[([1], (2, 3, 1)), ([1], (0, 0, 0))], [([0, 0, 1], (1, 0, 0))]]),
        # the node plus t times a line, and t^2 alone: fails at level 2
        (2, 3, 3, [node + [([0, 1], (1, 0))]]), (1, 3, 3, [[([0, 0, 1], (0,))]]),
        (1, 3, 2, [[([0, 0, 1], (0,))]]),  # t^2 = 0 is only seen past t^(r-1)
        # an equation without terms, and 3x^2, which is zero mod 3
        (2, 3, 2, [[], node]), (2, 3, 2, [[([3], (2, 0))], node]),
        (2, 5, 2, [[([0, 0, 0, 4], (0, 0))]]),  # 4t^3 = 0, a leaf-only failure
        (2, 3, 2, [node, [([2], (0, 0))]]),
        (2, 5, 2, [[([1], (4, 4)), ([1], (1, 0))]]), (2, 3, 3, [[([1], (4, 4)), ([1], (1, 0))]]),
        (3, 3, 2, [[([1], (2, 2, 2)), ([-1], (0, 0, 0))]]),
        (3, 2, 3, [[([1], (2, 2, 2)), ([-1], (0, 0, 0))]]),
    ]
    while len(cases) < count:
        n, q, r = rng.choice([1, 2, 3]), rng.choice([2, 3, 5, 7]), rng.randint(1, 4)
        if q ** (r * n) > max_states:
            continue
        eqs = []
        for _ in range(rng.choice([1, 1, 2])):
            terms = []
            for _ in range(rng.randint(1, 4)):
                degree = rng.randint(0, 6)
                exps = [0] * n
                for _ in range(degree):
                    exps[rng.randrange(n)] += 1
                coeff = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
                if rng.random() < 0.3:
                    coeff = [0] * rng.randint(1, r) + coeff
                terms.append((coeff, tuple(exps)))
            eqs.append(terms)
        cases.append((n, q, r, eqs))
    return cases


@pytest.mark.parametrize("block", [1, 7, None])
def test_lifted_count_matches_full_range_and_oracle(block, monkeypatch):
    # the t-adic lifting keeps exactly the full-range evaluator's solutions,
    # in ascending order, and agrees with the raw convolution oracle
    if block is not None:
        monkeypatch.setattr(_kernels, "LIFT_BLOCK", block)
    seen_empty = False
    for n, q, r, eqs in (_lift_cases(seed=20 + (block or 0))
                         + _structured_cases(seed=21 + (block or 0))):
        reduced = [[([c % q for c in cs], e) for cs, e in terms] for terms in eqs]
        idx = np.arange(q ** (r * n), dtype=np.int64)
        want = idx[oracles.ff_count_full_range(q, r, n, reduced, idx)]
        count, got = _kernels.ff_count(q, r, n, reduced, want_indices=True)
        assert count == len(got) == len(want), (n, q, r, eqs)
        assert np.array_equal(got, want), (n, q, r, eqs)
        assert _kernels.ff_count(q, r, n, reduced) == count
        assert count == oracles.ff_graph_count(eqs, n, q, r), (n, q, r, eqs)
        seen_empty |= count == 0
    assert seen_empty


def _power_cases(seed, count=100, max_states=2000):
    """Seeded equations whose exponents sit at and past q and q^2: per
    term one coordinate gets e = d_0 + d_1 q + d_2 q^2 with random base-q
    digits (d_2 below 2 for q >= 5, so that the expansion oracle stays
    small) and the others at most 1."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        n, q, r = rng.randint(1, 3), rng.choice([2, 3, 5, 7]), rng.randint(1, 3)
        if q ** (r * n) > max_states:
            continue
        eqs = []
        for _ in range(rng.choice([1, 1, 2])):
            terms = []
            for _ in range(rng.randint(1, 3)):
                digits = [rng.randrange(q), rng.randrange(q), rng.randrange(q if q < 5 else 2)]
                if digits[1:] == [0, 0]:
                    digits[rng.randint(1, 2)] = 1  # at or past q
                exps = [rng.randint(0, 1) for _ in range(n)]
                exps[rng.randrange(n)] = digits[0] + digits[1] * q + digits[2] * q * q
                coeff = [rng.randint(-3, 3) for _ in range(rng.randint(1, 2))]
                terms.append((coeff, tuple(exps)))
            eqs.append(terms)
        cases.append((n, q, r, eqs))
    # exactly q, q^2 and q^2 - 1 (every digit q - 1), and x^q = x at r = 1
    for q in (2, 3, 5, 7):
        cases.append((1, q, 3, [[([1], (q,))]]))
        cases.append((2, q, 2, [[([1], (q * q, 0)), ([0, 1], (0, 1))]]))
        cases.append((1, q, 3, [[([1], (q * q - 1,)), ([1], (0,))]]))
        cases.append((1, q, 1, [[([1], (q,)), ([-1], (1,))]]))
    return cases


def test_high_powers_match_unit_factor_oracles():
    # power_plan's base-q factors against references that multiply x_i^e
    # out one factor at a time: the full-range solution set, and the
    # expanded scheme by MultiPoly substitution (over Q, too slow for
    # exponents near q^2 at r = 3 and q >= 5, which only the count checks)
    cases = _power_cases(seed=36)
    for p in (2, 3, 5, 7):  # digits of every size, at q^2 too for q <= 3
        places = (0, 1, 2) if p < 5 else (0, 1)
        seen = {(j, e // p ** j % p) for n, q, r, eqs in cases if q == p
                for terms in eqs for cs, exps in terms for e in exps if e >= q
                for j in places}
        assert seen == {(j, d) for j in places for d in range(p)}, p
    for n, q, r, eqs in cases:
        reduced = [[([c % q for c in cs], e) for cs, e in terms] for terms in eqs]
        idx = np.arange(q ** (r * n), dtype=np.int64)
        want = idx[oracles.ff_count_full_range(q, r, n, reduced, idx)]
        count, got = _kernels.ff_count(q, r, n, reduced, want_indices=True)
        assert count == len(want) and np.array_equal(got, want), (n, q, r, eqs)
        if r == 3 and q >= 5:
            continue
        X = _variety(n, eqs)
        assert ([eq.terms for eq in expand_scheme(X, q, r)]
                == [eq.terms for eq in oracles.expand_scheme_substitute(X, q, r)]), (q, r, eqs)


def test_exponent_ten_thousand():
    # x^10000 = 0 forces x = 0 and leaves y free: q^r points.  10000 has
    # digit sums 5, 8 and 4 in bases 2, 3 and 5, against 10000 unit factors
    X = VarietySpec(2, [{(10000, 0): (1,)}])
    for q, r in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 2)):
        assert enumerate_Xr(X, q, r) == q ** r, (q, r)
    # at r = 2, (a + b t)^e = sum_k C(e, k) a^(e-k) b^k t^k: one equation
    # per k with C(e, k) nonzero mod 3
    want, binomial = [], 1
    for k in range(10001):
        if binomial % 3:
            want.append({(10000 - k, k, 0, 0): binomial % 3})
        binomial = binomial * (10000 - k) // (k + 1)
    assert [eq.terms for eq in expand_scheme(X, 3, 2)] == want


def _variety(n, eqs):
    """The VarietySpec of a lifting case's equations."""
    return VarietySpec.from_json({"n": n, "polynomials": [
        [{"exp": list(exps), "coeff": list(cs)} for cs, exps in terms] for terms in eqs]})


# 1 = 0 dies at level 0; t^2 = 0 dies in the tail at r <= 2 and in the lift
# at level 2 for r >= 3; with n = 0 there is one assignment, the empty one
DEGENERATE = [(2, 3, 4, [[([1], (0, 0))]]), (1, 3, 4, [[([0, 0, 1], (0,))]]),
              (0, 5, 4, []), (0, 2, 3, [[([0, 1], ())]]), (0, 3, 3, [[([3], ())]])]


@pytest.mark.parametrize("block", [1, 7, None])
def test_shared_lift_counts_every_r(block, monkeypatch):
    # one lift per field size, read for every degree bound the caller asks
    # for in any order, gives per-r enumerate_Xr and the raw oracle
    if block is not None:
        monkeypatch.setattr(_kernels, "LIFT_BLOCK", block)
    rng = random.Random(40 + (block or 0))
    lifts = []
    kernel = _kernels.ff_count

    def recorded(q, r, n, equations, want_indices=False, below=None):
        lifts.append(r)
        return kernel(q, r, n, equations, want_indices, below)

    cases = (DEGENERATE + _lift_cases(seed=22 + (block or 0), count=40)
             + _structured_cases(seed=23 + (block or 0), count=30))
    for n, q, top, eqs in cases:
        X = _variety(n, eqs)
        rs = rng.sample(range(1, top + 1), rng.randint(1, top))
        if top == 4 and rng.random() < 0.5:
            rs = [4, 2, 3]
        want = {r: oracles.ff_graph_count(eqs, n, q, r) for r in rs}
        assert want == {r: enumerate_Xr(X, q, r) for r in rs}, (n, q, eqs)
        counts = dict.fromkeys(rs)
        monkeypatch.setattr(_kernels, "ff_count", recorded)
        lifts.clear()
        got = {r: enumerate_Xr(X, q, r, counts=counts) for r in rs}
        monkeypatch.setattr(_kernels, "ff_count", kernel)
        assert got == want == counts, (n, q, rs, eqs)
        assert lifts == [max(rs)], (n, q, rs, eqs)


def test_shared_lift_stops_at_the_cap(monkeypatch):
    # the first call lifts to the largest bound the cap admits and no
    # further; a bound past the cap raises on its own call, as before
    kernel, lifts = _kernels.ff_count, []

    def recorded(q, r, n, equations, want_indices=False, below=None):
        lifts.append((r, dict(below or {})))
        return kernel(q, r, n, equations, want_indices, below)

    monkeypatch.setattr(_kernels, "ff_count", recorded)
    counts = dict.fromkeys([1, 2, 3, 4, 5])
    assert enumerate_Xr(LINE, 3, 1, cap=3 ** 6, counts=counts) == 3
    assert counts == {1: 3, 2: 9, 3: 27, 4: None, 5: None}
    assert lifts == [(3, {1: 0, 2: 0})]
    assert enumerate_Xr(LINE, 3, 3, cap=3 ** 6, counts=counts) == 27
    with pytest.raises(CapExceededError, match=r"^6561 assignments q\^\(r\*n\) exceed cap 729; "
                                               r"--cap 6561 admits them$"):
        enumerate_Xr(LINE, 3, 4, cap=3 ** 6, counts=counts)
    assert len(lifts) == 1 and counts[4] is None
    # the cap q^(r*n) = 729 decides r = 3; one below it stops before any lift
    with pytest.raises(CapExceededError, match=r"^729 assignments q\^\(r\*n\) exceed cap 728; "
                                               r"--cap 729 admits them$"):
        enumerate_Xr(LINE, 3, 3, cap=3 ** 6 - 1)
    assert len(lifts) == 1
    # keys outside 1..r-1 of the kernel's below are left alone
    below = {0: 7, 2: 0, 3: 0, 9: 5}
    assert kernel(3, 3, 2, LINE.reduce_mod(3), below=below) == 27
    assert below == {0: 7, 2: 9, 3: 0, 9: 5}


def test_from_json_sums_repeated_exponents():
    # x*1 + 5 + x*(2 + t^2) is (3 + t^2) x + 5, not (2 + t^2) x + 5
    X = VarietySpec.from_json({"n": 1, "polynomials": [[
        {"exp": [1], "coeff": [1]}, {"exp": [0], "coeff": [5]},
        {"exp": [1], "coeff": [2, 0, 1]}]]})
    assert X.polynomials == [{(1,): (3, 0, 1), (0,): (5,)}]
    # x*1 + x*2 = 3x vanishes identically mod 3; 2x alone only at x = 0
    X = VarietySpec.from_json({"n": 1, "polynomials": [[
        {"exp": [1], "coeff": [1]}, {"exp": [1], "coeff": [2]}]]})
    assert enumerate_Xr(X, 3, 2) == 9


@pytest.mark.parametrize("args, named", [
    ((1, [{(-1,): (1,)}]), "exponent must be >= 0"),
    ((1, [{(1.5,): (1,)}]), "exponent must be an integer"),
    ((1, [{(1,): (1.5,)}]), "coefficient must be an integer"),
    ((-1, []), "n must be >= 0"),
    ((1, [], -1), "m must be >= 0"),
    ((1, [], 1, 0), "d must be >= 1"),
], ids=["exp-negative", "exp-fraction", "coeff-fraction", "n", "m", "d"])
def test_variety_spec_rejects_malformed_fields(args, named):
    with pytest.raises(ConfigError, match=named):
        VarietySpec(*args)


def test_graph_filtration_law():
    # graphs y = g(x) with deg g = d and no t-coefficients count q^ceil(r/d)
    cubic_plus = VarietySpec(2, [{(0, 1): (1,), (3, 0): (-1,), (1, 0): (-1,)}],
                             m=1, d=3, irreducible=True, name="y=x^3+x")
    quad_shift = VarietySpec(2, [{(0, 1): (1,), (2, 0): (-1,), (0, 0): (-1,)}],
                             m=1, d=2, irreducible=True, name="y=x^2+1")
    for X, d in ((cubic_plus, 3), (quad_shift, 2), (graph_variety(4), 4)):
        for q in (2, 3, 5):
            for r in (1, 2, 3, 4):
                assert enumerate_Xr(X, q, r) == q ** (-(-r // d)), (X.name, q, r)


def test_monotone_in_r():
    for X in (ELLIPTIC, PARAB_T, CIRCLE_FF):
        for q in (2, 3):
            counts = [enumerate_Xr(X, q, r) for r in (1, 2, 3)]
            assert counts[0] <= counts[1] <= counts[2]


def test_expand_scheme_examples():
    eqs = expand_scheme(graph_variety(2), 2, 2)
    # {b0 + a0^2, b1, a1^2} in variables (a0, a1, b0, b1)
    want = [
        {(0, 0, 1, 0): 1, (2, 0, 0, 0): 1},
        {(0, 0, 0, 1): 1},
        {(0, 2, 0, 0): 1},
    ]
    assert [eq.terms for eq in eqs] == want

    eqs3 = expand_scheme(graph_variety(2), 3, 2)
    want3 = [
        {(0, 0, 1, 0): 1, (2, 0, 0, 0): 2},
        {(0, 0, 0, 1): 1, (1, 1, 0, 0): 1},
        {(0, 2, 0, 0): 2},
    ]
    assert [eq.terms for eq in eqs3] == want3

    eqs_line = expand_scheme(LINE, 5, 2)
    assert [eq.terms for eq in eqs_line] == [
        {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1},
        {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1},
    ]


def _random_variety(rng):
    n = rng.randint(1, 3)
    polys = []
    for _ in range(rng.randint(1, 2)):
        poly = {}
        for _ in range(rng.randint(0, 4)):
            exp = tuple(rng.randint(0, 3) for _ in range(n))
            poly[exp] = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 3)))
        polys.append(poly)
    return VarietySpec(n, polys)


def test_expand_scheme_matches_substitution():
    # the integer expansion equals MultiPoly substitution with t as one
    # more variable, term for term and in the same order of equations, on
    # the shipped varieties and on seeded ones (zero polynomials, terms
    # that vanish mod q, t-coefficients)
    shipped = sorted(Path(__file__).resolve().parent.parent.glob("varieties/*.json"))
    assert len(shipped) >= 5
    cases = [(load_variety(str(path)), q, r) for path in shipped
             for q in (2, 3, 5) for r in (1, 2, 3)]
    rng = random.Random(2021)
    cases += [(_random_variety(rng), rng.choice([2, 3, 5, 7]), rng.randint(1, 3))
              for _ in range(120)]
    for X, q, r in cases:
        got = expand_scheme(X, q, r)
        want = oracles.expand_scheme_substitute(X, q, r)
        assert [eq.nvars for eq in got] == [eq.nvars for eq in want]
        assert [eq.terms for eq in got] == [eq.terms for eq in want], (X, q, r)


def test_count_expanded_examples():
    eqs = expand_scheme(graph_variety(2), 2, 2)
    assert oracles.count_expanded(eqs, 2, 2, 2) == 2
    eqs = expand_scheme(LINE, 3, 2)
    assert oracles.count_expanded(eqs, 3, 2, 2) == 9
    assert oracles.count_expanded([], 2, 1, 2) == 4  # empty system


def test_represent_identification():
    # enumerate_Xr == oracles.count_expanded(expand_scheme) exactly
    for X in FIVE_VARIETIES:
        for q in (2, 3, 5):
            for r in (1, 2, 3):
                direct = enumerate_Xr(X, q, r)
                expanded = oracles.count_expanded(expand_scheme(X, q, r), q, r, X.n)
                assert direct == expanded, (X.name, q, r)


def test_estimate_delta_power_laws():
    # exact law mu * q^delta recovers (delta, mu) with zero slack
    for mu, delta in ((1, 2), (3, 1), (5, 3)):
        counts = {q: mu * q ** delta for q in (5, 7, 11)}
        got = estimate_delta(counts, delta, 2, mu_cap=8)
        assert got == (delta, Fraction(mu), Fraction(0))


def test_estimate_delta_line_and_graph():
    for r in (1, 2, 3):
        counts = {q: enumerate_Xr(LINE, q, r) for q in (2, 3, 5)}
        delta, mu, slack = estimate_delta(counts, r, 2)
        assert (delta, mu, slack) == (r, 1, 0)
    for r in (1, 2, 3, 4):
        counts = {q: enumerate_Xr(graph_variety(3), q, r) for q in (2, 3, 5)}
        delta, mu, slack = estimate_delta(counts, r, 2)
        assert (delta, mu, slack) == (-(-r // 3), 1, 0)


def test_estimate_delta_validation():
    with pytest.raises(ConfigError):
        estimate_delta({2: 4}, 1, 2)
    with pytest.raises(ConfigError):
        estimate_delta({2: 0, 3: 0}, 1, 2)
    for mu_cap in (0, -1):
        with pytest.raises(ConfigError, match="mu_cap"):
            estimate_delta({2: 4, 3: 9}, 1, 2, mu_cap=mu_cap)


def test_estimate_delta_matches_bruteforce_fit():
    # near-power-law counts mu0 * q^delta0 + noise, with mu0 on both sides
    # of mu_cap; every fifth set is unstructured, and every fifth sits
    # halfway between mu0 and mu0 + 1 over powers of 2, where the slack
    # ties between two mu and the smaller must win
    rng = random.Random(2014)
    sizes = [2, 3, 4, 5, 7, 8, 9, 11, 13]
    for case in range(400):
        mu_cap = (1, 2, 5, 64)[case % 4]
        r, n = rng.randint(1, 2), rng.randint(1, 2)
        delta0, mu0 = rng.randint(0, r * n), rng.randint(1, 80)
        if case % 5 == 3:
            qs = rng.sample([2, 4, 8, 16], rng.randint(2, 3))
            delta0 = max(delta0, 1)
        else:
            qs = rng.sample(sizes, rng.randint(2, 4))
        counts = {}
        for q in qs:
            Q = q ** delta0
            if case % 5 == 4:
                counts[q] = rng.randint(0, 10 ** 4)
            elif case % 5 == 3:
                counts[q] = mu0 * Q + Q // 2
            else:
                width = max(1, Q // 2)
                counts[q] = max(0, mu0 * Q + rng.randint(-width, width))
        if not any(counts.values()):
            counts[qs[0]] = 1
        want = oracles.fit_delta_bruteforce(counts, r, n, mu_cap)
        assert estimate_delta(counts, r, n, mu_cap=mu_cap) == want, (counts, r, n, mu_cap)
    # mu = 1 and mu = 2 both give slack^2 1 at delta = 1
    assert estimate_delta({2: 3, 4: 6}, 1, 1, mu_cap=5) == (1, Fraction(1), Fraction(1))


def test_integer_slack_matches_fraction_slack():
    # the cross-multiplied integer maximum against one Fraction quotient
    # per q, at every delta from 0 up, and fits whose best delta is 0
    rng = random.Random(11)
    for _ in range(300):
        qs = rng.sample([2, 3, 4, 5, 7, 8, 9, 11, 13], rng.randint(2, 4))
        counts = {q: rng.randint(0, 3000) for q in qs}
        for delta in range(4):
            for mu in (1, rng.randint(2, 80)):
                num, den = _slack_sq(counts, delta, mu)
                assert den > 0
                assert (Fraction(num, den)
                        == oracles.slack_sq_fraction(counts, delta, mu)), (counts, delta, mu)
    flat = 0
    for _ in range(60):
        qs = rng.sample([5, 7, 11, 13], 3)
        counts = dict.fromkeys(qs, rng.randint(1, 60))
        counts[qs[0]] += rng.choice((-1, 1))
        want = oracles.fit_delta_bruteforce(counts, 1, 1, 64)
        assert estimate_delta(counts, 1, 1, mu_cap=64) == want, counts
        flat += want[0] == 0
    assert flat >= 30


def test_elliptic_hasse_window():
    counts = {q: enumerate_Xr(ELLIPTIC, q, 1) for q in (5, 7, 11, 13)}
    delta, mu, slack_sq = estimate_delta(counts, 1, 2)
    assert delta == 1 and mu == 1
    assert slack_sq <= 4  # affine Hasse bound gives C close to 2


def test_verify_bounds_examples():
    counts4 = {q: enumerate_Xr(graph_variety(3), q, 4) for q in (2, 3, 5)}
    rep = verify_bounds(counts4, graph_variety(3), 4)
    assert rep.delta == 2 and rep.motivic_bound == 2 and rep.motivic_ok

    counts3 = {q: enumerate_Xr(LINE, q, 3) for q in (2, 3, 5)}
    rep = verify_bounds(counts3, LINE, 3)
    assert rep.delta == 3
    assert rep.trivial_bound == 3 and rep.trivial_ok
    assert rep.motivic_bound == 3 and rep.motivic_ok

    counts2 = {q: enumerate_Xr(ELLIPTIC, q, 2) for q in (5, 7, 11, 13)}
    rep = verify_bounds(counts2, ELLIPTIC, 2)
    assert rep.motivic_bound == 1 and rep.motivic_ok
    assert all(v > 0 for v in rep.cohen_ratio_sq.values())


def test_caps_and_prime_validation():
    with pytest.raises(CapExceededError):
        enumerate_Xr(ELLIPTIC, 13, 3, cap=1000)
    with pytest.raises(RingMismatchError):
        enumerate_Xr(ELLIPTIC, 4, 1)  # prime fields only
    with pytest.raises(CapExceededError):
        oracles.count_expanded(expand_scheme(LINE, 3, 2), 3, 2, 2, cap=10)


def test_json_roundtrip():
    blob = {"n": 2, "m": 1, "d": 3, "irreducible": True, "name": "y^2=x^3-x",
            "polynomials": [[{"exp": [0, 2], "coeff": [1]}, {"exp": [1, 0], "coeff": [1]},
                             {"exp": [3, 0], "coeff": [-1]}]]}
    back = VarietySpec.from_json(blob)
    assert back.polynomials == ELLIPTIC.polynomials
    assert (back.m, back.d, back.irreducible) == (1, 3, True)
