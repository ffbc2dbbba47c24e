import random
from fractions import Fraction

import pytest

import oracles
from conftest import conic_generator, cuspidal_generator, ideal_table, power_curve_generator
from nonarch_lab import hilbert
from nonarch_lab.arith_core import MultiPoly
from nonarch_lab.errors import CapExceededError, ConfigError
from nonarch_lab.hilbert import (
    HilbertTable,
    _minimalize,
    delta_exponents,
    grevlex_key,
    groebner,
    hilbert_numerator,
    leading_term,
    monomials_of_degree,
    normal_form,
    s_polynomial,
    salberger_check,
    select_delta_alpha,
)


def test_compare_order_examples():
    assert oracles.compare_order((1, 0, 1), (0, 2, 0)) == -1
    assert oracles.compare_order((2, 0, 0), (1, 1, 0)) == -1
    assert oracles.compare_order((1, 0, 0), (0, 2, 0)) == -1  # degree first
    assert oracles.compare_order((1, 1, 0), (1, 1, 0)) == 0


def test_order_is_multiplicative():
    mons = monomials_of_degree(3, 2) + monomials_of_degree(3, 3)
    for a in mons:
        for b in mons:
            if oracles.compare_order(a, b) != -1:
                continue
            for g in monomials_of_degree(3, 1):
                sa = tuple(x + y for x, y in zip(a, g))
                sb = tuple(x + y for x, y in zip(b, g))
                assert oracles.compare_order(sa, sb) == -1


def test_groebner_principal():
    gb = groebner([conic_generator()])
    assert len(gb) == 1
    exp, coeff = leading_term(gb[0])
    assert exp == (0, 2, 0) and coeff == 1


def test_groebner_single_variable():
    gb = groebner([MultiPoly(3, {(0, 1, 0): Fraction(1)})])
    assert len(gb) == 1 and gb[0].terms == {(0, 1, 0): Fraction(1)}


def test_groebner_two_generators_buchberger_criterion():
    gens = [MultiPoly(3, {(1, 0, 1): 1, (0, 2, 0): -1}),
            MultiPoly(3, {(0, 1, 1): 1, (2, 0, 0): -1})]
    gb = groebner(gens)
    assert gb
    # oracle: every S-polynomial of the finished basis reduces to zero
    for i in range(len(gb)):
        for j in range(i):
            assert normal_form(s_polynomial(gb[i], gb[j]), gb).is_zero()
    # and the generators themselves reduce to zero
    for g in gens:
        assert normal_form(g, gb).is_zero()


def test_groebner_budget():
    gens = [MultiPoly(3, {(1, 0, 1): 1, (0, 2, 0): -1}),
            MultiPoly(3, {(0, 1, 1): 1, (2, 0, 0): -1})]
    with pytest.raises(CapExceededError, match="^2 S-pairs exceed cap 1; --budget 2 admits them$"):
        groebner(gens, s_pair_budget=1)
    # Buchberger takes 3 S-pairs here: a budget of 3 decides, 2 stops
    assert groebner(gens, s_pair_budget=3) == groebner(gens)
    with pytest.raises(CapExceededError, match="^3 S-pairs exceed cap 2; --budget 3 admits them$"):
        groebner(gens, s_pair_budget=2)


def test_reduced_basis_leads_are_minimal_and_sorted():
    # the leading exponents of groebner's reduced basis are the minimal
    # generators of LT(I), in grevlex order: `hilbert` hands them to
    # HilbertTable as they come, on seeded homogeneous ideals (a zero
    # coefficient may leave a zero generator, or no generator at all)
    rng = random.Random(39)
    grown = 0
    for _ in range(300):
        nvars = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(1, 3)):
            mons = monomials_of_degree(nvars, rng.randint(1, 3))
            picked = rng.sample(mons, min(len(mons), rng.randint(1, 3)))
            gens.append(MultiPoly(nvars, {m: rng.randint(-3, 3) for m in picked}))
        gb = groebner(gens)
        grown += len(gb) > sum(1 for g in gens if g)
        leads = [leading_term(g)[0] for g in gb]
        assert leads == oracles.minimal_monomial_generators(leads), gens
    assert grown >= 20  # Buchberger adds S-polynomial remainders, not only reduces


def test_hilbert_conic_values():
    table = ideal_table([conic_generator()])
    assert table.hilbert_function(3) == 7
    for s in range(1, 13):
        assert table.hilbert_function(s) == 2 * s + 1
    assert table.sigma_all(4) == (16, 4, 16)


def test_hilbert_tables_share_no_stats():
    # each table caches its own (H(s), sigma(s)) from an empty dict
    one, two = HilbertTable(2, [(2, 0)]), HilbertTable(2, [(2, 0)])
    assert one._stats == {} and one._stats is not two._stats
    assert one.hilbert_function(3) == 2 and two._stats == {}


def test_hilbert_matches_bruteforce_oracle():
    cases = [
        ("conic", [conic_generator()]),
        ("cuspidal", [cuspidal_generator()]),
        ("y=x^4", [power_curve_generator(4)]),
        ("twisted", [MultiPoly(3, {(1, 0, 1): 1, (0, 2, 0): -1}),
                     MultiPoly(3, {(0, 1, 1): 1, (2, 0, 0): -1})]),
    ]
    for name, gens in cases:
        table = ideal_table(gens)
        raw = [{e: c for e, c in g.terms.items()} for g in gens]
        for s in range(0, 13):
            want = oracles.hilbert_codimension(raw, 3, s)
            assert table.hilbert_function(s) == want, (name, s)


def test_sigma_identity():
    for gens in ([conic_generator()], [cuspidal_generator()],
                 [power_curve_generator(4)]):
        table = ideal_table(gens)
        for s in range(1, 21):
            H = table.hilbert_function(s)
            assert s * H == sum(table.sigma_all(s))


def test_a_estimates_conic():
    table = ideal_table([conic_generator()])
    assert table.a_estimates(10) == (Fraction(100, 210), Fraction(10, 210),
                                     Fraction(100, 210))
    for s in (3, 7, 10, 15):
        assert sum(table.a_estimates(s)) == 1
    # ratios trend to (1/2, 0, 1/2)
    big = table.a_estimates(200)
    assert abs(big[0] - Fraction(1, 2)) < Fraction(1, 100)
    assert big[1] < Fraction(1, 100)


def test_a_extrapolation_sharper_than_finite_s():
    # two-point Richardson extrapolation 2 ratio(2s) - ratio(s)
    table = ideal_table([conic_generator()])
    target = (Fraction(1, 2), Fraction(0), Fraction(1, 2))
    for s in (5, 10):
        plain = table.a_estimates(s)
        extra = tuple(2 * b - a for a, b in zip(plain, table.a_estimates(2 * s)))
        assert sum(extra) == 1
        for i in range(3):
            assert abs(extra[i] - target[i]) <= abs(plain[i] - target[i])


def test_zero_ideal_table():
    table = HilbertTable(3, [])
    from math import comb
    for s in range(0, 8):
        assert table.hilbert_function(s) == comb(s + 2, 2)


def test_salberger_examples():
    conic = ideal_table([conic_generator()])
    rep = salberger_check(conic, 10, 1)
    assert rep.ratio == Fraction(110, 210) and rep.ok

    cusp = ideal_table([cuspidal_generator()])
    rep = salberger_check(cusp, 12, 1)
    assert rep.ok

    # I = (0) in P^1: sigma_1/(s*H) = 1/2 exactly
    p1 = HilbertTable(2, [])
    rep = salberger_check(p1, 10, 1, slack=0)
    assert rep.ratio == Fraction(1, 2) and rep.ok


def test_select_delta_alpha_examples():
    conic = ideal_table([conic_generator()])
    assert select_delta_alpha(conic, 2, 4) == (2, 2)
    assert select_delta_alpha(conic, 2, 2) == (1, 1)
    line = ideal_table([MultiPoly(3, {(0, 1, 0): 1, (0, 0, 1): -1})])
    delta, alpha = select_delta_alpha(line, 1, 5)
    assert delta == 1 and alpha <= 5


def test_select_delta_alpha_scan_cap():
    # each delta scanned is charged to scan_cap: (2, 2) takes 2 degrees,
    # and d = 5, r = 3 admits no delta up to 500, the last ratio kept
    conic = ideal_table([conic_generator()])
    assert select_delta_alpha(conic, 2, 4, scan_cap=2) == (2, 2)
    with pytest.raises(CapExceededError, match="^2 degrees delta exceed cap 1; "
                                               "scan_cap 2 admits them; last ratio 2$"):
        select_delta_alpha(conic, 2, 4, scan_cap=1)
    with pytest.raises(CapExceededError, match="^501 degrees delta exceed cap 500; scan_cap "
                                               "501 admits them; last ratio 1002/1001$"):
        select_delta_alpha(conic, 5, 3)


def test_select_delta_alpha_reverify():
    curves = {d: ideal_table([power_curve_generator(d)])
              for d in (1, 2, 3, 4)}
    for d, table in curves.items():
        for r in range(1, 13):
            delta, alpha = select_delta_alpha(table, d, r)
            mu, e = table.mu_e(delta)
            sig = table.sigma_all(delta)
            lhs = Fraction((r - 1) * (sig[1] + sig[2]), e)
            assert lhs < alpha <= -(-r // d)


def test_power_curve_hilbert_closed_form():
    # LT = x1^d: brute-force cross-check for d <= 4, s <= 12
    for d in range(1, 5):
        table = ideal_table([power_curve_generator(d)])
        # for d = 1 the generator is x2 - x1, whose lead is x2 in this order
        assert table.lt_gens == [(0, d, 0) if d > 1 else (0, 0, 1)]
        raw = [{e: c for e, c in power_curve_generator(d).terms.items()}]
        for s in range(0, 13):
            assert table.hilbert_function(s) == oracles.hilbert_codimension(raw, 3, s)


def test_select_needs_plane():
    table = HilbertTable(4, [])
    with pytest.raises(ConfigError):
        select_delta_alpha(table, 2, 4)


def test_monomials_of_degree_negative():
    for nvars in (0, 1, 2, 3):
        assert monomials_of_degree(nvars, -1) == []
        assert monomials_of_degree(nvars, -3) == []
    table = HilbertTable(1, [])
    assert table.standard_monomials(-1) == []
    assert table.hilbert_function(-1) == 0 and table.sigma_all(-1) == (0,)


def test_delta_exponents_is_sorted_union_of_degrees():
    for n in range(1, 4):
        for d in range(5):
            want = sorted((e for s in range(d + 1) for e in monomials_of_degree(n, s)),
                          key=grevlex_key)
            got = delta_exponents(n, d)
            assert isinstance(got, tuple) and list(got) == want, (n, d)
            assert delta_exponents(n, d) is got  # computed once per (n, d)


def _assert_table_matches_filter(nvars, lt_gens, smax=12):
    table = HilbertTable(nvars, lt_gens)
    for s in range(smax + 1):
        want = oracles.standard_monomials_filter(nvars, lt_gens, s)
        assert table.standard_monomials(s) == want, (nvars, lt_gens, s)
        sig = tuple(sum(e[i] for e in want) for i in range(nvars))
        assert (table.hilbert_function(s), table.sigma_all(s)) == (len(want), sig)


def test_table_matches_filter_on_random_monomial_ideals():
    rng = random.Random(20141)
    for _ in range(200):
        nvars = rng.randint(1, 4)
        lt_gens = [tuple(rng.randint(0, 3) for _ in range(nvars))
                   for _ in range(rng.randint(0, 5))]
        _assert_table_matches_filter(nvars, lt_gens, smax=15)


def test_table_unit_zero_and_redundant_generators():
    _assert_table_matches_filter(3, [(0, 0, 0)])
    _assert_table_matches_filter(3, [(1, 0, 2), (0, 0, 0)])
    for nvars in (1, 2, 3, 4):
        _assert_table_matches_filter(nvars, [])
    # duplicates, and generators that are multiples of other generators
    _assert_table_matches_filter(
        3, [(1, 1, 0), (1, 1, 0), (2, 1, 0), (0, 0, 3), (0, 1, 3), (1, 2, 3)])
    _assert_table_matches_filter(4, [(0, 2, 0, 0), (0, 2, 1, 0), (0, 3, 0, 0)])
    table = HilbertTable(3, [(0, 0, 0)])
    assert table.standard_monomials(0) == []
    assert table.hilbert_function(5) == 0 and table.sigma_all(5) == (0, 0, 0)
    assert hilbert_numerator(3, [(0, 0, 0), (1, 0, 0)]) == {}


def test_table_out_of_order():
    lt_gens = [(0, 2, 0, 0), (0, 1, 1, 0), (1, 0, 2, 1)]
    table = HilbertTable(4, lt_gens)
    for s in (10, 3, 11, 0, 11):
        want = oracles.standard_monomials_filter(4, lt_gens, s)
        got = table.standard_monomials(s)
        assert got == want, s
        got.clear()  # a fresh list: the table keeps none
        assert table.standard_monomials(s) == want
        assert table.hilbert_function(s) == len(want)
        sig = tuple(sum(e[i] for e in want) for i in range(4))
        assert table.sigma_all(s) == sig


def test_table_no_variables():
    # n = 0: the only monomial is 1, of degree 0
    _assert_table_matches_filter(0, [])
    _assert_table_matches_filter(0, [()])
    free = HilbertTable(0, [])
    unit = HilbertTable(0, [()])
    assert [free.hilbert_function(s) for s in range(-2, 4)] == [0, 0, 1, 0, 0, 0]
    assert [unit.hilbert_function(s) for s in range(-2, 4)] == [0] * 6
    for table in (free, unit):
        assert all(table.sigma_all(s) == () for s in range(-2, 4))
        assert table.standard_monomials(-1) == []
        assert table.standard_monomials(1) == []
    assert free.standard_monomials(0) == [()] and unit.standard_monomials(0) == []
    assert hilbert_numerator(0, []) == {(): 1} and hilbert_numerator(0, [()]) == {}


def test_table_one_variable():
    # (x^d): the monomials x^s with s < d; d = 0 is the unit ideal
    assert [HilbertTable(1, []).sigma_all(s) for s in range(4)] == [
        (0,), (1,), (2,), (3,)]
    for d in range(4):
        table = HilbertTable(1, [(d,), (d + 2,)])
        assert hilbert_numerator(1, [(d,), (d + 2,)]) == ({(0,): 1, (d,): -1}
                                                           if d else {})
        for s in range(-1, 8):
            assert table.hilbert_function(s) == int(0 <= s < d), (d, s)
            assert table.sigma_all(s) == (s if 0 <= s < d else 0,), (d, s)
            assert table.standard_monomials(s) == ([(s,)] if 0 <= s < d else [])


def test_minimalize():
    assert _minimalize([(1, 1, 0), (1, 1, 0), (2, 1, 0), (0, 0, 3), (0, 1, 3)]) == (
        (0, 0, 3), (1, 1, 0))
    assert _minimalize([(1, 0, 2), (0, 0, 0), (2, 2, 2)]) == ((0, 0, 0),)
    assert _minimalize([]) == ()


def test_numerator_recursion_sees_only_minimal_generators(monkeypatch):
    # every generator set the recursion visits is minimal and sorted, and
    # (x1, ..., x4)^4 in P^4 visits few of them (39; over 1,000 when the
    # colon ideals are not minimalized)
    seen = []
    numerator = hilbert._numerator

    def spy(G, memo):
        seen.append(G)
        return numerator(G, memo)

    monkeypatch.setattr(hilbert, "_numerator", spy)
    gens = [(0,) + e for e in monomials_of_degree(4, 4)]
    hilbert_numerator(5, gens)
    assert len(set(seen)) <= 100
    for G in set(seen):
        assert list(G) == sorted(set(G)), G
        assert not any(g != h and all(x <= y for x, y in zip(g, h))
                       for g in G for h in G), G


def test_fourth_power_of_maximal_ideal_matches_filter():
    # (x1, ..., x4)^4 in P^4: 35 generators, x0 free
    gens = [(0,) + e for e in monomials_of_degree(4, 4)]
    assert len(gens) == 35
    _assert_table_matches_filter(5, gens, smax=8)


def _twisted_cubic_generators():
    return [MultiPoly(4, {(1, 0, 1, 0): 1, (0, 2, 0, 0): -1}),
            MultiPoly(4, {(0, 1, 0, 1): 1, (0, 0, 2, 0): -1}),
            MultiPoly(4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})]


def test_twisted_cubic_hilbert_function():
    gens = _twisted_cubic_generators()
    table = ideal_table(gens)
    for s in range(0, 501):
        assert table.hilbert_function(s) == 3 * s + 1, s
        assert sum(table.sigma_all(s)) == s * (3 * s + 1)
    raw = [dict(g.terms) for g in gens]
    for s in range(0, 9):
        assert table.hilbert_function(s) == oracles.hilbert_codimension(raw, 4, s), s


def test_quadric_surface_closed_form_to_200():
    # x0 x3 - x1 x2: LT(I) = (x1 x2) in this order, H(s) = (s + 1)^2
    table = ideal_table([MultiPoly(4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})])
    assert table.lt_gens == [(0, 1, 1, 0)]
    for s in range(0, 201):
        assert table.hilbert_function(s) == (s + 1) ** 2, s
        assert sum(table.sigma_all(s)) == s * (s + 1) ** 2, s
    for s in range(0, 7):
        want = oracles.standard_monomials_filter(4, table.lt_gens, s)
        assert table.sigma_all(s) == tuple(sum(e[i] for e in want) for i in range(4))
