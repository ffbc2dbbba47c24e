import random
from fractions import Fraction

import pytest

import oracles
from nonarch_lab import heights
from nonarch_lab.arith_core import MultiPoly
from nonarch_lab.errors import CapExceededError, ConfigError
from nonarch_lab.heights import (
    NOT_FOUND,
    PadicConstraint,
    SemialgSpec,
    _grid_points,
    _root_indices,
    enumerate_heights,
    h0,
    hk_poly,
    points_k,
    points_Q,
    points_Z,
)


def test_h0_examples():
    assert h0(Fraction(3, 2)) == 3
    assert h0(0) == 1
    assert h0((Fraction(2, 5), 7)) == 7
    assert h0(Fraction(-9, 4)) == 9


def test_hk_examples():
    assert hk_poly(Fraction(2, 3), 1, 100) == 3
    assert hk_poly(4, 2, 100) == 4
    assert hk_poly(Fraction(1, 2), 3, 10) == 2


def test_hk_not_found_and_cap():
    assert hk_poly(Fraction(10), 1, 5) is NOT_FOUND


def test_hk_matches_bruteforce_oracle():
    for x in (Fraction(2, 3), Fraction(4), Fraction(1, 2), Fraction(-5, 7),
              Fraction(6), Fraction(3, 4)):
        for k in (1, 2):
            want = oracles.min_relation_height(x, k, 8)
            got = hk_poly(x, k, 8)
            if want is None:
                assert got is NOT_FOUND
            else:
                assert got == want


def test_hk_properties():
    for x in (Fraction(2, 3), Fraction(7, 2), Fraction(5), Fraction(-1, 4)):
        base = h0(x)
        assert hk_poly(x, 1, base) == base  # k=1 equals h0 exactly
        prev = None
        for k in (1, 2, 3):
            val = hk_poly(x, k, base)
            assert val <= base
            if prev is not None:
                assert val <= prev
            prev = val


def _fractions(pairs):
    return [Fraction(*v) for v in pairs]


def _pairs(fractions):
    return [(v.numerator, v.denominator) for v in fractions]


def test_enumerate_heights_small():
    assert list(enumerate_heights(1)) == [(0, 1), (1, 1), (-1, 1)]
    assert list(enumerate_heights(2)) == [(0, 1), (1, 1), (-1, 1), (1, 2), (-1, 2),
                                          (2, 1), (-2, 1)]


def test_enumerate_heights_against_oracle():
    # the oracle's rationals, sorted by (h0, |num|, sign, den), in lowest terms
    for T in range(1, 31):
        want = sorted(oracles.rationals_of_height(T), key=lambda q: (
            h0(q), abs(q.numerator), q.numerator < 0, q.denominator))
        assert list(enumerate_heights(T)) == _pairs(want), T


def test_points_circle_example(circle_curve):
    pts = points_Q(circle_curve, 5)
    assert len(pts) == 12
    assert sorted(pts) == oracles.circle_points(5)
    expected = {(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)),
                (Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1))}
    for sx in (1, -1):
        for sy in (1, -1):
            expected.add((Fraction(3 * sx, 5), Fraction(4 * sy, 5)))
            expected.add((Fraction(4 * sx, 5), Fraction(3 * sy, 5)))
    assert set(pts) == expected


def test_points_parabola(parabola_curve):
    pts = points_Z(parabola_curve, 10)
    assert len(pts) == 7
    assert {pt[0] for pt in pts} == {Fraction(v) for v in range(-3, 4)}


def test_points_padic_constraint():
    spec = SemialgSpec(
        2, [MultiPoly(2, {(1, 0): 1, (0, 1): 1})], p=3,
        constraints=[PadicConstraint(MultiPoly(2, {(1, 0): 1}), "ord_ge", 1)])
    pts = points_Z(spec, 3)
    assert set(pts) == {(Fraction(0), Fraction(0)),
                        (Fraction(3), Fraction(-3)),
                        (Fraction(-3), Fraction(3))}


def test_ac_constraint():
    spec = SemialgSpec(
        1, [], p=3,
        constraints=[PadicConstraint(MultiPoly(1, {(1,): 1}), "ac_eq",
                                     depth=1, value=2)])
    pts = points_Z(spec, 9)
    # integers in [-9, 9] whose unit part is 2 mod 3, by hand:
    # 2, 5, 8, -1, -4, -7 (units themselves), 6 = 2*3, -3 = (-1)*3, -9 = (-1)*9
    want = {Fraction(v) for v in (2, 5, 8, -1, -4, -7, 6, -3, -9)}
    assert {pt[0] for pt in pts} == want


def test_ac_eq_by_valuation_matches_the_residue_rule():
    # ac_eq is decided by valuation, with no p^depth formed; it agrees with
    # comparing residues mod p^depth, also for g = 0, negative values and
    # unit parts with a denominator
    rng = random.Random(29)
    x = MultiPoly(1, {(1,): 1})
    seen = set()
    for _ in range(5000):
        p, depth, value = rng.choice([2, 3, 5, 7]), rng.randint(1, 4), rng.randint(-60, 60)
        if rng.random() < 0.1:
            g = Fraction(0)
        else:
            # near value mod p^depth half of the time, so that both verdicts occur
            num = (value + p ** rng.randint(0, depth + 1) * rng.randint(-3, 3)
                   if rng.random() < 0.5 else rng.randint(-60, 60))
            den = rng.choice([1, 1 + p ** depth, rng.randint(1, 30)])
            g = Fraction(num, den) * Fraction(p) ** rng.randint(-2, 2)
        got = PadicConstraint(x, "ac_eq", depth=depth, value=value).holds((g,), p)
        assert got == oracles.ac_eq_residue_rule(g, p, depth, value), (g, p, depth, value)
        seen.add((got, g == 0))
    assert seen == {(True, True), (False, True), (True, False), (False, False)}


def test_points_subset_and_monotone(parabola_curve):
    zpts = points_Z(parabola_curve, 8)
    qpts = points_Q(parabola_curve, 8)
    assert set(zpts) <= set(qpts)
    assert set(zpts) == {pt for pt in qpts
                         if all(c.denominator == 1 for c in pt)}
    assert set(points_Z(parabola_curve, 5)) <= set(zpts)
    assert set(points_Q(parabola_curve, 5)) <= set(qpts)


def test_points_k_equals_points_Q(circle_curve):
    assert points_k(circle_curve, 2, 3) == points_Q(circle_curve, 3)


def test_caps_and_validation(circle_curve):
    with pytest.raises(CapExceededError):
        points_Q(circle_curve, 5, cap=10)
    with pytest.raises(ConfigError):
        points_Q(SemialgSpec(5, []), 1)
    with pytest.raises(ConfigError):
        hk_poly(Fraction(1), 0, 5)
    # the p-adic block is checked when the spec is built
    x = MultiPoly(1, {(1,): 1})
    ord_x = PadicConstraint(x, "ord_ge", 1)
    for p in (-3, 0, 1, 4):
        with pytest.raises(ConfigError, match=f"p = {p} is not prime"):
            SemialgSpec(1, [], p=p, constraints=[ord_x])
    for depth in (0, -1):
        with pytest.raises(ConfigError, match="depth >= 1"):
            PadicConstraint(x, "ac_eq", depth=depth)
    with pytest.raises(ConfigError, match="unknown constraint kind"):
        PadicConstraint(x, "ord_gt", 1)
    # refused even when no candidate point ever reaches the constraint
    with pytest.raises(ConfigError, match="designated prime"):
        SemialgSpec(1, [x - 100], constraints=[ord_x])


def test_spec_lists_left_out_start_empty_and_unshared():
    one, two = SemialgSpec(2), SemialgSpec(2)
    assert (one.equations, one.inequations, one.p, one.constraints) == ([], [], None, [])
    assert one.equations is not two.equations
    assert one.inequations is not two.inequations
    assert one.constraints is not two.constraints


def _random_coeff(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 1, 2, 3]))


def _random_poly(rng, n, with_last=True, max_deg=2, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = [rng.randint(0, max_deg) for _ in range(n)]
        if not with_last:
            exp[-1] = 0
        terms[tuple(exp)] = _random_coeff(rng)
    return MultiPoly(n, terms)


def _linear(n, i, a, b):
    """b * x_i - a."""
    terms = {tuple(int(j == i) for j in range(n)): b}
    terms[(0,) * n] = terms.get((0,) * n, 0) - a
    return MultiPoly(n, terms)


def _random_equation(rng, n, values):
    kind = rng.choice(["graph", "factors", "prefix-only", "random", "quadric"])
    last = n - 1
    if kind == "graph":  # s * y^e = g(prefix)
        e = rng.choice([1, 1, 2])
        lead_exp = tuple(e * (j == last) for j in range(n))
        lead = MultiPoly(n, {lead_exp: rng.choice([1, 2, 3, -2])})
        return lead - _random_poly(rng, n, with_last=False)
    if kind == "factors":  # roots in values; fibres at x_0 = c vanish
        eq = MultiPoly.constant(n, _random_coeff(rng))
        for _ in range(rng.randint(1, 2)):
            v = rng.choice(values)
            eq = eq * _linear(n, last, v.numerator, v.denominator)
        if n > 1 and rng.random() < 0.7:
            c = rng.choice(values)
            eq = eq * _linear(n, 0, c.numerator, c.denominator)
        return eq
    if kind == "prefix-only":
        if n == 1:
            return MultiPoly.constant(1, rng.choice([0, 1]))
        c = rng.choice(values)
        return _linear(n, rng.randrange(last), c.numerator, c.denominator)
    if kind == "quadric":
        terms = {tuple(2 * (j == i) for j in range(n)): rng.choice([1, 1, 2])
                 for i in range(n)}
        terms[(0,) * n] = -rng.choice([1, 2, 5, Fraction(1, 4), Fraction(25, 4)])
        return MultiPoly(n, terms)
    return _random_poly(rng, n)


def _random_spec(rng, n, values):
    eqs = [_random_equation(rng, n, values) for _ in range(rng.choice([0, 1, 1, 2]))]
    ineqs = [_random_poly(rng, n, max_terms=2) for _ in range(rng.choice([0, 0, 1]))]
    p, constraints = None, []
    if rng.random() < 0.4:
        p = rng.choice([2, 3])
        for _ in range(rng.randint(1, 2)):
            poly = _random_poly(rng, n, max_deg=1, max_terms=2)
            if rng.random() < 0.5:
                constraints.append(PadicConstraint(poly, "ord_ge", rng.randint(-1, 2)))
            else:
                depth = rng.randint(1, 2)
                constraints.append(PadicConstraint(poly, "ac_eq", depth=depth,
                                                   value=rng.randrange(p ** depth)))
    return SemialgSpec(n, eqs, ineqs, p, constraints)


# (nvars, mode, largest T); the oracle grid stays below ~3,500 points
PARITY_SHAPES = [(1, "Z", 8), (1, "Q", 8), (2, "Z", 8), (2, "Q", 6),
                 (3, "Z", 4), (3, "Q", 3)]


@pytest.mark.parametrize("n,mode,T_max", PARITY_SHAPES)
def test_fibred_points_match_grid_oracle(n, mode, T_max):
    rng = random.Random(1000 * n + ord(mode))
    nonempty = 0
    for _ in range(25):
        T = rng.randint(1, T_max)
        if mode == "Z":
            values = [Fraction(v) for v in range(-T, T + 1)]
            enumerate_points = points_Z
        else:
            values = _fractions(enumerate_heights(T))
            enumerate_points = points_Q
        spec = _random_spec(rng, n, values)
        want = oracles.grid_points(spec, values)
        assert enumerate_points(spec, T) == want, spec
        nonempty += bool(want)
        size = len(values) ** n
        assert enumerate_points(spec, T, cap=size) == want
        with pytest.raises(CapExceededError):
            enumerate_points(spec, T, cap=size - 1)
    assert nonempty >= 5


def test_grid_cap_is_decided_before_the_grid_is_built(parabola_curve, monkeypatch):
    # the cap is read off the size of the grid, so a grid over it is
    # refused before its values are built or reach _grid_points
    grid_points = heights._grid_points

    def checked(X, values, cap):
        if len(values) ** X.nvars > cap:
            pytest.fail(f"{len(values)} values built for a grid over cap {cap}")
        return grid_points(X, values, cap)

    monkeypatch.setattr(heights, "_grid_points", checked)
    with pytest.raises(CapExceededError, match=r"^400040001 grid candidates width\^n exceed "
                                               r"cap 10000000; --cap 400040001 admits them$"):
        points_Z(parabola_curve, 10**4, cap=10**7)
    # the integer grid of T = 3 has 7^2 candidates: a cap at 49 decides
    assert points_Z(parabola_curve, 3, cap=49) == oracles.grid_points(
        parabola_curve, [Fraction(v) for v in range(-3, 4)])
    with pytest.raises(CapExceededError, match=r"^49 grid candidates width\^n exceed cap 48; "
                                               r"--cap 49 admits them$"):
        points_Z(parabola_curve, 3, cap=48)
    # (2T+1)^2 = 160801 fits the cap, so the count of heights decides; it
    # stops below T, so the grid holds at least the count reached, and
    # (2T^2 - 2T + 3)^2 = 79603^2 admits it
    for enumerate_points in (points_Q, lambda X, T, cap: points_k(X, 2, T, cap)):
        with pytest.raises(CapExceededError, match=r"^at least \d+ grid candidates width\^n "
                                                   r"exceed cap 10000000; --cap 6336637609 "
                                                   r"admits them$"):
            enumerate_points(parabola_curve, 200, cap=10**7)
    # in modes Q and k the 2T+1 integers bound the grid from below only
    with pytest.raises(CapExceededError, match=r"^at least 4004001 grid candidates width\^n "
                                               r"exceed cap 1000000; --cap 3992015988009 "
                                               r"admits them$"):
        points_Q(parabola_curve, 1000, cap=10**6)
    # the grid counts 4 * sum_{h<=T} phi(h) - 1 rationals, to the last one
    x = MultiPoly(1, {(1,): 1})
    for T in (1, 2, 3, 10, 57):
        size = len(list(enumerate_heights(T)))
        spec = SemialgSpec(1, [x * x - 4])
        assert points_Q(spec, T, cap=size) == oracles.grid_points(
            spec, _fractions(enumerate_heights(T)))
        with pytest.raises(CapExceededError, match=rf"^{size} grid candidates width\^n exceed "
                                                   rf"cap {size - 1}; --cap {size} admits them$"):
            points_Q(spec, T, cap=size - 1)


def test_q_grid_cap_error_names_a_cap_that_admits_the_run(circle_curve):
    # the circle at T = 100 passes the default cap while the heights are
    # counted; the cap the error names gets the run past the grid check
    with pytest.raises(CapExceededError) as err:
        points_Q(circle_curve, 100, cap=10**7)
    message = str(err.value)
    assert message == ("at least 10387729 grid candidates width^n exceed cap 10000000; "
                       "--cap 392158809 admits them"), message
    assert len(points_Q(circle_curve, 100, cap=392158809)) == 132


def test_grid_builds_fractions_only_for_offered_points(parabola_curve, monkeypatch):
    # the grid runs on integer pairs: a Fraction is built for the prefix of
    # a fibre with candidates and for each candidate, never per grid value
    built = 0

    def counted(*args):
        nonlocal built
        built += 1
        return Fraction(*args)

    monkeypatch.setattr(heights, "Fraction", counted)
    T = 2000
    assert len(points_Z(parabola_curve, T, cap=10**8)) == 89  # |x| <= 44
    assert built < 2 * T + 1, built


def test_fibred_points_vanishing_fibres():
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    values = [Fraction(v) for v in range(-4, 5)]
    # x*y = 0: the fibre x = 0 vanishes identically, every other one has y = 0
    spec = SemialgSpec(2, [x * y])
    assert points_Z(spec, 4) == oracles.grid_points(spec, values)
    assert len(points_Z(spec, 4)) == 2 * 9 - 1
    # the second equation decides where the first vanishes
    spec = SemialgSpec(2, [(x - 1) * (2 * y - 1), x * x - 1, x + y * y - 2])
    assert points_Q(spec, 3) == oracles.grid_points(spec, _fractions(enumerate_heights(3)))
    assert points_Q(spec, 3) == [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1))]
    # no equations: every fibre is scanned
    spec = SemialgSpec(2, [], [x - y])
    assert points_Z(spec, 4) == oracles.grid_points(spec, values)


def test_solved_fibres_check_only_later_conditions():
    # systems of 2-3 equations, an inequation and p-adic constraints: a root
    # of the solving equation must still meet every later equation, the
    # inequations and the constraints
    rng = random.Random(88)
    nonempty = rejected = 0
    for case in range(40):
        n = rng.choice([2, 2, 3])
        T = rng.randint(2, 5 if n == 2 else 3)
        values = ([Fraction(v) for v in range(-T, T + 1)] if case % 2
                  else _fractions(enumerate_heights(T)))
        first = _random_equation(rng, n, values)
        eqs = [first]
        for _ in range(rng.randint(1, 2)):
            eqs.append(rng.choice([first * _random_poly(rng, n, max_terms=2),
                                   first + _random_equation(rng, n, values),
                                   _random_equation(rng, n, values)]))
        rng.shuffle(eqs)
        ineqs = [_random_poly(rng, n, max_terms=2)]
        p = rng.choice([2, 3])
        constraints = [PadicConstraint(_random_poly(rng, n, max_deg=1, max_terms=2),
                                       "ord_ge", rng.randint(-1, 1))]
        spec = SemialgSpec(n, eqs, ineqs, p, constraints)
        want = oracles.grid_points(spec, values)
        assert _grid_points(spec, _pairs(values), 10**6) == want, spec
        nonempty += bool(want)
        loose = SemialgSpec(n, eqs[:1], [], p, [])
        rejected += len(oracles.grid_points(loose, values)) > len(want)
    assert nonempty >= 8 and rejected >= 20, (nonempty, rejected)


def _roots_by_evaluation(coeffs, values):
    out = []
    for i, v in enumerate(values):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * v + c
        if acc == 0:
            out.append(i)
    return out


def test_closed_form_roots_match_evaluation():
    # linear and quadratic fibres times y^k, against evaluating the
    # polynomial at every indexed value; most are built from rational
    # factors so that roots land in the grid, the rest are random
    for values in (_fractions(enumerate_heights(6)), [Fraction(v) for v in range(-9, 10)]):
        index = {(v.numerator, v.denominator): i for i, v in enumerate(values)}
        max_num = max(abs(v.numerator) for v in values)
        max_den = max(v.denominator for v in values)
        rng = random.Random(len(values))

        def factor():
            a, b = rng.randint(-9, 9), rng.randint(1, 7)
            return [-a, b] if rng.random() < 0.5 else [a, -b]

        hit = 0
        for case in range(1000):
            degree, k = 1 + case % 2, rng.choice((0, 0, 1, 2))
            if case % 3 == 2:
                cof = [rng.randint(-30, 30) for _ in range(degree + 1)]
                cof[-1] = cof[-1] or -1
                cof[0] = cof[0] or 1
            else:
                cof = factor()
                if degree == 2:
                    lin = factor() if case % 7 else cof
                    cof = [cof[0] * lin[0], cof[0] * lin[1] + cof[1] * lin[0],
                           cof[1] * lin[1]]
                scale = rng.choice((1, -1, 2, -3))
                cof = [scale * c for c in cof]
                if cof[0] == 0:  # a factor with root 0 belongs to y^k
                    continue
            coeffs = [0] * k + cof
            want = _roots_by_evaluation(coeffs, values)
            assert _root_indices(coeffs, index, max_num, max_den) == want, coeffs
            hit += bool(want)
        assert hit > 300
    values = _fractions(enumerate_heights(4))
    index = {(v.numerator, v.denominator): i for i, v in enumerate(values)}
    cases = [
        [1, -2, 1],      # (y - 1)^2, double root
        [0, 0, 4, 4, 1],  # y^2 (y + 2)^2
        [1, 0, 1],       # y^2 + 1, negative discriminant
        [-2, 0, 1],      # y^2 - 2, non-square discriminant
        [3, -1, -2],     # -(2y + 3)(y - 1), negative leading coefficient
        [0, 2, -3],      # y (2 - 3y), root 0 and a proper fraction
        [0, 0, 0, 5],    # 5 y^3: only the root 0
        [7],             # a nonzero constant: no root
        [0, -6, 1, 1],   # y (y + 3)(y - 2), a quadratic cofactor
    ]
    for coeffs in cases:
        assert _root_indices(coeffs, index, 4, 4) == _roots_by_evaluation(coeffs, values)
    # the divisor search for degree >= 3: y^3 - y, (2y - 1)^3
    for coeffs in ([0, -1, 0, 1], [-1, 6, -12, 8], [1, 0, 0, 1]):
        assert _root_indices(coeffs, index, 4, 4) == _roots_by_evaluation(coeffs, values)
