import random
from fractions import Fraction
from math import comb, gcd

import pytest

import oracles
from nonarch_lab.arith_core import Ball, MultiPoly
from nonarch_lab.combinatorics import DetSetup, e_of
from nonarch_lab.detmethod import (
    auxiliary_polynomial,
    certify_components,
    cover_points,
    det_bound_check,
    exact_det,
    rational_rank,
)
from nonarch_lab.errors import BoundViolation, ConfigError, FullRankError
from nonarch_lab.heights import SemialgSpec
from nonarch_lab.hilbert import delta_exponents
from nonarch_lab.taylor import PolyMap, check_Tr

PSI_GRAPH = PolyMap(1, 2, [MultiPoly(1, {(1,): 1}), MultiPoly(1, {(2,): 1})])
PARABOLA = SemialgSpec(2, [MultiPoly(2, {(0, 1): 1, (2, 0): -1})])


def test_rank_agrees_with_rational_rank():
    rng = random.Random(41)
    for _ in range(200):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2]))
                 for _ in range(nc)] for _ in range(nr)]
        # plant rank deficiency sometimes
        if nr >= 2 and rng.random() < 0.4:
            rows[-1] = [2 * x for x in rows[0]]
        expected = oracles.dense_rank(rows)
        assert rational_rank(rows) == expected


def test_exact_det_against_permutation_expansion():
    rng = random.Random(42)
    for _ in range(50):
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-6, 6)) for _ in range(n)] for _ in range(n)]
        assert exact_det(rows) == oracles.permutation_det(rows)


def test_det_bound_mu2():
    ball = Ball(3, (0,), 1)
    psi = PolyMap(1, 1, [MultiPoly(1, {(1,): 1})], domain=ball)
    rep = det_bound_check(psi, [(0,), (3,)], ball, 1)
    assert rep.setup.e == 1
    assert rep.ok and rep.ord_delta >= ball.alpha


def test_det_bound_zero_determinant_serializes():
    # two equal points give a zero determinant, of valuation infinity
    ball = Ball(3, (0,), 1)
    psi = PolyMap(1, 1, [MultiPoly(1, {(1,): 1})], domain=ball)
    rep = det_bound_check(psi, [(3,), (3,)], ball, 1)
    assert rep.delta == 0 and rep.ok
    assert rep.to_json()["ord_delta"] == "inf"


def test_det_bound_vandermonde():
    ball = Ball(3, (0,), 1)
    psi = PolyMap(1, 1, [MultiPoly(1, {(1,): 1})], domain=ball)
    rep = det_bound_check(psi, [(0,), (3,), (6,)], ball, 2)
    assert rep.setup.r == 3 and rep.setup.e == 3
    assert rep.ok
    # Vandermonde factorization: three factors of ord >= alpha
    assert rep.ord_delta >= 3 * ball.alpha


def test_det_bound_randomized_trials():
    rng = random.Random(43)
    p = 3
    trials = 0
    while trials < 200:
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
        pts = [(center + p ** alpha * rng.randint(0, 26),) for _ in range(setup.mu)]
        rep = det_bound_check(psi, pts, ball, d, certificates=certs)
        assert rep.ok, (n, d, alpha, pts, rep.to_json())
        assert rep.setup.e == e_of(1, n, d)
        trials += 1


def test_auxiliary_polynomial_parabola_points():
    pts = [(0, 0), (1, 1), (2, 4), (-1, 1)]
    aux = auxiliary_polynomial(pts, 2)
    assert aux.poly.degree() <= 2
    assert aux.beta_coeff != 0
    for pt in pts:
        assert aux.poly.eval([Fraction(c) for c in pt]) == 0


def test_auxiliary_polynomial_single_point():
    aux = auxiliary_polynomial([(1, 2)], 1)
    assert aux.poly.degree() <= 1
    assert aux.poly.eval((Fraction(1), Fraction(2))) == 0


def test_auxiliary_polynomial_full_rank():
    # D_2(1) = 3 points in general position saturate degree-1 monomials
    with pytest.raises(FullRankError):
        auxiliary_polynomial([(0, 0), (1, 0), (0, 1)], 1)


def test_auxiliary_polynomial_random_curves():
    rng = random.Random(44)
    for _ in range(40):
        a, b, c = (rng.randint(-4, 4) for _ in range(3))
        xs = rng.sample(range(-8, 9), rng.randint(2, 6))
        pts = [(x, a * x * x + b * x + c) for x in xs]
        aux = auxiliary_polynomial(pts, 2)
        for pt in pts:
            assert aux.poly.eval([Fraction(v) for v in pt]) == 0
        assert aux.beta_coeff != 0


def test_cover_parabola_T10():
    cover = cover_points(PARABOLA, PSI_GRAPH, 10, 2, 3)
    assert cover.total_points == 7
    assert cover.alpha == 2
    assert cover.size <= 3 ** cover.alpha
    covered = sorted(pt for rec in cover.records for pt in rec.points)
    grid = [Fraction(v) for v in range(-10, 11)]
    assert covered == sorted(oracles.grid_points(PARABOLA, grid))
    for rec in cover.records:
        assert rec.aux.poly.degree() <= 2
        for pt in rec.points:
            assert rec.aux.poly.eval([Fraction(c) for c in pt]) == 0


def test_cover_two_heights():
    c10 = cover_points(PARABOLA, PSI_GRAPH, 10, 2, 3)
    c100 = cover_points(PARABOLA, PSI_GRAPH, 100, 2, 3)
    assert c10.size <= 3 ** c10.alpha
    assert c100.size <= 3 ** c100.alpha
    assert c100.total_points == 21


def test_cover_empty():
    empty = SemialgSpec(2, [MultiPoly(2, {(2, 0): 1, (0, 2): 1, (0, 0): 1})])
    cover = cover_points(empty, PSI_GRAPH, 10, 2, 3)
    assert cover.size == 0 and cover.total_points == 0


def test_cover_not_covered_point():
    # psi = (3x, 9x^2) only reaches points with x = 0 mod 3
    psi = PolyMap(1, 2, [MultiPoly(1, {(1,): 3}), MultiPoly(1, {(2,): 9})])
    with pytest.raises(BoundViolation):
        cover_points(PARABOLA, psi, 10, 2, 3)


def test_monomial_matrix_rows_match_delta():
    from nonarch_lab.detmethod import _monomial_matrix

    ball = Ball(3, (0,), 0)
    psi = PolyMap(1, 2, [MultiPoly(1, {(1,): 1}), MultiPoly(1, {(2,): 1})],
                  domain=ball)
    rows = _monomial_matrix([((i, i * i), 1) for i in range(6)], psi.n, 2)
    assert len(rows) == len(delta_exponents(2, 2)) == 6
    assert all(len(row) == 6 for row in rows)
    with pytest.raises(ConfigError, match="need mu=6 points, got 5"):
        det_bound_check(psi, [(i,) for i in range(5)], ball, 2)
    with pytest.raises(ConfigError, match="need m, n, d >= 1"):
        det_bound_check(psi, [(0,)], ball, 0)


# ---------------------------------------------------------------------------
# fraction-free elimination against Fraction oracles
# ---------------------------------------------------------------------------

def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7, 11]))


def test_rational_rank_matches_dense_rank():
    rng = random.Random(45)
    skipped = 0
    for _ in range(450):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[_rational(rng) for _ in range(nc)] for _ in range(nr)]
        # all-zero columns: a column with no pivot that Bareiss must skip
        for c in rng.sample(range(nc), rng.randint(0, nc // 2)):
            for row in rows:
                row[c] = 0
        # planted row dependencies
        if nr >= 3 and rng.random() < 0.5:
            a, b = _rational(rng), _rational(rng)
            rows[rng.randrange(2, nr)] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        elif nr >= 2 and rng.random() < 0.3:
            rows[-1] = [Fraction(3, 7) * x for x in rows[0]]
        rank = oracles.dense_rank(rows)
        assert rational_rank(rows) == rank, rows
        first_zero = next((c for c in range(nc) if not any(r[c] for r in rows)), None)
        if first_zero is not None and first_zero < nc - 1 and 1 < rank < nr:
            skipped += 1
    assert skipped >= 40  # the column skip ran mid-elimination often enough


def test_exact_det_fraction_entries():
    rng = random.Random(46)
    for _ in range(80):
        n = rng.randint(1, 6)
        rows = [[_rational(rng) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.4:
            rows[0][0] = 0  # forces a row swap
        if n >= 2 and rng.random() < 0.25:
            rows[-1] = [2 * x for x in rows[0]]
        assert exact_det(rows) == oracles.permutation_det(rows)


def test_auxiliary_polynomial_matches_fraction_oracle():
    rng = random.Random(47)
    found = fractional = 0
    parities = set()
    for _ in range(300):
        n, d, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 12)
        if rng.random() < 0.5:
            # points on a rational curve, so that a polynomial often exists
            xs = {_rational(rng) for _ in range(k)}
            pts = [(x,) + tuple(x ** (i + 2) + i for i in range(n - 1)) for x in xs]
        else:
            pts = [tuple(_rational(rng) for _ in range(n)) for _ in range(k)]
        try:
            want = oracles.auxiliary_polynomial_fraction(pts, d)
        except Exception as err:  # noqa: BLE001 - the type is compared
            with pytest.raises(type(err)):
                auxiliary_polynomial(pts, d)
            continue
        aux = auxiliary_polynomial(pts, d)
        assert (aux.poly.terms, aux.beta, aux.beta_coeff, aux.rank) == want, pts
        found += 1
        # every row before beta is in the support, so beta's position in
        # the sorted support rows is its grevlex index
        parities.add(delta_exponents(n, d).index(aux.beta) % 2)
        fractional += any(Fraction(c).denominator != 1 for pt in pts for c in pt)
    assert found >= 100, found
    # the sign (-1)^k of c_beta is exercised both ways, and the column
    # scales D_j^d differ from 1
    assert parities == {0, 1}
    assert fractional >= 50, fractional


def _rational_monomial_rows(psi, points, d):
    """The monomial matrix psi(P_j)^a in Fractions, rows by exponent."""
    values = [psi.eval(pt) for pt in points]
    rows = []
    for exp in delta_exponents(psi.n, d):
        row = []
        for val in values:
            t = Fraction(1)
            for v, e in zip(val, exp):
                t *= v ** e
            row.append(t)
        rows.append(row)
    return rows


def test_monomial_matrix_determinant_rational():
    # det_bound_check's integer matrix over prod D_j^d is the rational
    # determinant; coefficient denominators prime to p keep T_r on the ball
    rng = random.Random(48)
    nonzero = 0
    for _ in range(150):
        p, n, d = rng.choice([2, 3, 5]), rng.choice([1, 2]), rng.choice([1, 2])
        alpha = rng.randint(0, 2)
        ball = Ball(p, (0,), alpha)
        dens = [den for den in (1, 1, 2, 3, 7, 11) if den % p]
        psi = PolyMap(1, n, [MultiPoly(1, {(j,): Fraction(rng.randint(-9, 9), rng.choice(dens))
                                           for j in range(3)})
                             for _ in range(n)], domain=ball)
        setup = DetSetup.for_dims(1, n, d)
        pts = [(Fraction(p ** alpha * rng.randint(-20, 20), rng.choice([1, 7, 11, 13])),)
               for _ in range(setup.mu)]
        assert all(ball.contains(pt) for pt in pts)
        want = oracles.fraction_det(_rational_monomial_rows(psi, pts, d))
        assert det_bound_check(psi, pts, ball, d).delta == want
        nonzero += want != 0
    assert nonzero >= 100


# ---------------------------------------------------------------------------
# integer fast paths against direct oracles
# ---------------------------------------------------------------------------

def test_monomial_matrix_matches_product_oracle():
    # one product per entry from the cached plan, and D^(d - |e|) only where
    # D != 1, equal prod a_i^e_i * D^(d - |e|) taken directly
    from nonarch_lab.detmethod import _monomial_matrix

    rng = random.Random(49)
    dens = set()
    for n in range(1, 4):
        for d in range(1, 5):
            exps = delta_exponents(n, d)
            for _ in range(3):
                cleared = [(tuple(rng.randint(-7, 7) for _ in range(n)),
                            rng.choice([1, 1, 2, 3, 10]))
                           for _ in range(rng.randint(1, 6))]
                want = []
                for exp in exps:
                    row = []
                    for a, den in cleared:
                        t = den ** (d - sum(exp))
                        for x, e in zip(a, exp):
                            t *= x ** e
                        row.append(t)
                    want.append(row)
                assert _monomial_matrix(cleared, n, d) == want, (n, d, cleared)
                dens.update(den for _, den in cleared)
    assert 1 in dens and len(dens) > 1


def test_eval_cleared_matches_psi_eval(monkeypatch):
    # int, Fraction and mixed points give psi(point) as reduced numerators
    # over one denominator, equal to the Fraction oracle's values; a point
    # of plain ints is never cleared
    from nonarch_lab import arith_core

    cleared_calls = []
    real = arith_core.cleared

    def counted(vec):
        cleared_calls.append(tuple(vec))
        return real(vec)

    monkeypatch.setattr(arith_core, "cleared", counted)
    rng = random.Random(50)
    kinds = set()
    for _ in range(200):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        comps = [MultiPoly(m, {tuple(rng.randint(0, 3) for _ in range(m)): _rational(rng)
                               for _ in range(rng.randint(1, 4))})
                 for _ in range(n)]
        kind = rng.choice(["int", "fraction", "mixed"])
        point = tuple(rng.randint(-9, 9) if kind == "int" or (kind == "mixed" and i % 2)
                      else _rational(rng) for i in range(m))
        cleared_calls.clear()
        nums, den = arith_core.eval_cleared(arith_core.integer_form(comps), point, m)
        assert tuple(Fraction(x, den) for x in nums) == tuple(
            oracles.fraction_eval(c.terms, point) for c in comps), (comps, point)
        assert den >= 1 and gcd(den, *nums) == 1
        if kind == "int":
            assert cleared_calls == []
        kinds.add(kind)
    assert kinds == {"int", "fraction", "mixed"}


def test_rational_rank_int_fraction_and_bool_rows():
    # all-int rows go to elimination uncleared, rows with a Fraction or a
    # bool are cleared first; the rank is the dense rank either way, and the
    # caller's rows are left as they were
    rng = random.Random(51)
    seen = set()
    for _ in range(300):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        kind = rng.choice(["int", "fraction", "bool"])
        rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        if nr >= 2 and rng.random() < 0.5:
            rows[-1] = [3 * x - y for x, y in zip(rows[0], rows[1])]
        i, j = rng.randrange(nr), rng.randrange(nc)
        if kind == "fraction":
            rows[i][j] = _rational(rng)
        elif kind == "bool":
            rows[i][j] = rng.choice([True, False])
        before = [row[:] for row in rows]
        assert rational_rank(rows) == oracles.dense_rank(rows), rows
        assert rows == before and all(type(a) is type(b) for r0, r1 in zip(rows, before)
                                      for a, b in zip(r0, r1))
        seen.add(kind)
    assert seen == {"int", "fraction", "bool"}


# ---------------------------------------------------------------------------
# dimension mismatches are configuration errors
# ---------------------------------------------------------------------------

def test_auxiliary_polynomial_point_arity():
    with pytest.raises(ConfigError):
        auxiliary_polynomial([(1, 2), (2, 3), (3,)], 2)


def test_rational_rank_ragged_rows():
    with pytest.raises(ConfigError):
        rational_rank([[1, 2], [3]])
    with pytest.raises(ConfigError):
        rational_rank([[1], [2, 3]])


def test_cover_component_count_mismatch():
    psi3 = PolyMap(1, 3, [MultiPoly(1, {(1,): 1}), MultiPoly(1, {(2,): 1}),
                          MultiPoly(1, {(3,): 1})])
    with pytest.raises(ConfigError):
        cover_points(PARABOLA, psi3, 10, 2, 3)


# ---------------------------------------------------------------------------
# det_bound_check: its hypotheses, and the dimension count
# ---------------------------------------------------------------------------

X_ON_3Z3 = Ball(3, (0,), 1)


def test_det_bound_ball_of_another_dimension():
    # psi = x + 5y has m = 2 and the ball one coordinate: evaluating psi at
    # its points would drop y
    psi = PolyMap(2, 1, [MultiPoly(2, {(1, 0): 1, (0, 1): 5})])
    with pytest.raises(ConfigError, match="dimension 1 .* 2 variables"):
        det_bound_check(psi, [(0,), (3,)], X_ON_3Z3, 1)


def test_det_bound_names_a_point_outside_the_ball_in_str_form():
    # 1/2 is 2 mod 3, outside 3Z_3; its coordinates print as the reports
    # print them, not as Fraction reprs
    x = PolyMap(1, 1, [MultiPoly(1, {(1,): 1})])
    with pytest.raises(ConfigError, match=r"^point \(1/2\) outside the ball$"):
        det_bound_check(x, [(0,), (Fraction(1, 2),)], X_ON_3Z3, 1)


def test_det_bound_needs_one_certificate_per_component():
    # x^2/3 fails T_2 on 3Z_3; an empty certificate list must not hide that
    x2_over_3 = PolyMap(1, 1, [MultiPoly(1, {(2,): Fraction(1, 3)})])
    pts = [(0,), (3,)]
    assert not certify_components(x2_over_3, 2, X_ON_3Z3)[0].holds
    with pytest.raises(ConfigError, match="lacks a holding"):
        det_bound_check(x2_over_3, pts, X_ON_3Z3, 1)
    with pytest.raises(ConfigError, match="one T_r certificate per component: 1, got 0"):
        det_bound_check(x2_over_3, pts, X_ON_3Z3, 1, certificates=[])
    x = PolyMap(1, 1, [MultiPoly(1, {(1,): 1})])
    certs = certify_components(x, 2, X_ON_3Z3)
    with pytest.raises(ConfigError, match="1, got 2"):
        det_bound_check(x, pts, X_ON_3Z3, 1, certificates=certs + certs)


def test_det_bound_certificates_of_this_component_and_ball():
    psi = PolyMap(1, 2, [MultiPoly(1, {(1,): 1}), MultiPoly(1, {(2,): 1})])
    pts = [(0,), (3,), (6,)]
    certs = certify_components(psi, 3, X_ON_3Z3)
    assert det_bound_check(psi, pts, X_ON_3Z3, 1, certificates=certs).ok
    with pytest.raises(ConfigError, match="not for the component"):
        det_bound_check(psi, pts, X_ON_3Z3, 1, certificates=certs[::-1])
    # a smaller ball, another prime, another centre
    for other in (Ball(3, (0,), 2), Ball(5, (0,), 1), Ball(3, (1,), 1)):
        with pytest.raises(ConfigError, match="certificate on"):
            det_bound_check(psi, pts, X_ON_3Z3, 1,
                            certificates=certify_components(psi, 3, other))
    # the same ball given by another centre is this ball
    same = certify_components(psi, 3, Ball(3, (Fraction(9, 2),), 1))
    assert det_bound_check(psi, pts, X_ON_3Z3, 1, certificates=same).ok


def test_certify_components_reports_the_K_of_check_Tr():
    # each certificate is check_Tr's at the K it works out, for integral
    # and non-integral components alike
    psi = PolyMap(1, 3, [MultiPoly(1, {(1,): 1}), MultiPoly(1, {(2,): 1}),
                         MultiPoly(1, {(2,): Fraction(1, 9), (1,): 1})])
    for ball, r in ((X_ON_3Z3, 3), (X_ON_3Z3, 2), (Ball(3, (1,), 0), 1)):
        certs = certify_components(psi, r, ball)
        want = [check_Tr(PolyMap(1, 1, [comp]), r, ball) for comp in psi.components]
        assert [c.K for c in certs] == [c.K for c in want]
        assert [c.verdict for c in certs] == [c.verdict for c in want]
    assert [c.K for c in certify_components(psi, 3, X_ON_3Z3)] == [11] * 3


def _family_component(rng, m, deg, shape):
    """A component of degree <= deg in m variables with coefficients in
    Z_(3), some rational with a denominator prime to 3: "dense" draws every
    coefficient, zero about half the time, the leading ones included."""
    if shape == "zero":
        return MultiPoly(m, {})
    if shape == "constant":
        return MultiPoly.constant(m, rng.randint(-4, 4))
    return MultiPoly(m, {e: Fraction(rng.choice([0, rng.randint(-5, 5)]),
                                     rng.choice([1, 1, 1, 2, 5, 7]))
                         for e in delta_exponents(m, deg)})


def _family_point(rng, center, alpha):
    """A point of the ball, with integer or rational coordinates."""
    step = 3 ** alpha
    if rng.random() < 0.5:
        return tuple(c + step * rng.randint(-9, 9) for c in center)
    return tuple(c + step * Fraction(rng.randint(-9, 9), rng.choice([1, 2, 5, 7]))
                 for c in center)


# (m, psi components as exponent dicts in m variables, d, points, delta != 0):
# mu = C(d*D + m, m) exactly, where the count must not decide, and mu one
# above it, where it must
COUNT_EDGES = [
    # n = 2, d = 1, D = 2, m = 1: mu = 3 = C(3, 1); the first component has
    # degree 1, the maximum is 2
    (1, [{(1,): 1}, {(2,): 1}], 1, [(0,), (3,), (6,)], True),
    # n = 2, d = 1, D = 1, m = 1: mu = 3 = C(2, 1) + 1
    (1, [{(1,): 1}, {(1,): 2, (0,): 1}], 1, [(0,), (3,), (6,)], False),
    # n = 2, d = 1, D = 1, m = 2: mu = 3 = C(3, 2)
    (2, [{(1, 0): 1}, {(0, 1): 1}], 1, [(0, 0), (3, 0), (0, 3)], True),
    # n = 3, d = 1, D = 1, m = 2: mu = 4 = C(3, 2) + 1
    (2, [{(1, 0): 1}, {(0, 1): 1}, {(1, 0): 1, (0, 1): 1}], 1,
     [(0, 0), (3, 0), (0, 3), (3, 3)], False),
    # n = 5, d = 1, D = 2, m = 2: mu = 6 = C(4, 2); the first component has
    # degree 1
    (2, [{(1, 0): 1}, {(0, 1): 1}, {(2, 0): 1}, {(1, 1): 1}, {(0, 2): 1}], 1,
     [(0, 0), (3, 0), (0, 3), (6, 0), (3, 3), (0, 6)], True),
    # n = 2, d = 2, D = 2, m = 1: mu = 6 = C(5, 1) + 1, though C(6, 2) > 6
    (1, [{(1,): 1}, {(2,): 1}], 2, [(3 * i,) for i in range(6)], False),
    # n = 2, d = 2, D = 3, m = 1: mu = 6 < C(7, 1), nonzero only because
    # the second component reaches degree 3
    (1, [{(1,): 1}, {(3,): 1}], 2, [(3 * i,) for i in range(6)], True),
]


def _spy_build(monkeypatch):
    """Record the arguments of each _monomial_matrix call."""
    from nonarch_lab import detmethod

    built = []
    real = detmethod._monomial_matrix
    monkeypatch.setattr(detmethod, "_monomial_matrix",
                        lambda *a: built.append(a) or real(*a))
    return built


@pytest.mark.parametrize("m, comps, d, points, nonzero", COUNT_EDGES)
def test_det_bound_dimension_count_edges(m, comps, d, points, nonzero, monkeypatch):
    psi = PolyMap(m, len(comps), [MultiPoly(m, c) for c in comps])
    ball = Ball(3, (0,) * m, 1)
    want = oracles.permutation_det(_rational_monomial_rows(psi, points, d))
    assert (want != 0) == nonzero
    built = _spy_build(monkeypatch)
    rep = det_bound_check(psi, points, ball, d)
    assert rep.delta == want
    assert len(built) == (1 if nonzero else 0)


def test_det_bound_dimension_count_matches_bareiss(monkeypatch):
    # the count decides exactly when mu > C(d * D + m, m), D the largest
    # component degree (a zero component has degree 0), and then delta = 0
    # as the elimination finds it; otherwise the monomial matrix is built
    built = _spy_build(monkeypatch)
    rng = random.Random(52)
    seen = set()
    for _ in range(300):
        m, n, d = rng.choice([1, 2]), rng.choice([1, 2, 3]), rng.choice([1, 2, 3])
        degs = [rng.randint(0, 3) for _ in range(n)]
        shapes = [rng.choice(["dense", "dense", "dense", "constant", "zero"])
                  for _ in range(n)]
        comps = [_family_component(rng, m, deg, shape)
                 for deg, shape in zip(degs, shapes)]
        psi = PolyMap(m, n, comps)
        alpha = rng.randint(0, 1)
        center = tuple(rng.randint(0, 2) * alpha for _ in range(m))
        ball = Ball(3, center, alpha)
        setup = DetSetup.for_dims(m, n, d)
        pts = [_family_point(rng, center, alpha) for _ in range(setup.mu)]
        if rng.random() < 0.2:
            pts[-1] = pts[0]
        D = max((sum(e) for c in comps for e in c.terms), default=0)
        decided = setup.mu > comb(d * D + m, m)
        certs = certify_components(psi, setup.r, ball)
        built.clear()
        rep = det_bound_check(psi, pts, ball, d, certificates=certs)
        assert len(built) == (0 if decided else 1), (m, comps, d)
        want = oracles.fraction_det(_rational_monomial_rows(psi, pts, d))
        assert rep.delta == want, (m, comps, d, pts)
        assert rep.ok
        seen.add(("count" if decided else "bareiss", want != 0))
        seen.add(("points", "repeated" if len(set(pts)) < len(pts) else "distinct"))
        seen.update(shapes)
        seen.add(("zero leading", any(shape == "dense" and (c.degree() or 0) < deg
                                      for c, deg, shape in zip(comps, degs, shapes))))
        seen.add(("rational", any(Fraction(x).denominator != 1 for pt in pts for x in pt)))
        seen.add(("rational coefficients", any(c.denominator != 1 for comp in comps
                                               for c in comp.terms.values())))
        seen.add(("dims", m, n, d))
    assert {("count", False), ("bareiss", False), ("bareiss", True)} <= seen
    assert {("points", "repeated"), ("rational", True), ("rational coefficients", True),
            ("zero leading", True), "constant", "zero"} <= seen
    assert {("dims", m, n, d) for m in (1, 2) for n in (1, 2, 3) for d in (1, 2, 3)} <= seen
