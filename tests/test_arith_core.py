import collections
import itertools
import math
import random
from fractions import Fraction

import pytest

import oracles
from nonarch_lab.arith_core import (
    MR_EXACT_BELOW,
    Ball,
    MultiPoly,
    eval_cleared,
    integer_form,
    is_prime,
    rational_residue,
    val_factorial,
    val_fraction,
    val_int,
)
from nonarch_lab.errors import ConfigError, PrecisionError, RingMismatchError
from nonarch_lab.ffcount import VarietySpec, expand_scheme
from nonarch_lab.taylor import PolyMap, _derivative_table

INF = math.inf


def test_ord_examples():
    assert val_fraction(18, 3) == 2
    assert val_fraction(0, 3) == INF
    assert val_fraction(Fraction(0), 3) == INF
    assert val_fraction(75, 5) == 2
    assert val_fraction(Fraction(5, 18), 3) == -2


def test_ultrametric_law_random():
    rng = random.Random(71)
    p = 3
    for _ in range(500):
        xa = Fraction(rng.randint(-200, 200), rng.choice([1, 1, 2, 5, 7]))
        xb = Fraction(rng.randint(-200, 200), rng.choice([1, 1, 2, 5, 7]))
        if xa == 0 or xb == 0 or xa + xb == 0:
            continue
        va, vb = val_fraction(xa, p), val_fraction(xb, p)
        s = val_fraction(xa + xb, p)
        assert s >= min(va, vb)
        if va != vb:
            assert s == min(va, vb)


def test_multiplicativity_random():
    rng = random.Random(72)
    p = 5
    for _ in range(300):
        xa = Fraction(rng.randint(1, 500), rng.choice([1, 2, 3]))
        xb = Fraction(rng.randint(1, 500), rng.choice([1, 2, 3]))
        assert val_fraction(xa * xb, p) == val_fraction(xa, p) + val_fraction(xb, p)


def test_ball_membership_and_radius():
    ball = Ball(3, (1,), 2)
    assert ball.contains((1 + 9,))
    assert ball.contains((1 + 27,))
    assert not ball.contains((2,))
    with pytest.raises(RingMismatchError):
        Ball(3, (Fraction(1, 3),), 1)  # center outside Z_p


def test_ball_rejects_nonprime_p():
    for p in (-3, 0, 1, 4):
        with pytest.raises(RingMismatchError, match=f"p = {p} is not prime"):
            Ball(p, (0,), 1)


def test_is_prime_matches_trial_division():
    sieve = bytearray([1]) * 10**5
    sieve[:2] = b"\0\0"
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, 10**5, d)))
    assert [n for n in range(-5, 10**5) if is_prime(n)] == [
        n for n in range(2, 10**5) if sieve[n]]


@pytest.mark.parametrize("n, prime", [
    (3215031751, False),  # strong pseudoprime to the bases 2, 3, 5, 7
    (3825123056546413051, False),  # to the bases 2 .. 23
    (318665857834031151167461, False),  # to the bases 2 .. 37
    (10**14 + 31, True),
    (10**18 + 3, True),
    (2**61 - 1, True),
])
def test_is_prime_strong_pseudoprimes_and_large_primes(n, prime):
    assert is_prime(n) is prime


def test_is_prime_refuses_to_guess_past_the_proven_bound():
    # MR_EXACT_BELOW itself is a strong pseudoprime to all 13 bases
    for n in (MR_EXACT_BELOW, 2**89 - 1):
        with pytest.raises(ConfigError, match="cannot prove"):
            is_prime(n)
    # a composite is named at any size
    assert not is_prime(MR_EXACT_BELOW + 2) and not is_prime(2**89 + 1)


def test_gf_rejects_nonprime_q():
    X = VarietySpec(n=2, polynomials=[{(0, 1): (1,), (3, 0): (-1,)}])
    with pytest.raises(RingMismatchError, match="q=4 is not prime"):
        X.reduce_mod(4)
    with pytest.raises(RingMismatchError, match="q=4 is not prime"):
        expand_scheme(X, 4, 2)


def test_multipoly_divided_derivative():
    # the derivative table's entries are the divided derivatives, as the
    # oracle gives them: C(4, 2) = 6 for x^4 at beta = 2, and 3 * C(2, 1) = 6
    # for 3x^2 y at beta = (1, 1)
    for f, beta, want in ((MultiPoly(1, {(4,): Fraction(1)}), (2,), {(2,): Fraction(6)}),
                          (MultiPoly(2, {(2, 1): Fraction(3)}), (1, 1),
                           {(1, 0): Fraction(6)})):
        table = dict(_derivative_table(PolyMap(f.nvars, 1, [f]))[0])
        assert table[beta] == oracles.divided_derivative(f.terms, beta) == want


def _eval_family_poly(rng, m, shape):
    """A polynomial in m variables: zero, constant, with every coefficient
    over one shared denominator, or general."""
    if shape == "zero":
        return MultiPoly(m, {})
    if shape == "constant":
        return MultiPoly.constant(m, Fraction(rng.randint(-9, 9), rng.choice([1, 2, 6])))
    den = rng.choice([2, 3, 6, 9, 12])
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exp = tuple(rng.randint(0, 3) for _ in range(m))
        terms[exp] = Fraction(rng.randint(-12, 12), den if shape == "shared"
                              else rng.choice([1, 1, 2, 5, 9]))
    return MultiPoly(m, terms)


def _eval_family_coordinate(rng, kind):
    """An int or a Fraction, sometimes 0, sometimes near 2^70."""
    size = rng.choice([0, 9, 9, 2 ** 70])
    num = rng.randint(-size, size) if size < 2 ** 70 else 2 ** 70 + rng.randint(-3, 3)
    if kind == "int":
        return num
    return Fraction(num if num else rng.choice([0, 1]), rng.choice([2, 3, 4, 9, 2 ** 35]))


def test_one_evaluator_matches_fraction_oracle():
    # MultiPoly.eval, and eval_cleared over several polynomials at once,
    # agree with the Fraction loop of the oracles on m = 1..3; zero, constant,
    # shared-denominator and general polynomials; integral, Fraction and
    # mixed points, with zero coordinates and values near 2^70.  Every
    # eval_cleared value is in lowest terms, and a point of the wrong
    # dimension is refused
    rng = random.Random(34)
    seen = set()
    for _ in range(600):
        m = rng.randint(1, 3)
        polys = [_eval_family_poly(rng, m, rng.choice(["zero", "constant", "shared",
                                                        "general", "general"]))
                 for _ in range(rng.randint(1, 3))]
        kind = rng.choice(["int", "fraction", "mixed"])
        point = tuple(_eval_family_coordinate(
            rng, "int" if kind == "int" or (kind == "mixed" and i % 2) else "fraction")
            for i in range(m))
        want = [oracles.fraction_eval(f.terms, point) for f in polys]
        assert [f.eval(point) for f in polys] == want, (polys, point)
        nums, den = eval_cleared(integer_form(polys), point, m)
        assert den >= 1 and math.gcd(den, *nums) == 1, (polys, point)
        assert [Fraction(x, den) for x in nums] == want, (polys, point)
        for wrong in (point[:-1], point + (1,)):
            with pytest.raises(RingMismatchError, match=f"dimension {len(wrong)} .* {m} var"):
                polys[0].eval(wrong)
        seen.add((m, kind, any(abs(v) > 2 ** 60 for v in want)))
    assert {(m, kind) for m, kind, _ in seen} == {
        (m, kind) for m in (1, 2, 3) for kind in ("int", "fraction", "mixed")}
    assert {big for *_, big in seen} == {False, True}


@pytest.mark.parametrize("evaluate, got, want", [
    (lambda: MultiPoly(1, {(1,): 1}).eval((2, 5)), 2, 1),
    (lambda: MultiPoly(2, {(1, 1): 1, (0, 1): 3}).eval((2,)), 1, 2),
    (lambda: eval_cleared(integer_form([MultiPoly(2, {(1, 0): 1, (0, 1): 5})]), (3,), 2),
     1, 2),
    (lambda: PolyMap(2, 1, [MultiPoly(2, {(1, 0): 1, (0, 1): 5})]).eval((3, 1, 7)), 3, 2),
], ids=["multipoly-long", "multipoly-short", "eval-cleared-short", "polymap-long"])
def test_eval_rejects_a_point_of_the_wrong_dimension(evaluate, got, want):
    # these were evaluated on what zip kept, or raised IndexError
    with pytest.raises(RingMismatchError,
                       match=f"point of dimension {got} for a polynomial in {want} variables"):
        evaluate()


def test_val_helpers():
    assert val_int(0, 3) == INF
    assert val_int(18, 3) == 2
    assert val_factorial(8, 3) == 2  # 3 + 6 contribute
    assert val_factorial(4, 2) == 3
    assert rational_residue(Fraction(1, 2), 3, 2) == 5  # 1/2 = 5 mod 9
    with pytest.raises(PrecisionError):
        rational_residue(Fraction(1, 3), 3, 2)


def test_digits_match_odometer():
    # the representatives key + p^alpha * d of the digit tuples d in
    # product order, last coordinate fastest, are the one-tuple-at-a-time
    # enumeration, for m = 1..3, alpha = 0..2 and nonzero centres
    rng = random.Random(5)
    for m in (1, 2, 3):
        for alpha in (0, 1, 2):
            for p in (2, 3, 5):
                center = tuple(Fraction(rng.randint(1, 40), rng.choice([1, 1, 7]))
                               for _ in range(m))
                ball = Ball(p, center, alpha)
                for K in range(alpha, alpha + 3):
                    digits = itertools.product(range(p ** (K - alpha)), repeat=m)
                    want = list(oracles.ball_residues(ball, K))
                    assert list(map(ball.representative, digits)) == want, (p, center, alpha, K)


def test_representatives_exact_past_2_62():
    # the representatives of small digit tuples are exact Python ints past
    # 2^62 and 2^63
    for ball, K in ((Ball(2, (1, 3), 61), 63), (Ball(2, (1,), 63), 65),
                    (Ball(3, (2, 5), 40), 41), (Ball(5, (Fraction(1, 2),), 28), 30)):
        width = ball.p ** (K - ball.alpha)
        digits = list(itertools.product(range(width), repeat=ball.m))
        reps = list(map(ball.representative, digits))
        assert reps == list(oracles.ball_residues(ball, K))
        assert all(type(c) is int for rep in reps for c in rep)
        assert max(map(max, reps)) >= 2 ** 62
    top = Ball(2, (1, 3), 61).representative((3, 3))
    assert top == (1 + 3 * 2 ** 61, 3 + 3 * 2 ** 61)


def test_ball_contains_matches_definition():
    rng = random.Random(9)
    inside = 0
    for _ in range(400):
        p = rng.choice([2, 3, 5])
        m = rng.choice([1, 2])
        alpha = rng.randint(0, 3)
        center = tuple(Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 7, 11]))
                       for _ in range(m))
        if any(c.denominator % p == 0 for c in center):
            continue
        ball = Ball(p, center, alpha)
        point = tuple(c + Fraction(p ** rng.randint(0, 4) * rng.randint(-9, 9),
                                   rng.choice([1, 1, 2, 3, 5, 13]))
                      if rng.random() < 0.8 else rng.randint(-50, 50)
                      for c in center)
        want = oracles.ball_contains(p, center, alpha, point)
        assert ball.contains(point) == want, (p, center, alpha, point)
        inside += want
    assert 50 < inside < 350, inside
    assert not Ball(3, (0,), 1).contains((0, 0))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("alpha", [0, 1, 3])
def test_int_centre_is_its_own_key(p, alpha):
    # an int centre is reduced mod p^alpha directly; it names the same key
    # as the Fraction path, for negative, zero and large centres alike
    step = p ** alpha
    for c in (0, 1, -1, -step - 1, step, step + 2, 7 * step - 1, -(2 ** 70) + 5, 2 ** 70 + 3):
        ball = Ball(p, (c,), alpha)
        assert ball.center == Ball(p, (Fraction(c),), alpha).center == (c % step,), (c, p, alpha)
        assert all(type(k) is int for k in ball.center)
    assert Ball(p, (-1, step + 1), alpha).center == (step - 1 if alpha else 0, 1 % step)
    # a bool is read as the Fraction it converts to
    assert Ball(p, (True,), alpha).center == Ball(p, (Fraction(1),), alpha).center


def test_multipoly_keeps_fraction_coefficients_as_given():
    half = Fraction(1, 2)
    f = MultiPoly(2, {(1, 0): half, (0, 1): Fraction(0), (2, 2): -half})
    assert f.terms == {(1, 0): half, (2, 2): -half}
    assert f.terms[1, 0] is half
    # int, str and bool coefficients and list exponents convert as before
    g = MultiPoly(2, {(1, 0): 3, (0, 1): "-2/6", (1, 1): True, (2, 0): 0, (0, 2): "0",
                      (3, 0): False})
    assert g.terms == {(1, 0): Fraction(3), (0, 1): Fraction(-1, 3), (1, 1): Fraction(1)}
    assert all(type(c) is Fraction for c in g.terms.values())
    # an exponent that is not a plain tuple becomes one: a tuple subclass,
    # or the lists of a mapping whose items() yields them
    Exp = collections.namedtuple("Exp", "i j")
    named = MultiPoly(2, {Exp(0, 3): 1})
    assert [type(e) for e in named.terms] == [tuple] and named.terms == {(0, 3): 1}

    class Pairs:
        def items(self):
            return [([2, 1], "1/4"), ([0, 0], 0)]

    listed = MultiPoly(2, Pairs())
    assert [type(e) for e in listed.terms] == [tuple]
    assert listed.terms == {(2, 1): Fraction(1, 4)}
