import math
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from nonarch_lab.arith_core import (
    Ball,
    MultiPoly,
    divided_derivative,
    rational_residue,
    val_factorial,
    val_fraction,
    val_int,
)
from nonarch_lab.errors import PrecisionError, RingMismatchError
from nonarch_lab.ffcount import VarietySpec, expand_scheme

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


def test_gf_rejects_nonprime_q():
    X = VarietySpec(n=2, polynomials=[{(0, 1): (1,), (3, 0): (-1,)}])
    with pytest.raises(RingMismatchError, match="q=4 is not prime"):
        X.reduce_mod(4)
    with pytest.raises(RingMismatchError, match="q=4 is not prime"):
        expand_scheme(X, 4, 2)


def test_multipoly_divided_derivative():
    f = MultiPoly(1, {(4,): Fraction(1)})
    dd = divided_derivative(f, (2,))
    assert dd.terms == {(2,): Fraction(6)}  # C(4,2)
    g = MultiPoly(2, {(2, 1): Fraction(3)})
    assert divided_derivative(g, (1, 1)).terms == {(1, 0): Fraction(6)}


def test_val_helpers():
    assert val_int(0, 3) == INF
    assert val_int(18, 3) == 2
    assert val_factorial(8, 3) == 2  # 3 + 6 contribute
    assert val_factorial(4, 2) == 3
    assert rational_residue(Fraction(1, 2), 3, 2) == 5  # 1/2 = 5 mod 9
    with pytest.raises(PrecisionError):
        rational_residue(Fraction(1, 3), 3, 2)


def test_residue_enumeration_deterministic():
    ball = Ball(3, (1,), 1)
    first = ball.residue_array(3)
    assert first.tolist() == ball.residue_array(3).tolist()
    assert first.shape == (9, 1)
    assert all(x % 3 == 1 for x in first[:, 0])
    with pytest.raises(PrecisionError):
        ball.residue_array(0)


def test_residue_array_matches_odometer():
    # row for row the order of the one-tuple-at-a-time enumeration, for
    # m = 1..3, alpha = 0..2 and nonzero centres
    rng = random.Random(5)
    for m in (1, 2, 3):
        for alpha in (0, 1, 2):
            for p in (2, 3, 5):
                center = tuple(Fraction(rng.randint(1, 40), rng.choice([1, 1, 7]))
                               for _ in range(m))
                ball = Ball(p, center, alpha)
                for K in range(alpha, alpha + 3):
                    got = ball.residue_array(K)
                    want = [list(t) for t in oracles.ball_residues(ball, K)]
                    assert got.dtype == np.int64 and got.shape == (len(want), m)
                    assert got.tolist() == want, (p, center, alpha, K)


def test_residue_array_dtype_boundary():
    # int64 while the top representative is below 2^62, Python ints past it
    below = Ball(2, (1,), 60).residue_array(62)
    assert below.dtype == np.int64
    assert below[:, 0].tolist() == [1 + j * 2 ** 60 for j in range(4)]
    above = Ball(2, (1, 3), 61).residue_array(63)
    assert above.dtype == object
    assert above.tolist() == [list(t) for t in oracles.ball_residues(Ball(2, (1, 3), 61), 63)]
    assert all(type(c) is int for row in above for c in row)
    assert int(above[-1, 1]) == 3 + 3 * 2 ** 61 >= 2 ** 62


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
