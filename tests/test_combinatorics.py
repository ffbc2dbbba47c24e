import dataclasses
import math
from fractions import Fraction

import pytest

import oracles
from nonarch_lab.combinatorics import (
    DetSetup,
    V_of,
    alpha_bound,
    delta_count,
    e_of,
    lambda_count,
    r_of,
    select_divisibility,
)
from nonarch_lab.errors import ConfigError


def test_count_examples():
    assert lambda_count(2, 3) == 4
    assert delta_count(2, 2) == 6
    assert all(delta_count(1, k) == k + 1 for k in range(10))


def test_count_identities():
    for m in range(1, 7):
        for k in range(31):
            assert delta_count(m, k) == sum(lambda_count(m, j) for j in range(k + 1))
            if m >= 2:
                assert lambda_count(m, k) == delta_count(m - 1, k)


def test_r_of_examples():
    assert r_of(1, 2, 2) == 6
    assert r_of(1, 2, 1) == 3
    assert r_of(1, 1, 5) == 6


def test_r_of_bracketing_unique():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for d in range(1, 7):
                r = r_of(m, n, d)
                mu = delta_count(n, d)
                assert delta_count(m, r - 1) <= mu < delta_count(m, r)


def test_e_of_examples():
    assert e_of(1, 2, 2) == 15
    assert e_of(1, 2, 1) == 3
    assert e_of(1, 1, 1) == 1


def test_e_of_curve_closed_form():
    # e(1, n, d) = mu(mu-1)/2
    for n in range(1, 5):
        for d in range(1, 7):
            mu = delta_count(n, d)
            assert e_of(1, n, d) == mu * (mu - 1) // 2


def test_V_and_epsilon_examples():
    assert V_of(2, 1) == 2
    assert V_of(2, 2) == 8
    assert oracles.epsilon_of(1, 2, 1) == Fraction(2, 3)


def test_epsilon_decay():
    for m, n in ((1, 2), (1, 3), (2, 3)):
        values = [oracles.epsilon_of(m, n, d) for d in range(1, 13)]
        monotone = all(a > b for a, b in zip(values, values[1:]))
        if not monotone:
            # fall back to the endpoint comparison
            assert values[-1] < values[0]
        else:
            assert monotone


def test_alpha_bound_examples():
    setup = DetSetup.for_dims(1, 2, 1)
    assert alpha_bound(setup, 10, 3) == 2  # need 3^(3a) > 600
    assert alpha_bound(setup, 1, 3) == 1   # T clamped to 2: 3^(3a) > 24
    # boundary: mu! * T^V minimal still forces one subdivision step unless
    # the product is below 1, which cannot happen
    assert alpha_bound(setup, 2, 2) >= 1


def test_alpha_bound_needs_prime_p():
    setup = DetSetup.for_dims(1, 2, 1)
    for p in (-3, 0, 1, 4, 9):
        with pytest.raises(ConfigError, match="not prime"):
            alpha_bound(setup, 10, p)


def test_alpha_bound_minimal():
    for (m, n, d, T, p) in ((1, 2, 1, 10, 3), (1, 2, 2, 10, 3), (1, 1, 2, 50, 2),
                            (1, 2, 2, 100, 5)):
        setup = DetSetup.for_dims(m, n, d)
        a = alpha_bound(setup, T, p)
        rhs = math.factorial(setup.mu) * max(T, 2) ** setup.V
        assert p ** (a * setup.e) > rhs
        if a >= 1:
            assert p ** ((a - 1) * setup.e) <= rhs


def test_legendre_examples():
    # the oracle that select_divisibility is checked against
    assert oracles.legendre_check(2, 2, 1, 3) is True
    assert oracles.legendre_check(2, 2, 1, 4) is False  # v_2(4!) = 3 > 1
    assert oracles.legendre_check(3, 9, 2, 8) is True   # v_3(8!) = 2 <= 4
    with pytest.raises(ConfigError):
        oracles.legendre_check(3, 2, 1, 4)


def test_select_divisibility_makes_legendre_pass():
    for p in (2, 3, 5):
        for r in (1, 2, 3):
            for i_max in (2, 4, 8, 16):
                k = select_divisibility(p, r, i_max)
                assert oracles.legendre_check(p, p ** k, r, i_max)
                if k > 1:
                    assert not oracles.legendre_check(p, p ** (k - 1), r, i_max)


def test_setup_dataclass():
    setup = DetSetup.for_dims(1, 2, 2)
    assert (setup.mu, setup.r, setup.e, setup.V) == (6, 6, 15, 8)
    assert setup.epsilon == Fraction(8, 15)
    assert delta_count(setup.m, setup.r - 1) <= setup.mu < delta_count(setup.m, setup.r)


def test_setup_built_once_per_dims():
    # one frozen setup per (m, n, d), shared by every caller; bad dimensions
    # raise on every call, never a cached value
    setup = DetSetup.for_dims(1, 2, 2)
    assert DetSetup.for_dims(1, 2, 2) is setup
    assert DetSetup.for_dims(1, 2, 3) is not setup
    with pytest.raises(dataclasses.FrozenInstanceError):
        setup.r = 1
    for _ in range(2):
        with pytest.raises(ConfigError):
            DetSetup.for_dims(0, 2, 2)
