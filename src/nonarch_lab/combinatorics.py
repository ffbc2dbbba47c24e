"""Counting constants of the determinant method.

L_m(k) = #{alpha in N^m : |alpha| = k} and D_m(k) = #{|alpha| <= k} drive
everything else: the Taylor order r bracketing mu = D_n(d), the determinant
exponent e, the height exponent V, and the covering exponent eps = mV/e.
The rho-bound is handled as the exact integer inequality p^(alpha*e) >
mu! * T^V; no real number rho is ever materialized.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from .arith_core import is_prime, val_factorial
from .errors import ConfigError


def lambda_count(m, k):
    """Number of exponent vectors in N^m of total degree exactly k."""
    if m < 1 or k < 0:
        raise ConfigError("need m >= 1 and k >= 0")
    return math.comb(k + m - 1, m - 1)


def delta_count(m, k):
    """Number of exponent vectors in N^m of total degree at most k."""
    if m < 1 or k < 0:
        raise ConfigError("need m >= 1 and k >= 0")
    return math.comb(k + m, m)


def r_of(m, n, d):
    """The unique r with D_m(r-1) <= D_n(d) < D_m(r).  D_m(k) = C(k+m, m)
    strictly increases from D_m(0) = 1 <= mu = D_n(d), and D_m(mu) > mu, so
    the search stops at some r <= mu."""
    mu = delta_count(n, d)
    r = 1
    while not (delta_count(m, r - 1) <= mu < delta_count(m, r)):
        r += 1
    return r


def e_of(m, n, d):
    """Determinant valuation exponent: sum k*L_m(k) over k < r, plus
    r*(mu - D_m(r-1))."""
    mu = delta_count(n, d)
    r = r_of(m, n, d)
    return sum(k * lambda_count(m, k) for k in range(r)) + r * (mu - delta_count(m, r - 1))


def V_of(n, d):
    """Height exponent of the expanded determinant: sum k*L_n(k), k <= d."""
    return sum(k * lambda_count(n, k) for k in range(d + 1))


class DetSetup(namedtuple("DetSetup", "m n d mu r e V epsilon")):
    """All constants of one determinant-method configuration; epsilon is a
    Fraction, the others ints."""

    __slots__ = ()

    @classmethod
    @functools.lru_cache(maxsize=None)
    def for_dims(cls, m, n, d):
        """The setup of (m, n, d), built once per process (a named tuple
        takes no assignment, so callers share it)."""
        if m < 1 or n < 1 or d < 1:
            raise ConfigError("need m, n, d >= 1")
        mu = delta_count(n, d)
        r = r_of(m, n, d)
        e = e_of(m, n, d)
        V = V_of(n, d)
        return cls(m, n, d, mu, r, e, V, Fraction(m * V, e))


def alpha_bound(setup, T, p):
    """Minimal alpha >= 0 with p^(alpha*e) > mu! * T^V.

    Balls of valuative radius alpha then force every mu-point monomial
    determinant of height-T points to vanish.  Exact big-integer comparison.
    p must be prime (for p = 0 or 1 the power never passes the bound).
    """
    if not is_prime(p):
        raise ConfigError(f"p = {p} is not prime")
    if T < 0:
        raise ConfigError(f"need T >= 0, got {T}")
    if T < 2:
        T = 2
    rhs = math.factorial(setup.mu) * T ** setup.V
    alpha = 0
    lhs = 1
    step = p ** setup.e
    while lhs <= rhs:
        lhs *= step
        alpha += 1
    return alpha


def select_divisibility(p, r, i_max):
    """The artifact's concretization of 'sufficiently divisible': the least
    k >= 1 with r*k >= v_p(i_max!), so n = p^k has |n|^r / |i!| <= 1 for
    every 1 <= i <= i_max."""
    k = max(1, -(-val_factorial(i_max, p) // r))
    return k
