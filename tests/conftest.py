import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import pytest
from fractions import Fraction

from nonarch_lab.arith_core import MultiPoly
from nonarch_lab.ffcount import VarietySpec
from nonarch_lab.hilbert import HilbertTable, groebner, leading_term


@pytest.fixture
def parabola_curve():
    from nonarch_lab.heights import SemialgSpec

    return SemialgSpec(2, [MultiPoly(2, {(0, 1): 1, (2, 0): -1})])


@pytest.fixture
def circle_curve():
    from nonarch_lab.heights import SemialgSpec

    return SemialgSpec(2, [MultiPoly(2, {(2, 0): 1, (0, 2): 1, (0, 0): -1})])


def graph_variety(d, name=""):
    """y = x^d over Z[t]."""
    return VarietySpec(2, [{(0, 1): (1,), (d, 0): (-1,)}], m=1, d=d,
                       irreducible=True, name=name or f"y=x^{d}")


LINE = VarietySpec(2, [{(1, 0): (1,), (0, 1): (1,)}], m=1, d=1,
                   irreducible=True, name="x+y=0")
ELLIPTIC = VarietySpec(2, [{(0, 2): (1,), (3, 0): (-1,), (1, 0): (1,)}],
                       m=1, d=3, irreducible=True, name="y^2=x^3-x")
PARAB_T = VarietySpec(2, [{(0, 1): (1,), (2, 0): (-1,), (1, 0): (0, -1)}],
                      m=1, d=2, irreducible=True, name="y=x^2+tx")
HYPERB_T = VarietySpec(2, [{(1, 1): (1,), (0, 0): (-1, -1)}], m=1, d=2,
                       irreducible=True, name="xy=1+t")
CIRCLE_FF = VarietySpec(2, [{(2, 0): (1,), (0, 2): (1,), (0, 0): (-1,)}],
                        m=1, d=2, irreducible=True, name="x^2+y^2=1")


def conic_generator():
    return MultiPoly(3, {(1, 0, 1): Fraction(1), (0, 2, 0): Fraction(-1)})


def cuspidal_generator():
    return MultiPoly(3, {(2, 0, 1): Fraction(1), (0, 3, 0): Fraction(-1)})


def power_curve_generator(d):
    """y = x^d homogenized: x0^(d-1) x2 - x1^d."""
    return MultiPoly(3, {(d - 1, 0, 1): Fraction(1), (0, d, 0): Fraction(-1)})


def ideal_table(gens):
    """The HilbertTable of the ideal spanned by gens, by the path `hilbert`
    takes: the leading exponents of its reduced Groebner basis."""
    return HilbertTable(gens[0].nvars, [leading_term(g)[0] for g in groebner(gens)])
