"""Height functions and fibred enumeration of bounded-height points.

H_0 of a rational r/s in lowest terms is max(|r|, |s|); the polynomial
height of x at degree k is the minimal H_0 over nonzero integer tuples a
with sum a_i x^i = 0.  Point sets of polynomially-defined subsets of Q^n
are enumerated exactly over the candidate grid of rationals of height <= T,
fibre by fibre: the first n-1 coordinates run over the grid and the last
one is read off as a rational root of an integer polynomial.  The grid is
a list of integer (numerator, denominator) pairs in every mode; Fractions
are built only for the points a fibre offers to the set's membership test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt

from .arith_core import MultiPoly, integer_form, is_prime, val_fraction, val_int
from .errors import Budget, CapExceededError, ConfigError


class NotFound:
    """Stands for 'height exceeds the search bound' (the +infinity case)."""

    def __repr__(self):
        return "NotFound"


NOT_FOUND = NotFound()


def h0(x):
    """Height of a rational (or tuple of rationals): max(|num|, |den|) in
    lowest terms; h0(0) = 1."""
    if isinstance(x, (tuple, list)):
        return max(h0(c) for c in x)
    x = Fraction(x)
    return max(abs(x.numerator), x.denominator, 1)


def hk_poly(x, k, T_max):
    """Minimal H_0 over nonzero integer tuples (a_0..a_k) with
    sum a_i x^i = 0 and H_0 <= T_max; NOT_FOUND encodes '> T_max'.

    For x = a/b in lowest terms every such relation is b*X - a times an
    integer polynomial, by Gauss's lemma.  Its lowest and highest nonzero
    coefficients are multiples of a and of b (nonzero integers when x = 0),
    so the minimum is h0(x), reached by b*X - a itself.
    """
    if k < 1 or T_max < 1:
        raise ConfigError("need k >= 1 and T_max >= 1")
    h = h0(x)
    return h if h <= T_max else NOT_FOUND


def enumerate_heights(T):
    """All rationals with h0 <= T, each once, as (numerator, denominator)
    pairs in lowest terms with denominator > 0, ordered by (h0, |numerator|,
    sign, denominator): 0, 1, -1, then at each h >= 2 +-a/h for the a < h
    prime to h, ascending, then h/b and then -h/b for the b < h prime to h."""
    if T < 1:
        raise ConfigError("need T >= 1")
    yield from ((0, 1), (1, 1), (-1, 1))
    for h in range(2, T + 1):
        coprime = [a for a in range(1, h) if gcd(a, h) == 1]
        yield from ((sa, h) for a in coprime for sa in (a, -a))
        yield from ((h, b) for b in coprime)
        yield from ((-h, b) for b in coprime)


@dataclass(frozen=True)
class PadicConstraint:
    """ord_p(g(x)) >= c, or angular component of g(x) at given depth = value."""

    poly: MultiPoly
    kind: str  # "ord_ge" | "ac_eq"
    c: int = 0
    depth: int = 1
    value: int = 0

    def __post_init__(self):
        if self.kind not in ("ord_ge", "ac_eq"):
            raise ConfigError(f"unknown constraint kind {self.kind!r}")
        if self.kind == "ac_eq" and self.depth < 1:
            raise ConfigError(f"ac_eq constraint needs depth >= 1, got {self.depth}")

    def holds(self, point, p):
        g = self.poly.eval(point)
        if self.kind == "ord_ge":
            return val_fraction(g, p) >= self.c
        # ac_p(g) = value mod p^depth, decided by valuation so that p^depth
        # is never formed: g = 0 passes when p^depth divides value, and
        # otherwise its unit part u when p^depth divides u - value
        if g == 0:
            return val_int(self.value, p) >= self.depth
        unit = g / Fraction(p) ** val_fraction(g, p)
        return val_fraction(unit - self.value, p) >= self.depth


@dataclass
class SemialgSpec:
    """Polynomial equations/inequations over Q plus optional exact p-adic
    valuation constraints; all decidable exactly on rational points."""

    nvars: int
    equations: list = field(default_factory=list)
    inequations: list = field(default_factory=list)
    p: int | None = None
    constraints: list = field(default_factory=list)

    def __post_init__(self):
        if self.p is None:
            if self.constraints:
                raise ConfigError("p-adic constraints need a designated prime")
        elif not is_prime(self.p):
            raise ConfigError(f"padic p = {self.p} is not prime")

    def accepts(self, point, known=0):
        """Whether point lies in the set; the first `known` equations are
        taken to vanish there already (a fibre solved by equation known-1)."""
        for eq in self.equations[known:]:
            if eq.eval(point) != 0:
                return False
        for ineq in self.inequations:
            if ineq.eval(point) == 0:
                return False
        for c in self.constraints:
            if not c.holds(point, self.p):
                return False
        return True


def _grid_points(X, values, cap):
    """Members of X in values^n as tuples of Fractions, in itertools.product
    order; values are distinct (numerator, denominator) pairs in lowest terms
    with denominator > 0.

    Fibre by fibre: at each prefix of the first n-1 coordinates the first
    equation whose specialization is not the zero polynomial gives an
    integer polynomial in the last variable, whose roots among values are
    read off in closed form up to degree 2 and by the rational-root theorem
    beyond.  The equations up to the solving one vanish at those candidates
    (the earlier ones on the whole fibre), so only the later equations, the
    inequations and the p-adic constraints are checked.  A fibre is
    scanned over all of values, each point through the full X.accepts, only
    when no equation constrains it (no equations, or every one vanishes on
    the fibre).  Fractions are built only for the prefix of a fibre with
    candidates and for each candidate point.
    """
    _check_grid(X, len(values), cap)
    if X.nvars == 0:
        return [()] if X.accepts(()) else []
    last = X.nvars - 1
    index = {v: i for i, v in enumerate(values)}
    max_num = max((abs(num) for num, _ in values), default=0)
    max_den = max((den for _, den in values), default=1)
    fibrations, degrees = _integer_fibrations(X.equations, last)
    # powers[i][vi][e] = num^e * den^(D_i - e) for the value vi in slot i,
    # so every term is scaled by the same prod den_i^(D_i)
    powers = [[[num ** e * den ** (D - e) for e in range(D + 1)]
               for num, den in values] for D in degrees]
    scan = range(len(values))
    out = []
    for prefix_idx in itertools.product(scan, repeat=last):
        rows = [powers[i][vi] for i, vi in enumerate(prefix_idx)]
        candidates, known = scan, 0
        for solving, (terms, width) in enumerate(fibrations):
            coeffs = [0] * width
            for j, c, exps in terms:
                for row, e in zip(rows, exps):
                    c *= row[e]
                coeffs[j] += c
            if any(coeffs):
                candidates = _root_indices(coeffs, index, max_num, max_den)
                known = solving + 1
                break
        if not candidates:
            continue
        prefix = tuple(Fraction(*values[vi]) for vi in prefix_idx)
        for i in candidates:
            point = prefix + (Fraction(*values[i]),)
            if X.accepts(point, known):
                out.append(point)
    return out


def _check_grid(X, width, cap, upper=None):
    """Charge a grid of width^n candidates to the --cap Budget; `upper`, when
    given, bounds the width from above, and width is then a lower bound."""
    if X.nvars > 4:
        raise ConfigError("point enumeration is limited to n <= 4 variables")
    budget = Budget(cap, "grid candidates width^n", "--cap")
    if upper is not None and width ** X.nvars > cap:
        raise CapExceededError(f"at least {width ** X.nvars} grid candidates width^n exceed "
                               f"cap {cap}; --cap {upper ** X.nvars} admits them")
    budget.charge(width ** X.nvars)


def _height_grid(X, T, cap):
    """The rationals of height <= T, built only once the grid they span
    fits the cap.  There are 4 * sum_{h<=T} phi(h) - 1 of them: 0 and +-1
    at height 1, and +-a/h, +-h/a for each a < h prime to h above.  The
    2T+1 integers among them bound the grid from below, each h >= 2 adds
    4 phi(h) <= 4 (h - 1) of them, so 2T^2 - 2T + 3 bounds it from above,
    and the count stops once the grid it spans passes the cap."""
    if T < 1:
        raise ConfigError("need T >= 1")
    upper = 2 * T * T - 2 * T + 3
    _check_grid(X, 2 * T + 1, cap, upper if T > 1 else None)
    if X.nvars == 0:
        return []  # a set in 0 variables reads no value
    width = -1
    for h in range(1, T + 1):
        width += 4 * _totient(h)
        if width ** X.nvars > cap:
            _check_grid(X, width, cap, upper if h < T else None)
    return list(enumerate_heights(T))


def _totient(h):
    """Euler's phi(h), by trial division."""
    phi, rest, q = h, h, 2
    while q * q <= rest:
        if rest % q == 0:
            phi -= phi // q
            while rest % q == 0:
                rest //= q
        q += 1
    return phi - phi // rest if rest > 1 else phi


def _integer_fibrations(equations, last):
    """Each equation as an integer polynomial in the last variable over the
    first `last` ones: (terms, width) with terms (j, c, prefix exponents)
    for c * prefix^exps * y^j, read off arith_core.integer_form (the
    equation times the lcm of its denominators); and the maximal degree
    of each prefix variable over all equations."""
    degrees = [0] * last
    for eq in equations:
        for exp in eq.terms:
            for i in range(last):
                degrees[i] = max(degrees[i], exp[i])
    out = []
    for _, _, terms in integer_form(equations):
        out.append(([(exp[last], c, exp[:last]) for exp, c in terms],
                    1 + max((exp[last] for exp, _ in terms), default=0)))
    return out, degrees


def _root_indices(coeffs, index, max_num, max_den):
    """Ascending indices in `index`, keyed by (numerator, denominator) in
    lowest terms with denominator > 0, of the rational roots of the nonzero
    integer polynomial sum coeffs[j] y^j.

    The factor y^k of the lowest nonzero coefficient gives the root 0; the
    cofactor keeps a nonzero constant term.  A linear cofactor c + b y has
    the one root -c/b; a quadratic one c + b y + a y^2 has rational roots
    exactly when b^2 - 4ac is a square, (-b +- sqrt(b^2 - 4ac)) / 2a.  From
    degree 3 on, a root r/s in lowest terms has r | coeffs[k] and s |
    coeffs[d] for the lowest and highest nonzero coefficients, both capped
    by the largest numerator and denominator among the indexed values.
    """
    nonzero = [j for j, c in enumerate(coeffs) if c]
    k, d = nonzero[0], nonzero[-1]
    hits = []
    if k and (0, 1) in index:
        hits.append(index[0, 1])
    if d - k == 1:
        roots = [_lowest_terms(-coeffs[k], coeffs[d])]
    elif d - k == 2:
        c, b, a = coeffs[k:d + 1]
        disc = b * b - 4 * a * c
        root = isqrt(disc) if disc >= 0 else -1
        roots = ([] if root * root != disc else
                 [_lowest_terms(-b - root, 2 * a), _lowest_terms(-b + root, 2 * a)])
    elif d > k:
        roots = _divisor_roots(coeffs, k, d, index, max_num, max_den)
    else:
        roots = []
    hits.extend({index[y] for y in roots if y in index})
    hits.sort()
    return hits


def _lowest_terms(num, den):
    """num/den as (numerator, denominator) in lowest terms, den > 0."""
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g, den // g


def _divisor_roots(coeffs, k, d, index, max_num, max_den):
    """Nonzero rational roots among the keys of `index` of sum coeffs[j]
    y^j, lowest nonzero coefficient at k and highest at d (d - k >= 3),
    by the rational-root theorem, as (numerator, denominator) pairs."""
    trail, lead = abs(coeffs[k]), abs(coeffs[d])
    nums = [r for r in range(1, min(max_num, trail) + 1) if trail % r == 0]
    roots = []
    for s in range(1, min(max_den, lead) + 1):
        if lead % s:
            continue
        spow = [s ** e for e in range(d - k + 1)]
        for r in nums:
            if gcd(r, s) != 1:
                continue
            for y in (r, -r):
                if (y, s) not in index:
                    continue
                acc = 0  # s^d * f(y/s) / y^k, by integer Horner
                for j in range(d, k - 1, -1):
                    acc = acc * y + coeffs[j] * spow[d - j]
                if acc == 0:
                    roots.append((y, s))
    return roots


def points_Q(X, T, cap=10**7):
    """Members of X with rational coordinates of height <= T, in the
    deterministic grid order."""
    return _grid_points(X, _height_grid(X, T, cap), cap)


def points_Z(X, T, cap=10**7):
    """Members of X with integer coordinates of absolute value <= T."""
    if T < 0:
        raise ConfigError(f"need T >= 0, got {T}")
    _check_grid(X, 2 * T + 1, cap)
    return _grid_points(X, [(v, 1) for v in (range(-T, T + 1) if X.nvars else ())], cap)


def points_k(X, k, T, cap=10**7):
    """Members of X with rational coordinates of polynomial height
    H_k <= T (only rational coordinates are enumerated).

    For a rational a/b in lowest terms every integer relation is a multiple
    of (b*x - a) by Gauss's lemma, so H_k = h0 on Q and the height-T grid
    is exactly the candidate set: the answer is points_Q's.
    """
    if k < 1:
        raise ConfigError("need k >= 1")
    return _grid_points(X, _height_grid(X, T, cap), cap)
