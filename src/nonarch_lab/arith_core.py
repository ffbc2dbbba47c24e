"""Exact arithmetic core: p-adic valuations and residues of exact
rationals, balls with valuative radii in Z_p^m, each held by its integer
key (the centre's residues mod p^alpha; an int centre is reduced with no
Fraction built), the one polynomial type, sparse multivariate over Q with
plain Fraction coefficients (a Fraction given is kept as given), and its
one exact evaluator, in integers, with a Fraction built once per value.

Q_p is modelled only through exact rationals: no element is ever carried
at finite precision.  Norms are never materialized as floats.  |x| <= |y|
is decided as ord(x) >= ord(y); a ball of valuative radius alpha is
{x : ord(x-c) >= alpha}.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ConfigError, PrecisionError, RingMismatchError

INF = math.inf

# Miller-Rabin to the first 13 prime bases decides every n below
# MR_EXACT_BELOW (Sorenson and Webster, Math. Comp. 86 (2017), 985-1003)
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981
# below 41^2 every composite has a factor in MR_BASES: a set lookup decides
_SMALL_PRIMES = frozenset(range(2, 41 ** 2)).difference(
    *(range(b * b, 41 ** 2, b) for b in MR_BASES))


def is_prime(n):
    """Whether the integer n is prime: a lookup below 41^2, above it trial
    division by MR_BASES and then deterministic Miller-Rabin to those
    bases.  A composite is always named; a probable prime of at least
    MR_EXACT_BELOW, which those bases do not prove, is a ConfigError."""
    if n < 41 ** 2:
        return n in _SMALL_PRIMES
    if any(n % b == 0 for b in MR_BASES):
        return False
    k = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^k, d odd
    d = (n - 1) >> k
    for b in MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(k - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_EXACT_BELOW:
        raise ConfigError(f"cannot prove {n} prime: Miller-Rabin to the first 13 "
                          f"prime bases is exact only below {MR_EXACT_BELOW}")
    return True


def val_int(n, p):
    """p-adic valuation of an integer; INF for 0."""
    if n == 0:
        return INF
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def val_fraction(x, p):
    """p-adic valuation of a Fraction or int; INF for 0."""
    if isinstance(x, int):
        return val_int(x, p)
    if x == 0:
        return INF
    return val_int(x.numerator, p) - val_int(x.denominator, p)


def val_factorial(i, p):
    """v_p(i!) by Legendre's formula."""
    v = 0
    q = p
    while q <= i:
        v += i // q
        q *= p
    return v


def rational_residue(x, p, k):
    """Representative of a p-integral rational modulo p^k, in [0, p^k)."""
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    if den % p == 0:
        raise PrecisionError(f"{x} is not p-integral at p={p}")
    if k == 0:
        return 0
    m = p ** k
    return num * pow(den, -1, m) % m


class Ball:
    """Closed ball (box) of equal valuative radius alpha in Z_p^m, p prime,
    held by its integer key: `center` is the given centre's residues in
    [0, p^alpha), which names the same ball.  An int coordinate (not a
    bool) is its own key modulo p^alpha; any other is read as a Fraction
    n/d, which needs d prime to p, and keyed as n * d^(-1) mod p^alpha.

    Membership: ord(x_i - c_i) >= alpha for every coordinate.  Two balls of
    equal radius are identical or disjoint.  The residue class with digit
    tuple d, center + p^alpha * d, has its exact representative from
    `representative`; `residue_count` counts the classes mod p^K.
    """

    __slots__ = ("p", "m", "alpha", "center")

    def __init__(self, p, center, alpha):
        if not is_prime(p):
            raise RingMismatchError(f"p = {p} is not prime")
        if alpha < 0:
            raise RingMismatchError("valuative radius must be >= 0")
        step = p ** alpha
        key = []
        for c in center:
            if type(c) is not int:
                c = Fraction(c)
                if c.denominator % p == 0:
                    raise RingMismatchError("ball center must lie in Z_p^m")
                c = c.numerator * pow(c.denominator, -1, step)
            key.append(c % step)
        self.p = p
        self.alpha = alpha
        self.center = tuple(key)
        self.m = len(self.center)

    def __repr__(self):
        return f"Ball(p={self.p}, center={self.center}, alpha={self.alpha})"

    def contains(self, point):
        """x lies in the ball when each coordinate is p-integral and
        congruent to the centre modulo p^alpha: num = center * den mod
        p^alpha for x = num/den in lowest terms, den a unit."""
        if len(point) != self.m:
            return False
        p, step = self.p, self.p ** self.alpha
        for x, k in zip(point, self.center):
            if not isinstance(x, (int, Fraction)):
                x = Fraction(x)
            num, den = x.numerator, x.denominator
            if den % p == 0 or (num - k * den) % step:
                return False
        return True

    def residue_count(self, K):
        return self.p ** ((K - self.alpha) * self.m)

    def representative(self, d):
        """center + p^alpha * d for one digit tuple d, as a tuple of Python ints."""
        step = self.p ** self.alpha
        return tuple(k + step * int(j) for k, j in zip(self.center, d))


# ---------------------------------------------------------------------------
# sparse multivariate polynomials over Q
# ---------------------------------------------------------------------------

class MultiPoly:
    """Sparse multivariate polynomial over Q: exponent tuple -> Fraction.

    A coefficient that is a Fraction, and an exponent that is a tuple, are
    kept as given; any other is converted (Fraction(c), tuple(exp)).  Zero
    coefficients are dropped."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        cleaned = {}
        for exp, c in (terms or {}).items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                cleaned[exp if type(exp) is tuple else tuple(exp)] = c
        self.terms = cleaned

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i):
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, {tuple(exp): 1})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return not self.is_zero()

    def degree(self):
        """Total degree; None for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=None)

    def _match(self, other):
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise RingMismatchError("polynomial rings differ")
            return other
        return MultiPoly.constant(self.nvars, other)

    def __add__(self, other):
        other = self._match(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return MultiPoly(self.nvars, out)

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._match(other))

    def __mul__(self, other):
        other = self._match(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(exp, 0) + c1 * c2
                if s:
                    out[exp] = s
                else:
                    out.pop(exp, None)
        return MultiPoly(self.nvars, out)

    def __rmul__(self, other):
        return self * other

    def scale(self, c):
        c = Fraction(c)
        return MultiPoly(self.nvars, {e: v * c for e, v in self.terms.items()})

    def __pow__(self, e):
        out = MultiPoly.constant(self.nvars, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __eq__(self, other):
        try:
            other = self._match(other)
        except RingMismatchError:
            return False
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def eval(self, args):
        """Evaluate at a rational point, exactly, through eval_cleared."""
        (num,), den = eval_cleared(integer_form([self]), args, self.nvars)
        return Fraction(num, den)

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        parts = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e)):
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(exp) if e) or "1"
            parts.append(f"{self.terms[exp]}*{mono}")
        return "MultiPoly(" + " + ".join(parts) + ")"


def cleared(vec):
    """A vector of ints and Fractions as integer numerators over its common
    denominator D: the vector times D, and D."""
    dens = [x.denominator for x in vec]
    den = math.lcm(*dens)
    if den == 1:
        return [x.numerator for x in vec], 1
    return [x.numerator * (den // q) for x, q in zip(vec, dens)], den


def integer_form(polys):
    """Each polynomial as (L, degree, [(exp, L * coeff)]) with L the lcm of
    its coefficient denominators, so every coefficient is an int; the zero
    polynomial has L = 1, degree 0 and no terms."""
    out = []
    for poly in polys:
        L = math.lcm(*(c.denominator for c in poly.terms.values()))
        terms = [(exp, c.numerator * (L // c.denominator))
                 for exp, c in poly.terms.items()]
        out.append((L, poly.degree() or 0, terms))
    return out


def eval_cleared(form, point, nvars):
    """The polynomials of an integer_form, in nvars variables, at a rational
    point, as (numerators, common denominator) in lowest terms, den >= 1.

    With the point written as b / E, polynomial i is N_i / (L_i * E^deg_i)
    where N_i = sum (L_i c_t) prod b^t E^(deg_i - |t|).  A point of plain
    ints is b itself with E = 1, and no Fraction is made for it; an
    integral point takes no powers of E, and an integral value no common
    denominator."""
    if len(point) != nvars:
        raise RingMismatchError(
            f"point of dimension {len(point)} for a polynomial in {nvars} variables")
    if all(type(x) is int for x in point):
        b, E = point, 1
    else:
        b, E = cleared([x if isinstance(x, (int, Fraction)) else Fraction(x)
                        for x in point])
    nums, dens = [], []
    for L, deg, terms in form:
        acc = 0
        for exp, c in terms:
            t = c if E == 1 else c * E ** (deg - sum(exp))
            for x, e in zip(b, exp):
                if e:
                    t *= x ** e
            acc += t
        nums.append(acc)
        dens.append(L if E == 1 else L * E ** deg)
    if all(q == 1 for q in dens):
        return tuple(nums), 1
    den = math.lcm(*dens)
    a = [x * (den // q) for x, q in zip(nums, dens)]
    g = math.gcd(den, *a)
    return tuple(x // g for x in a), den // g
